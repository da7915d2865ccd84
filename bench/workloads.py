"""The three workloads, as plans for `harness.Runner`.

Each plan states every query's expected answer, computed by `checks.py`
from the generating tuples.  Every workload exercises every end-to-end
metric; the layers it is built to stress get most of the run's seconds
(`shares`), the others a small side load.
"""

from __future__ import annotations

import random

import checks
import inputs as I
from harness import CliCall, Influence, Plan, Query

# side tables take tens of milliseconds; a round of a few of them gives the
# reference loop (harness.Reference) a few ticks inside every round
SIDE_BATCH = 4


def _masks(rng: random.Random, n: int, count: int) -> list[int]:
    return [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(count - 2)]


def chain_deep(rng: random.Random) -> Plan:
    """A long chain: deep `close`, heavy parse and construction; the
    one-pass forms and verify must refuse it (negative controls)."""
    n = I.CHAIN_RULES
    chain = I.chain_doc(rng, n)
    side_chain = I.chain_doc(rng, I.SIDE_N - 1, "c")
    side_ternary = I.ternary_doc(rng, 4, 4, 4, 16, all_used=True)
    starts = I.chain_starts(rng, n, I.CHAIN_QUERY_PAIRS)
    _, concluded = checks.multiplicities(list(chain.rules))
    # the CLI sample closes a deep tail (at least 99% of the chain), so its
    # output size, and hence its cost, barely depends on the seed
    cli_start = rng.randrange(max(1, n // 100))
    return Plan(
        docs=[chain, side_chain, side_ternary],
        queries=[Query(0, frozenset({f"s{i}"}), checks.chain_tail("s", n, i), "refuse") for i in starts],
        influence=[Influence(0, None, f"s{i}", concluded[f"s{i}"]) for i in starts],
        check=[1],
        verify=[2],
        verify_refused=[0],
        masks=_masks(rng, I.SIDE_N, I.TABLE_SAMPLE_MASKS),
        cli=[CliCall(0, ("--input", f"s{cli_start}"), "close",
                     lambda r: checks.check_close_records(r, checks.chain_tail("s", n, cli_start), set()))],
        shares={"close": 0.25, "fastpath": 0.2, "influence": 0.25, "check": 0.15, "verify": 0.15},
        setup_reps=1,
        table_batch=SIDE_BATCH,
    )


def onepass_wide(rng: random.Random) -> Plan:
    """One wide mixed ternary and one mixed binary system: shallow, wide
    `close`, both one-pass forms, and influence scans over real rule sets."""
    tern = I.ternary_doc(rng, I.WIDE_A, I.WIDE_L, I.WIDE_B, I.WIDE_RULES, all_used=False)
    bina = I.binary_doc(rng, I.WIDE_BIN_L, I.WIDE_BIN_B, I.WIDE_RULES)
    side = I.ternary_doc(rng, 4, 4, 4, 16, all_used=True)
    t_rules, b_rules = list(tern.rules), list(bina.rules)
    t_in = I.wide_queries(rng, tern, I.WIDE_QUERIES, {"a": 100, "l": 100, "b": 5})
    b_in = I.wide_queries(rng, bina, I.WIDE_QUERIES, {"l": 20, "b": 5})
    anchored, _ = checks.multiplicities(t_rules)
    _, concluded = checks.multiplicities(b_rules)
    bs = [s for s in bina.standard if s.startswith("b")]
    cli_in = t_in[0]
    return Plan(
        docs=[tern, bina, side],
        queries=[Query(0, x, checks.one_pass(t_rules, x), "ternary") for x in t_in]
        + [Query(1, x, checks.one_pass(b_rules, x), "binary") for x in b_in],
        influence=[Influence(0, a, b, anchored[(a, b)]) for a, b in I.anchor_queries(rng, tern, I.WIDE_INFLUENCE)]
        + [Influence(1, None, b, concluded[b]) for b in (rng.choice(bs) for _ in range(I.WIDE_INFLUENCE))],
        check=[2],
        verify=[2],
        verify_refused=[],
        masks=_masks(rng, I.SIDE_N, I.TABLE_SAMPLE_MASKS),
        cli=[CliCall(0, ("--input", ",".join(sorted(cli_in)), "--fastpath"), "close",
                     lambda r: checks.check_close_records(r, checks.one_pass(t_rules, cli_in), set(tern.nonstandard)))],
        shares={"close": 0.1, "fastpath": 0.4, "influence": 0.3, "check": 0.1, "verify": 0.1},
        setup_reps=1,
        table_batch=SIDE_BATCH,
        cli_reps=3,
    )


def tables_16(rng: random.Random) -> Plan:
    """16-symbol systems: `tabulate` + `check_axioms` on general systems and
    `verify_closed_form_characterization` on mixed ternary ones; 2^16 subsets
    per table make the laws layer nearly the whole cost."""
    n, k = I.TABLE_N, I.TABLE_SYSTEMS
    general = [I.general_doc(rng, n, I.TABLE_GENERAL_ARITIES) for _ in range(k)]
    tern = [I.ternary_doc(rng, 6, 4, 6, I.TABLE_TERNARY_RULES, all_used=True) for _ in range(k)]
    docs = general + tern
    queries = []
    for d, doc in enumerate(docs):
        syms = doc.symbols
        onepass = d >= k
        for _ in range(I.TABLE_ONEPASS_QUERIES if onepass else I.TABLE_CLOSE_QUERIES):
            x = frozenset(s for s in syms if rng.random() < 0.3)
            queries.append(Query(d, x, checks.fixpoint(list(doc.rules), x), "ternary" if onepass else None))
    influence = []
    for d in range(k, 2 * k):
        anchored, _ = checks.multiplicities(list(docs[d].rules))
        influence += [Influence(d, a, b, anchored[(a, b)]) for a, b in I.anchor_queries(rng, docs[d], I.TABLE_INFLUENCE)]
    cli_doc = tern[0]
    return Plan(
        docs=docs,
        queries=queries,
        influence=influence,
        check=list(range(k)),
        verify=list(range(k, 2 * k)),
        verify_refused=[],
        masks=_masks(rng, n, I.TABLE_SAMPLE_MASKS),
        cli=[
            CliCall(k, (), "check", lambda r: checks.check_law_records(r, n)),
            CliCall(k, (), "verify-thm23", lambda r: checks.check_law_records(r, n, len(set(cli_doc.rules)))),
        ],
        shares={"close": 0.1, "fastpath": 0.08, "influence": 0.08, "check": 0.37, "verify": 0.37},
        setup_reps=5,
        cli_reps=2,
    )


WORKLOADS = {"chain-deep": chain_deep, "onepass-wide": onepass_wide, "tables-16": tables_16}


def build(name: str, seed: int) -> Plan:
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))
