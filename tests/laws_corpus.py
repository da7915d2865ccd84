"""A seeded corpus of law rows, printed as canonical JSON lines.

For each generated case the script prints one line per row of
`check_axioms`, `equivalent` and `verify_closed_form_characterization`:
the case, the call, the law, the verdict, `checked` and the witness as
lists of symbol names in canonical order.  The corpus holds

* tables over 0-8, 12 and 16 symbols: `tabulate`'s table of a random
  system, a copy with some images changed, and random images;
* mixed ternary systems, which verify passes;
* (standard, nonstandard) => standard systems whose conclusions may also
  be first premises, verified with their shape check bypassed, which is
  where verify's rows fail.

The output depends only on `--rounds` (the generator's seed is the constant
SEED), so runs compare byte for byte across PYTHONHASHSEED values or across
two checkouts of the package:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/laws_corpus.py > a.jsonl
    PYTHONHASHSEED=7 PYTHONPATH=src python tests/laws_corpus.py > b.jsonl
    cmp a.jsonl b.jsonl
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from conseq import (
    OperatorTable,
    ShapeCheck,
    Sort,
    Symbol,
    check_axioms,
    equivalent,
    make_language,
    make_system,
    tabulate,
    verify_closed_form_characterization,
)

SEED = 0
TABLE_SIZES = (*range(9), 12, 16)
SYSTEMS = 10  # mixed ternary and bypassed systems per round


def names(subset) -> list[str]:
    return sorted(s.name for s in subset)


def line(**fields) -> str:
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def rows(case: str, call: str, report) -> list[str]:
    return [
        line(
            case=case,
            call=call,
            law=r.law,
            passed=r.passed,
            checked=r.checked,
            witness=None if r.witness is None else [names(w) for w in r.witness],
        )
        for r in report
    ]


def random_system(rng: random.Random, n: int):
    """A system of rules of arity 2 to 4 over n >= 2 symbols of both sorts."""
    n_std = rng.randint(1, n - 1)
    pool = [f"s{i}" for i in range(n_std)] + [f"n{i}" for i in range(n - n_std)]
    lang = make_language(pool[:n_std], pool[n_std:])
    rules = [
        ([rng.choice(pool) for _ in range(rng.randint(1, 3))], rng.choice(pool))
        for _ in range(rng.randint(1, 2 * n))
    ]
    return make_system(lang, rules)


def table_cases(rng: random.Random, n: int) -> list[str]:
    """Rows of three tables over n symbols and of their comparisons."""
    if n < 2:  # a system needs a symbol of each sort
        closed = OperatorTable.from_function([Symbol(f"s{i}", Sort.STANDARD) for i in range(n)], lambda x: x)
    else:
        system = random_system(rng, n)
        closed = tabulate(system, system.language.symbols)
    full = 1 << n
    images = list(closed.images)
    for _ in range(rng.randint(1, 3)):
        images[rng.randrange(full)] = rng.randrange(full)
    changed = OperatorTable(closed.universe, tuple(images))
    noise = OperatorTable(closed.universe, tuple(rng.randrange(full) for _ in range(full)))
    out = []
    for label, table in (("closed", closed), ("changed", changed), ("noise", noise)):
        out += rows(f"table-{n}-{label}", "check_axioms", check_axioms(table))
    for label, (t1, t2) in (("self", (closed, closed)), ("changed", (closed, changed)), ("noise", (noise, closed))):
        comparison = equivalent(t1, t2)
        witness = None if comparison.witness is None else [names(comparison.witness)]
        out.append(line(case=f"table-{n}-{label}", call="equivalent", passed=comparison.equal, witness=witness))
    return out


def ternary_system(rng: random.Random, chaining: bool):
    """A (standard, nonstandard) => standard system over at most 16 symbols;
    its conclusions are first premises too only when `chaining`."""
    if chaining:
        firsts = concs = [f"a{i}" for i in range(rng.randint(1, 8))]
        mids = [f"l{i}" for i in range(rng.randint(1, 8))]
    else:
        firsts = [f"a{i}" for i in range(rng.randint(1, 6))]
        mids = [f"l{i}" for i in range(rng.randint(1, 5))]
        concs = [f"b{i}" for i in range(rng.randint(1, 5))]
    lang = make_language(sorted({*firsts, *concs}), mids)
    triples = [((rng.choice(firsts), rng.choice(mids)), rng.choice(concs)) for _ in range(rng.randint(1, 10))]
    return make_system(lang, triples)


def verify_case(rng: random.Random, i: int, chaining: bool) -> list[str]:
    system = ternary_system(rng, chaining)
    if chaining:
        vars(system)["ternary_shape"] = ShapeCheck(True)
    case = f"{'bypassed' if chaining else 'ternary'}-{i}"
    return rows(case, "verify", verify_closed_form_characterization(system))


def corpus(rounds: int):
    """Every row of `rounds` rounds; each draws a table case for every size
    in TABLE_SIZES, then SYSTEMS mixed ternary and SYSTEMS bypassed systems."""
    rng = random.Random(SEED)
    for r in range(rounds):
        for n in TABLE_SIZES:
            yield from table_cases(rng, n)
        for i in range(r * SYSTEMS, (r + 1) * SYSTEMS):
            yield from verify_case(rng, i, chaining=False)
            yield from verify_case(rng, i, chaining=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=40, help="rounds of cases (default 40)")
    args = parser.parse_args(argv)
    for row in corpus(args.rounds):
        sys.stdout.write(row + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
