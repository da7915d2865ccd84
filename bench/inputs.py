"""Seeded inputs for the benchmark workloads.

Everything here is plain data built from a `random.Random`: symbol names,
rule tuples `(premises, conclusion)` and `.lgs` document bytes.  Nothing
imports conseq, so the checkers can recompute expected answers from the
same tuples without going through the program.

Query sets are built so that the work in one round barely depends on the
seed (mirrored chain starts, fixed set sizes, fixed arity mixes): the seed
changes *which* symbols are asked about, not how much work a round is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Rule = tuple[tuple[str, ...], str]

# chain-deep: 10^5 rules is the long-term target, but one parse of it takes
# about 7 s and its CLI sample another 8 s, and a run takes three of each;
# at 3 * 10^4 parsing is already superlinear.
CHAIN_RULES = 30_000
CHAIN_QUERY_PAIRS = 4

WIDE_RULES = 20_000
WIDE_A, WIDE_L, WIDE_B = 2000, 1000, 2000
WIDE_BIN_L, WIDE_BIN_B = 2000, 2000
# every one-pass and influence query scans all 20k rules; small query sets
# make short rounds, so that a run holds many of them
WIDE_QUERIES = 16  # per system
WIDE_INFLUENCE = 4  # per system

TABLE_N = 16
TABLE_GENERAL_ARITIES = (2,) * 14 + (3,) * 13 + (4,) * 13  # 40 rules
TABLE_TERNARY_RULES = 30
TABLE_SYSTEMS = 12  # of each kind
SIDE_N = 12  # side tables on the two workloads that are not about laws
TABLE_CLOSE_QUERIES = 64  # per general system
TABLE_ONEPASS_QUERIES = 512  # per mixed ternary system
TABLE_INFLUENCE = 128  # per mixed ternary system
TABLE_SAMPLE_MASKS = 256


@dataclass(frozen=True)
class Doc:
    """One .lgs document plus the tuples it was written from."""

    standard: tuple[str, ...]
    nonstandard: tuple[str, ...]
    rules: tuple[Rule, ...]
    text: bytes = field(repr=False)

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.standard + self.nonstandard


def write_doc(rng: random.Random, standard, nonstandard, rules, per_line: int = 1000) -> Doc:
    """Render tuples as .lgs text, with declarations and rules in seeded
    order so that the parser's canonical sort does real work."""
    std, non, body = list(standard), list(nonstandard), list(rules)
    rng.shuffle(std)
    rng.shuffle(non)
    rng.shuffle(body)
    lines = ["# generated by bench/inputs.py"]
    for kind, names in (("standard", std), ("nonstandard", non)):
        for k in range(0, len(names), per_line):
            lines.append(f"{kind}: " + " ".join(names[k : k + per_line]))
    lines += [f"rule: {' '.join(p)} => {c}" for p, c in body]
    text = ("\n".join(lines) + "\n").encode()
    return Doc(tuple(standard), tuple(nonstandard), tuple(rules), text)


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def chain_doc(rng: random.Random, n_rules: int, prefix: str = "s") -> Doc:
    names = _names(prefix, n_rules + 1)
    rules = [((a,), b) for a, b in zip(names, names[1:])]
    return write_doc(rng, names, [], rules)


def chain_starts(rng: random.Random, n_rules: int, pairs: int) -> list[int]:
    """Start indices in mirrored pairs (i, N - i): the tails they close to
    always total N + 2 symbols per pair, whatever the seed."""
    out = []
    for _ in range(pairs):
        i = rng.randrange(n_rules + 1)
        out += [i, n_rules - i]
    return out


def distinct_rules(rng: random.Random, count: int, draw) -> list[Rule]:
    seen: dict[Rule, None] = {}
    while len(seen) < count:
        seen.setdefault(draw(), None)
    return list(seen)


def ternary_doc(rng: random.Random, n_a: int, n_l: int, n_b: int, n_rules: int, all_used: bool) -> Doc:
    """Mixed ternary system: rules `a l => b`, where a and b are standard,
    l is nonstandard, and no premise is ever a conclusion."""
    a, l, b = _names("a", n_a), _names("l", n_l), _names("b", n_b)
    while True:
        rules = distinct_rules(
            rng, n_rules, lambda: ((rng.choice(a), rng.choice(l)), rng.choice(b))
        )
        used = {s for ps, c in rules for s in (*ps, c)}
        if not all_used or len(used) == n_a + n_l + n_b:
            return write_doc(rng, a + b, l, rules)


def binary_doc(rng: random.Random, n_l: int, n_b: int, n_rules: int) -> Doc:
    """Mixed binary system: rules `l => b` with l nonstandard, b standard."""
    l, b = _names("l", n_l), _names("b", n_b)
    rules = distinct_rules(rng, n_rules, lambda: ((rng.choice(l),), rng.choice(b)))
    return write_doc(rng, b, l, rules)


def general_doc(rng: random.Random, n: int, arities: tuple[int, ...]) -> Doc:
    """General system over n symbols, every symbol used, one rule per entry
    of `arities`; a conclusion never repeats one of its premises."""
    n_std = n * 5 // 8
    std, non = _names("p", n_std), _names("q", n - n_std)
    universe = std + non
    while True:
        rules = []
        seen = set()
        for arity in arities:
            while True:
                picked = rng.sample(universe, arity)
                rule = (tuple(picked[:-1]), picked[-1])
                if rule not in seen:
                    seen.add(rule)
                    rules.append(rule)
                    break
        if len({s for ps, c in rules for s in (*ps, c)}) == n:
            return write_doc(rng, std, non, rules)


def wide_queries(rng: random.Random, doc: Doc, count: int, sizes: dict[str, int]) -> list[frozenset[str]]:
    """Input sets with a fixed number of symbols of each name prefix."""
    pools: dict[str, list[str]] = {}
    for name in doc.symbols:
        pools.setdefault(name.rstrip("0123456789"), []).append(name)
    return [
        frozenset(s for prefix, k in sizes.items() for s in rng.sample(pools[prefix], k))
        for _ in range(count)
    ]


def anchor_queries(rng: random.Random, doc: Doc, count: int) -> list[tuple[str, str]]:
    """(first premise, conclusion) pairs; half taken from rules so that the
    counts are not all zero, half drawn at random."""
    out = []
    for k in range(count):
        if k % 2 == 0:
            ps, c = rng.choice(doc.rules)
            out.append((ps[0], c))
        else:
            first = rng.choice([s for s in doc.standard if s.startswith("a")])
            out.append((first, rng.choice([s for s in doc.standard if s.startswith("b")])))
    return out
