"""Shared generators: hypothesis strategies plus plain seeded builders.

The hypothesis composites shrink nicely and drive the property tests; the
`random_*` builders take a `random.Random` and are used where a test needs
hundreds of systems fast (the acceptance suite).  `unscannable` makes a
copy of a system whose answers must come from its compiled form, and
`scan_step` is the full-scan oracle for `step`.
"""

import random

from hypothesis import strategies as st

from conseq import LogicSystem, make_language, make_system
from conseq.model import NAME_RE, symbol_key


def _pool(system: LogicSystem):
    return sorted(system.language.symbols, key=symbol_key)


@st.composite
def systems(draw, max_symbols=7, max_rules=6, min_arity=2, max_arity=4):
    """Arbitrary systems over a small two-sorted language."""
    total = draw(st.integers(2, max_symbols))
    n_std = draw(st.integers(1, total - 1))
    lang = make_language(
        [f"s{i}" for i in range(n_std)],
        [f"n{i}" for i in range(total - n_std)],
    )
    names = sorted(s.name for s in lang.symbols)
    rule = st.tuples(
        st.lists(st.sampled_from(names), min_size=min_arity - 1, max_size=max_arity - 1),
        st.sampled_from(names),
    )
    tuples = draw(st.lists(rule, min_size=1, max_size=max_rules))
    return make_system(lang, tuples)


@st.composite
def named_systems(draw, max_symbols=6, max_rules=5):
    """Systems whose names are arbitrary identifiers of the name grammar."""
    names = draw(
        st.lists(st.from_regex(NAME_RE, fullmatch=True), min_size=2, max_size=max_symbols, unique=True)
    )
    n_std = draw(st.integers(1, len(names) - 1))
    lang = make_language(names[:n_std], names[n_std:])
    rule = st.tuples(st.lists(st.sampled_from(names), min_size=1, max_size=3), st.sampled_from(names))
    return make_system(lang, draw(st.lists(rule, min_size=1, max_size=max_rules)))


@st.composite
def systems_with_input(draw, **kwargs):
    system = draw(systems(**kwargs))
    pool = _pool(system)
    members = draw(st.lists(st.sampled_from(pool), max_size=len(pool)))
    return system, frozenset(members)


@st.composite
def mixed_ternary_systems(draw, max_each=4, max_rules=5):
    """Systems accepted by is_mixed_ternary: (standard, nonstandard) => standard
    with premise names disjoint from conclusion names by construction."""
    firsts = [f"a{i}" for i in range(draw(st.integers(1, max_each)))]
    mids = [f"l{i}" for i in range(draw(st.integers(1, max_each)))]
    concs = [f"b{i}" for i in range(draw(st.integers(1, max_each)))]
    lang = make_language(firsts + concs, mids)
    rule = st.tuples(st.sampled_from(firsts), st.sampled_from(mids), st.sampled_from(concs))
    triples = draw(st.lists(rule, min_size=1, max_size=max_rules))
    return make_system(lang, [((a, l), b) for a, l, b in triples])


@st.composite
def chaining_ternary_systems(draw, max_each=4, max_rules=6):
    """(standard, nonstandard) => standard systems whose conclusions may
    also be first premises, so rules can chain and one pass need not reach
    the closure; such a system fails is_mixed_ternary unless no conclusion
    is ever a premise."""
    firsts = [f"a{i}" for i in range(draw(st.integers(2, max_each + 1)))]
    mids = [f"l{i}" for i in range(draw(st.integers(1, max_each)))]
    lang = make_language(firsts, mids)
    rule = st.tuples(st.sampled_from(firsts), st.sampled_from(mids), st.sampled_from(firsts))
    triples = draw(st.lists(rule, min_size=1, max_size=max_rules))
    return make_system(lang, [((a, l), b) for a, l, b in triples])


@st.composite
def mixed_binary_systems(draw, max_each=5, max_rules=5):
    """Systems accepted by is_mixed_binary: nonstandard => standard."""
    mids = [f"l{i}" for i in range(draw(st.integers(1, max_each)))]
    concs = [f"b{i}" for i in range(draw(st.integers(1, max_each)))]
    lang = make_language(concs, mids)
    rule = st.tuples(st.sampled_from(mids), st.sampled_from(concs))
    pairs = draw(st.lists(rule, min_size=1, max_size=max_rules))
    return make_system(lang, [((l,), b) for l, b in pairs])


@st.composite
def system_inputs(draw, system: LogicSystem):
    pool = _pool(system)
    return frozenset(draw(st.lists(st.sampled_from(pool), max_size=len(pool))))


def random_system(rng: random.Random, n_symbols=7, max_rules=10, min_arity=2, max_arity=4):
    """A system over exactly n_symbols symbols with both sorts present."""
    n_std = rng.randint(1, n_symbols - 1)
    lang = make_language(
        [f"s{i}" for i in range(n_std)],
        [f"n{i}" for i in range(n_symbols - n_std)],
    )
    names = sorted(s.name for s in lang.symbols)
    tuples = []
    for _ in range(rng.randint(1, max_rules)):
        arity = rng.randint(min_arity, max_arity)
        premises = tuple(rng.choice(names) for _ in range(arity - 1))
        tuples.append((premises, rng.choice(names)))
    return make_system(lang, tuples)


def random_mixed_ternary(rng: random.Random, universe_size: int, max_rules=5):
    """A mixed ternary system whose language has exactly universe_size symbols."""
    if universe_size < 3:
        raise ValueError("need at least one symbol per coordinate")
    n_a = rng.randint(1, universe_size - 2)
    n_l = rng.randint(1, universe_size - n_a - 1)
    n_b = universe_size - n_a - n_l
    firsts = [f"a{i}" for i in range(n_a)]
    mids = [f"l{i}" for i in range(n_l)]
    concs = [f"b{i}" for i in range(n_b)]
    lang = make_language(firsts + concs, mids)
    tuples = [
        ((rng.choice(firsts), rng.choice(mids)), rng.choice(concs))
        for _ in range(rng.randint(1, max_rules))
    ]
    return make_system(lang, tuples)


def random_mixed_binary(rng: random.Random, universe_size: int, max_rules=5):
    """A mixed binary system whose language has exactly universe_size symbols."""
    if universe_size < 2:
        raise ValueError("need a premise symbol and a conclusion symbol")
    n_l = rng.randint(1, universe_size - 1)
    mids = [f"l{i}" for i in range(n_l)]
    concs = [f"b{i}" for i in range(universe_size - n_l)]
    lang = make_language(concs, mids)
    tuples = [
        ((rng.choice(mids),), rng.choice(concs))
        for _ in range(rng.randint(1, max_rules))
    ]
    return make_system(lang, tuples)


class Unscannable:
    """Stands in for `LogicSystem.rules`; any walk over it fails the test."""

    def __iter__(self):
        raise AssertionError("the rules were scanned")

    def __getitem__(self, i):
        raise AssertionError("the rules were scanned")


def unscannable(system: LogicSystem) -> LogicSystem:
    """A fresh copy of `system` (nothing memoized) whose `rules` cannot be
    walked, so whatever it answers comes from the compiled form."""
    blind = LogicSystem(system.language, system.rules)
    object.__setattr__(blind, "rules", Unscannable())
    return blind


def scan_step(system: LogicSystem, x: frozenset) -> frozenset:
    """`step` by its definition: X plus the conclusion of every rule whose
    premise set lies inside X, found by scanning all the rules."""
    return x | {r.conclusion for r in system.rules if r.premise_set <= x}
