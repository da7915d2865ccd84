"""Repetition multiplicities and the strict strength comparison."""

import pytest
from hypothesis import given, strategies as st

from conseq import (
    InfluenceWeight,
    LogicSystem,
    PreconditionViolated,
    Sort,
    Strength,
    Symbol,
    UnknownSymbol,
    close,
    compare_influence,
    matched_rules_binary,
    matched_rules_ternary,
    weight_binary,
    weight_ternary,
    make_language,
    make_system,
)
from strategies import mixed_binary_systems, mixed_ternary_systems, systems, unscannable


@pytest.fixture
def triple_repeat():
    lang = make_language({"a1", "b1", "b2"}, {"l1", "l2", "l3"})
    system = make_system(
        lang,
        [(("a1", "l1"), "b1"), (("a1", "l2"), "b1"), (("a1", "l3"), "b1")],
    )
    return lang, system


def test_weight_ternary_counts_repetitions(triple_repeat):
    lang, system = triple_repeat
    w = weight_ternary(system, lang.resolve("a1"), lang.resolve("b1"))
    assert w.multiplicity == 3
    assert w.anchor_premise == lang.resolve("a1")
    assert w.conclusion == lang.resolve("b1")


def test_weight_ternary_no_match_is_zero(triple_repeat):
    lang, system = triple_repeat
    assert weight_ternary(system, lang.resolve("a1"), lang.resolve("b2")).multiplicity == 0


def test_weight_ternary_singleton():
    lang = make_language({"a1", "b1"}, {"l1"})
    system = make_system(lang, [(("a1", "l1"), "b1")])
    assert weight_ternary(system, lang.resolve("a1"), lang.resolve("b1")).multiplicity == 1


def test_weight_ternary_requires_uniform_arity():
    lang = make_language({"a1", "b1"}, {"l1"})
    system = make_system(lang, [(("l1",), "b1")])
    with pytest.raises(PreconditionViolated):
        weight_ternary(system, lang.resolve("a1"), lang.resolve("b1"))
    # the message names the first rule, in canonical order, of another arity
    mixed = make_system(lang, [(("a1", "l1"), "b1"), (("l1", "a1", "a1"), "b1"), (("l1",), "a1")])
    with pytest.raises(PreconditionViolated, match=r"^rule \(l1 => a1\) is not ternary$"):
        weight_ternary(mixed, lang.resolve("a1"), lang.resolve("b1"))
    with pytest.raises(PreconditionViolated, match=r"^rule \(a1 l1 => b1\) is not binary$"):
        weight_binary(mixed, lang.resolve("b1"))


def test_weight_ternary_unknown_symbol(triple_repeat):
    lang, system = triple_repeat
    with pytest.raises(UnknownSymbol):
        weight_ternary(system, Symbol("zz", lang.resolve("a1").sort), lang.resolve("b1"))


def test_weight_binary_counts_conclusion_rules():
    lang = make_language({"b1", "b2"}, {"l1", "l2"})
    two = make_system(lang, [(("l1",), "b1"), (("l2",), "b1")])
    assert weight_binary(two, lang.resolve("b1")).multiplicity == 2
    one = make_system(lang, [(("l1",), "b1")])
    assert weight_binary(one, lang.resolve("b2")).multiplicity == 0
    split = make_system(lang, [(("l1",), "b1"), (("l2",), "b2")])
    assert weight_binary(split, lang.resolve("b1")).multiplicity == 1
    assert weight_binary(split, lang.resolve("b1")).anchor_premise is None


def test_weight_binary_requires_binary_rules(triple_repeat):
    lang, system = triple_repeat
    with pytest.raises(PreconditionViolated):
        weight_binary(system, lang.resolve("b1"))


def weight_of(m: int) -> InfluenceWeight:
    return InfluenceWeight(conclusion=Symbol("b", Sort.STANDARD), multiplicity=m)


def test_compare_influence_is_strict():
    assert compare_influence(weight_of(3), weight_of(2)) is Strength.STRONGER
    assert compare_influence(weight_of(2), weight_of(2)) is Strength.INCOMPARABLE_EQUAL
    assert compare_influence(weight_of(0), weight_of(1)) is Strength.WEAKER
    assert str(Strength.STRONGER) == "stronger"
    assert str(Strength.INCOMPARABLE_EQUAL) == "incomparable-equal"


def test_weight_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        weight_of(-1)


@given(mixed_binary_systems())
def test_binary_multiplicities_sum_to_rule_count(system):
    total = sum(
        weight_binary(system, b).multiplicity for b in system.language.standard_part
    )
    assert total == len(system)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_compare_influence_orders_like_integers(m1, m2, m3):
    w1, w2, w3 = (weight_of(m) for m in (m1, m2, m3))
    assert compare_influence(w1, w1) is Strength.INCOMPARABLE_EQUAL
    if (
        compare_influence(w1, w2) is Strength.STRONGER
        and compare_influence(w2, w3) is Strength.STRONGER
    ):
        assert compare_influence(w1, w3) is Strength.STRONGER


@given(mixed_ternary_systems())
def test_matched_subsystem_adds_exactly_the_conclusion(system):
    lang = system.language
    seen = {(r.premises[0], r.conclusion) for r in system.rules}
    for a, b in sorted(seen, key=lambda p: (p[0].name, p[1].name)):
        matched = matched_rules_ternary(system, a, b)
        assert weight_ternary(system, a, b).multiplicity == len(matched) >= 1
        sub = LogicSystem(lang, matched)
        x = frozenset().union(*(r.premise_set for r in matched))
        assert close(sub, x) - x == {b}


def _ternary_matches(system, a, b):
    return tuple(r for r in system.rules if r.premises[0] == a and r.conclusion == b)


def _binary_matches(system, b):
    return tuple(r for r in system.rules if r.conclusion == b)


# The pairs run over `_symbols`, which holds the language in id order, so
# they include pairs with no match and the lowest and highest ids, the
# edges of the first-premise runs that `weight_ternary` bisects.


@given(systems(min_arity=3, max_arity=3))
def test_weight_ternary_equals_a_plain_count_without_scanning_rules(system):
    blind = unscannable(system)
    for a in system._symbols:
        for b in system._symbols:
            matched = _ternary_matches(system, a, b)
            assert weight_ternary(blind, a, b).multiplicity == len(matched)
            assert matched_rules_ternary(blind, a, b) == matched


@given(systems(min_arity=2, max_arity=2))
def test_weight_binary_equals_a_plain_count_without_scanning_rules(system):
    blind = unscannable(system)
    for b in system._symbols:
        matched = _binary_matches(system, b)
        assert weight_binary(blind, b).multiplicity == len(matched)
        assert matched_rules_binary(blind, b) == matched


@given(systems())
def test_matched_rules_equal_a_plain_scan_at_any_arity(system):
    # the matches are built from the keys: the system's rules are never walked
    blind = unscannable(system)
    for b in system._symbols:
        assert matched_rules_binary(blind, b) == _binary_matches(system, b)
        for a in system._symbols:
            assert matched_rules_ternary(blind, a, b) == _ternary_matches(system, a, b)
    # a symbol outside the language is refused, as the weights refuse it
    outside, inside = Symbol("zz", Sort.STANDARD), system._symbols[0]
    for call in (
        lambda: matched_rules_binary(system, outside),
        lambda: matched_rules_ternary(system, outside, inside),
        lambda: matched_rules_ternary(system, inside, outside),
    ):
        with pytest.raises(UnknownSymbol, match="symbol 'zz' is not in the system's language"):
            call()
