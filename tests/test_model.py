"""Construction and validation of languages, rules, systems, and the shape
recognizers."""

import pytest
from hypothesis import given

from conseq import (
    BadIdentifier,
    EmptyStandardPart,
    EmptySystem,
    Language,
    NameCollision,
    NullaryRule,
    Rule,
    Sort,
    Symbol,
    UnknownSymbol,
    is_mixed_binary,
    is_mixed_ternary,
    make_language,
    make_system,
)
from strategies import mixed_binary_systems, mixed_ternary_systems, systems


def test_make_language_counts_parts():
    lang = make_language({"a1", "b1"}, {"l1"})
    assert len(lang.standard_part) == 2
    assert len(lang.nonstandard_part) == 1
    assert lang.resolve("l1").sort is Sort.NONSTANDARD
    assert lang.resolve("a1").is_standard


def test_make_language_rejects_shared_name():
    with pytest.raises(NameCollision):
        make_language({"a1"}, {"a1"})


def test_make_language_requires_standard_part():
    with pytest.raises(EmptyStandardPart):
        make_language(set(), {"l1"})


def test_language_parts_must_match_sorts():
    std = Symbol("a1", Sort.STANDARD)
    non = Symbol("l1", Sort.NONSTANDARD)
    with pytest.raises(ValueError):
        Language(frozenset({non}), frozenset({std}))


def test_resolve_unknown_name():
    lang = make_language({"a1"}, set())
    with pytest.raises(UnknownSymbol):
        lang.resolve("zz")


@pytest.mark.parametrize("name", ["", "a b", "a,b", "a=b", "a>b", "a#b", "a:b", "a\tb"])
def test_symbol_rejects_bad_names(name):
    with pytest.raises(BadIdentifier):
        Symbol(name, Sort.STANDARD)


def test_symbol_equality_is_name_and_sort():
    assert Symbol("x", Sort.STANDARD) == Symbol("x", Sort.STANDARD)
    assert Symbol("x", Sort.STANDARD) != Symbol("x", Sort.NONSTANDARD)


def test_symbol_hash_keeps_sorts_apart_and_matches_equal_symbols():
    std, non = Symbol("x", Sort.STANDARD), Symbol("x", Sort.NONSTANDARD)
    assert len({std, non}) == 2
    table = {std: "standard", non: "nonstandard"}
    assert len(table) == 2
    twin = Symbol("x", Sort.STANDARD)
    assert twin is not std and hash(twin) == hash(std)
    assert twin in {std} and non not in {std}
    assert table[twin] == "standard"
    assert table[Symbol("x", Sort.NONSTANDARD)] == "nonstandard"


def test_make_system_single_ternary_rule():
    lang = make_language({"a1", "b1"}, {"l1"})
    system = make_system(lang, [(("a1", "l1"), "b1")])
    assert len(system) == 1
    rule = system.rules[0]
    assert rule.arity == 3
    assert rule.premise_set == {lang.resolve("a1"), lang.resolve("l1")}
    assert rule.conclusion == lang.resolve("b1")


def test_make_system_collapses_duplicates():
    lang = make_language({"a1", "b1"}, {"l1"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (("a1", "l1"), "b1")])
    assert len(system) == 1


def test_make_system_unknown_symbol():
    lang = make_language({"a1", "b1"}, {"l1"})
    with pytest.raises(UnknownSymbol, match="zz"):
        make_system(lang, [(("a1", "zz"), "b1")])


def test_make_system_requires_rules():
    lang = make_language({"a1"}, set())
    with pytest.raises(EmptySystem):
        make_system(lang, [])


def test_make_system_rejects_empty_premises():
    lang = make_language({"a1", "b1"}, set())
    with pytest.raises(NullaryRule):
        make_system(lang, [((), "b1")])


def test_rule_premise_order_kept_but_identity_is_tuple():
    a = Symbol("a", Sort.STANDARD)
    l = Symbol("l", Sort.NONSTANDARD)
    b = Symbol("b", Sort.STANDARD)
    r1 = Rule((a, l), b)
    r2 = Rule((l, a), b)
    assert r1 != r2
    assert r1.premise_set == r2.premise_set
    assert str(r1) == "a l => b"


def test_rules_stored_in_canonical_order():
    lang = make_language({"a1", "a2", "b1"}, {"l1"})
    s1 = make_system(lang, [(("a2", "l1"), "b1"), (("a1", "l1"), "b1")])
    s2 = make_system(lang, [(("a1", "l1"), "b1"), (("a2", "l1"), "b1")])
    assert s1 == s2
    assert [str(r) for r in s1.rules] == ["a1 l1 => b1", "a2 l1 => b1"]


def test_mixed_ternary_accepts_disjoint_system():
    lang = make_language({"a1", "a2", "b1", "b2"}, {"l1", "l2"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (("a2", "l2"), "b2")])
    check = is_mixed_ternary(system)
    assert check
    assert check.reason is None


def test_mixed_ternary_rejects_premise_conclusion_overlap():
    lang = make_language({"a1", "b1", "b2"}, {"l1", "l2"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (("b1", "l2"), "b2")])
    check = is_mixed_ternary(system)
    assert not check
    assert "premise b1" in check.reason
    assert "conclusion" in check.reason


def test_mixed_ternary_rejects_wrong_arity():
    lang = make_language({"a1", "a2", "b1"}, {"l1"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (("a2",), "b1")])
    check = is_mixed_ternary(system)
    assert not check
    assert "not ternary" in check.reason


def test_mixed_ternary_checks_sorts():
    lang = make_language({"a1", "a2", "b1"}, {"l1", "l2"})
    swapped = make_system(lang, [(("l1", "a1"), "b1")])
    assert "nonstandard" in is_mixed_ternary(swapped).reason
    two_standard_premises = make_system(lang, [(("a1", "a2"), "b1")])
    assert "is standard" in is_mixed_ternary(two_standard_premises).reason
    nonstandard_conclusion = make_system(lang, [(("a1", "l1"), "l2")])
    assert "conclusion l2" in is_mixed_ternary(nonstandard_conclusion).reason


def test_mixed_binary_accepts_two_rule_system():
    lang = make_language({"b1", "b2"}, {"l1", "l2"})
    system = make_system(lang, [(("l1",), "b1"), (("l2",), "b2")])
    assert is_mixed_binary(system)


def test_mixed_binary_rejects_standard_premise():
    lang = make_language({"a1", "b1"}, set())
    system = make_system(lang, [(("a1",), "b1")])
    check = is_mixed_binary(system)
    assert not check
    assert "standard" in check.reason


def test_mixed_binary_rejects_mixed_arity():
    lang = make_language({"a1", "b1", "b2"}, {"l1"})
    system = make_system(lang, [(("l1",), "b1"), (("a1", "l1"), "b2")])
    check = is_mixed_binary(system)
    assert not check
    assert "not binary" in check.reason


def test_mixed_binary_rejects_nonstandard_conclusion():
    lang = make_language({"b1"}, {"l1", "l2"})
    system = make_system(lang, [(("l1",), "l2")])
    check = is_mixed_binary(system)
    assert not check
    assert "conclusion l2" in check.reason


@given(systems())
def test_language_parts_disjoint_by_name(system):
    std = {s.name for s in system.language.standard_part}
    non = {s.name for s in system.language.nonstandard_part}
    assert not std & non


@given(systems())
def test_make_system_idempotent_on_own_listing(system):
    tuples = [
        (tuple(p.name for p in r.premises), r.conclusion.name) for r in system.rules
    ]
    assert make_system(system.language, tuples) == system


@given(mixed_ternary_systems())
def test_mixed_ternary_premises_disjoint_from_conclusions(system):
    assert is_mixed_ternary(system)
    premises = {p for r in system.rules for p in r.premises}
    assert not premises & system.conclusions


@given(mixed_binary_systems())
def test_mixed_binary_recognized(system):
    assert is_mixed_binary(system)
