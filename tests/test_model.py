"""Construction and validation of languages, rules, systems, and the shape
recognizers."""

import pytest
from hypothesis import given, settings, strategies as st

from conseq import (
    BadIdentifier,
    EmptyStandardPart,
    EmptySystem,
    Language,
    LogicSystem,
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
from strategies import mixed_binary_systems, mixed_ternary_systems, named_systems, systems


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


@pytest.mark.parametrize(
    "name", ["", "a b", "a,b", "a=b", "a>b", "a#b", "a:b", "a\tb", "a-b", "é", "x*", "*b1"]
)
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


def test_rule_with_a_declared_name_of_the_wrong_sort_is_unknown():
    lang = make_language({"a1", "b1"}, {"l1"})
    a1, b1 = lang.resolve("a1"), lang.resolve("b1")
    with pytest.raises(UnknownSymbol, match="'l1' not in the language"):
        LogicSystem(lang, (Rule((a1, Symbol("l1", Sort.STANDARD)), b1),))
    with pytest.raises(UnknownSymbol, match="'b1' not in the language"):
        LogicSystem(lang, (Rule((a1,), Symbol("b1", Sort.NONSTANDARD)),))


def _canonical_key(rule: Rule) -> tuple:
    """The canonical rule order, by names and sorts: (arity, premises,
    conclusion)."""
    return (
        rule.arity,
        tuple((p.name, p.sort.value) for p in rule.premises),
        (rule.conclusion.name, rule.conclusion.sort.value),
    )


@given(st.one_of(systems(max_rules=8), named_systems()), st.randoms(use_true_random=False))
def test_compiled_order_and_indexes_match_their_definitions(system, rng):
    # rebuild from a shuffled listing with duplicates
    rules = [*system.rules, *system.rules[::2]]
    rng.shuffle(rules)
    rebuilt = LogicSystem(system.language, tuple(rules))
    assert rebuilt.rules == tuple(sorted(set(rules), key=_canonical_key))
    assert rebuilt == system
    index: dict[Symbol, list[int]] = {}
    for i, rule in enumerate(rebuilt.rules):
        for p in set(rule.premises):
            index.setdefault(p, []).append(i)
    assert rebuilt.premise_index == {p: tuple(ids) for p, ids in index.items()}
    assert rebuilt.premise_counts == tuple(len(set(r.premises)) for r in rebuilt.rules)


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
    assert check.reason == "premise b1 of rule (b1 l2 => b2) equals conclusion of rule (a1 l1 => b1)"


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


def ternary_reason_by_scan(system):
    """The first offending rule in canonical order, by the definition."""
    for rule in system.rules:
        if len(rule.premises) != 2:
            return f"rule ({rule}) is not ternary"
        first, second = rule.premises
        if first.sort is not Sort.STANDARD:
            return f"first premise {first.name} of rule ({rule}) is nonstandard"
        if second.sort is Sort.STANDARD:
            return f"second premise {second.name} of rule ({rule}) is standard"
        if rule.conclusion.sort is not Sort.STANDARD:
            return f"conclusion {rule.conclusion.name} of rule ({rule}) is nonstandard"
    for rule in system.rules:
        for p in rule.premises:
            owners = [r for r in system.rules if r.conclusion == p]
            if owners:
                return f"premise {p.name} of rule ({rule}) equals conclusion of rule ({owners[0]})"
    return None


def binary_reason_by_scan(system):
    for rule in system.rules:
        if len(rule.premises) != 1:
            return f"rule ({rule}) is not binary"
        (premise,) = rule.premises
        if premise.sort is Sort.STANDARD:
            return f"premise {premise.name} of rule ({rule}) is standard"
        if rule.conclusion.sort is not Sort.STANDARD:
            return f"conclusion {rule.conclusion.name} of rule ({rule}) is nonstandard"
    return None


@st.composite
def near_shaped_systems(draw):
    """A mixed ternary or mixed binary system with at most one defect in
    one rule: a wrong arity, a premise or conclusion of the wrong sort, or
    a conclusion that may chain into a premise."""
    lang = make_language({"a0", "a1", "b0", "b1"}, {"l0", "l1"})
    conclusion = st.sampled_from(["b0", "b1"])
    if draw(st.booleans()):
        premises = st.tuples(st.sampled_from(["a0", "a1"]), st.sampled_from(["l0", "l1"]))
    else:
        premises = st.tuples(st.sampled_from(["l0", "l1"]))
    rules = draw(st.lists(st.tuples(premises, conclusion), min_size=1, max_size=5))
    i = draw(st.integers(0, len(rules) - 1))
    ps, c = rules[i]
    defect = draw(st.sampled_from(["none", "arity", "premise", "conclusion", "chain"]))
    if defect == "arity":
        ps = ps[:1] if len(ps) == 2 else ("a0", *ps)
    elif defect == "premise":
        j = draw(st.integers(0, len(ps) - 1))
        ps = (*ps[:j], "a1" if ps[j].startswith("l") else "l1", *ps[j + 1 :])
    elif defect == "conclusion":
        c = "l1"
    elif defect == "chain":
        c = "a0"
    rules[i] = (ps, c)
    return make_system(lang, rules)


def assert_shape_reasons(system):
    for check, want in (
        (is_mixed_ternary(system), ternary_reason_by_scan(system)),
        (is_mixed_binary(system), binary_reason_by_scan(system)),
    ):
        assert check.reason == want
        assert check.ok == (want is None)


@given(st.one_of(systems(), mixed_ternary_systems(), mixed_binary_systems()))
def test_shape_reasons_on_generated_systems(system):
    assert_shape_reasons(system)


@settings(max_examples=300)
@given(near_shaped_systems())
def test_shape_reasons_name_the_first_offending_rule(system):
    assert_shape_reasons(system)


@given(st.integers(2, 4).flatmap(lambda k: systems(max_rules=8, min_arity=k, max_arity=k)))
def test_first_premise_ids_are_sorted_in_uniform_arity_systems(system):
    # the canonical key of one arity starts with the first premise id, so
    # the rules anchored on one first premise form a single run
    firsts = system._firsts
    assert list(firsts) == sorted(firsts)
    assert firsts == tuple(system._ids[r.premises[0]] for r in system.rules)
