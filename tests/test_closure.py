"""Fixpoint closure, the one-pass closed forms, and chain systems.

The closed forms are fast paths, never the definition, so most properties
here compare them against `close` (and `close` against `close_naive`, and
`step` against a scan of every rule).
"""

import gc
from itertools import chain as ichain, combinations

import pytest
from hypothesis import given, strategies as st

from conseq import (
    DuplicateElement,
    LanguageMismatch,
    PreconditionViolated,
    Sort,
    Symbol,
    TooShort,
    chain_system,
    close,
    close_naive,
    closed_form_binary,
    closed_form_ternary,
    make_language,
    make_system,
    step,
    tabulate,
    weight_binary,
    weight_ternary,
)
from strategies import (
    chaining_ternary_systems,
    mixed_binary_systems,
    mixed_ternary_systems,
    scan_step,
    system_inputs,
    systems_with_input,
)


def subsets(members):
    items = sorted(members, key=lambda s: s.name)
    return ichain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


@pytest.fixture
def single_rule():
    lang = make_language({"a1", "b1"}, {"l1"})
    return lang, make_system(lang, [(("a1", "l1"), "b1")])


def test_step_without_full_premises(single_rule):
    lang, system = single_rule
    x = frozenset({lang.resolve("a1")})
    assert step(system, x) == x


def test_step_fires_single_rule(single_rule):
    lang, system = single_rule
    x = {lang.resolve("a1"), lang.resolve("l1")}
    assert step(system, x) == x | {lang.resolve("b1")}


def test_step_on_chain_moves_one_link():
    s = [Symbol(f"s{i}", Sort.STANDARD) for i in range(3)]
    system = chain_system(s)
    assert step(system, {s[0]}) == {s[0], s[1]}


def test_step_fires_a_rule_with_a_repeated_premise():
    lang = make_language({"a1", "b1"}, set())
    system = make_system(lang, [(("a1", "a1"), "b1")])
    a1, b1 = lang.resolve("a1"), lang.resolve("b1")
    assert step(system, {a1}) == {a1, b1} == scan_step(system, frozenset({a1}))


def test_step_finds_a_rule_under_its_written_first_premise():
    # ids number symbols by name, so l1 is not the rule's smallest id, yet
    # the index files the rule under l1, its written first premise
    lang = make_language({"a1", "b1"}, {"l1"})
    system = make_system(lang, [(("l1", "a1"), "b1")])
    a1, b1, l1 = map(lang.resolve, ("a1", "b1", "l1"))
    assert list(system.first_premise_index) == [l1]
    for x in (frozenset(), frozenset({a1}), frozenset({l1}), frozenset({a1, l1})):
        assert step(system, x) == scan_step(system, x)
    assert step(system, {a1, l1}) == {a1, b1, l1}


@given(
    st.one_of(
        systems_with_input(),
        chaining_ternary_systems().flatmap(lambda s: st.tuples(st.just(s), system_inputs(s))),
    )
)
def test_step_equals_the_full_rule_scan(case):
    system, x = case
    assert step(system, x) == scan_step(system, x)


def test_close_chain_from_head_reaches_everything():
    s = [Symbol(f"s{i}", Sort.STANDARD) for i in range(4)]
    system = chain_system(s)
    assert close(system, {s[0]}) == set(s)


def test_close_chain_from_middle_yields_tail():
    s = [Symbol(f"s{i}", Sort.STANDARD) for i in range(4)]
    system = chain_system(s)
    assert close(system, {s[2]}) == {s[2], s[3]}
    assert close(system, {s[2]}) != set(s)


def test_close_of_closure_is_fixed(single_rule):
    lang, system = single_rule
    y = close(system, {lang.resolve("a1"), lang.resolve("l1")})
    assert close(system, y) == y


def test_close_empty_input_is_empty(single_rule):
    _, system = single_rule
    assert close(system, frozenset()) == frozenset()
    assert close_naive(system, frozenset()) == frozenset()


def test_close_rejects_foreign_symbols(single_rule):
    _, system = single_rule
    with pytest.raises(LanguageMismatch, match="zz"):
        close(system, {Symbol("zz", Sort.STANDARD)})


# Entry points outside `closure` that take symbols, called like `close`:
# the first member is the symbol argument.
def _tabulate(system, members):
    return tabulate(system, [*members, *system.symbols])


def _weight_ternary(system, members):
    return weight_ternary(system, members[0], system.language.resolve("b1"))


def _weight_binary(system, members):
    return weight_binary(system, members[0])


_EVALUATORS = [
    step,
    close,
    close_naive,
    closed_form_ternary,
    closed_form_binary,
    pytest.param(_tabulate, id="tabulate"),
    pytest.param(_weight_ternary, id="weight_ternary"),
    pytest.param(_weight_binary, id="weight_binary"),
]


def _system_for(evaluate):
    lang = make_language({"a1", "b1"}, {"l1"})
    binary = evaluate in (closed_form_binary, _weight_binary)
    return make_system(lang, [(("l1",), "b1")] if binary else [(("a1", "l1"), "b1")])


@pytest.mark.parametrize("evaluate", _EVALUATORS)
def test_a_bare_name_in_the_input_is_a_language_mismatch(evaluate):
    system = _system_for(evaluate)
    with pytest.raises(LanguageMismatch, match=r"^member 'a1' is not a Symbol$"):
        evaluate(system, ["a1", system.language.resolve("l1")])


@pytest.mark.parametrize("evaluate", _EVALUATORS)
def test_an_unhashable_member_is_a_language_mismatch(evaluate):
    system = _system_for(evaluate)
    with pytest.raises(LanguageMismatch, match=r"is not a Symbol"):
        evaluate(system, [["a1"], system.language.resolve("l1")])


def test_foreign_symbol_report_ignores_input_order():
    # two strays share a name; the report names the first by
    # (name, sort), whatever order the input lists them in
    system = chain_system([Symbol(f"s{i}", Sort.STANDARD) for i in range(3)])
    z_std, z_non = Symbol("z", Sort.STANDARD), Symbol("z", Sort.NONSTANDARD)
    messages = set()
    for members in ([z_std, z_non], [z_non, z_std]):
        with pytest.raises(LanguageMismatch) as info:
            close(system, members)
        messages.add(str(info.value))
    assert messages == {"symbol 'z' (nonstandard) is not in the system's language"}


def test_close_passes_rule_free_symbols_through():
    lang = make_language({"a1", "b1", "spare"}, {"l1"})
    system = make_system(lang, [(("a1", "l1"), "b1")])
    spare = lang.resolve("spare")
    assert close(system, {spare}) == {spare}


def test_closed_form_ternary_matches_spec_values():
    lang = make_language({"a1", "a2", "b1", "b2"}, {"l1", "l2"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (("a2", "l2"), "b2")])
    a1, a2, l1 = lang.resolve("a1"), lang.resolve("a2"), lang.resolve("l1")
    assert closed_form_ternary(system, {a1, l1}) == {a1, l1, lang.resolve("b1")}
    assert closed_form_ternary(system, {a1, a2}) == {a1, a2}


def test_closed_form_ternary_fires_only_rules_whose_whole_premise_set_is_in():
    # Four rules share the first premise a and differ in the nonstandard
    # second premise; X holds a and only two of those second premises.
    lang = make_language({"a", "b1", "b2", "b3", "b4"}, {"l1", "l2", "l3", "l4"})
    system = make_system(lang, [(("a", f"l{i}"), f"b{i}") for i in range(1, 5)])
    x = frozenset(lang.resolve(n) for n in ("a", "l1", "l3"))
    expected = x | {lang.resolve("b1"), lang.resolve("b3")}
    assert closed_form_ternary(system, x) == expected
    assert close_naive(system, x) == expected


def test_a_repeated_premise_is_one_entry_and_fires():
    lang = make_language({"n0", "n1", "n2"}, set())
    system = make_system(lang, [(("n0", "n0"), "n1"), (("n1",), "n2")])
    n0, n1, n2 = map(lang.resolve, ("n0", "n1", "n2"))
    rule = [r.conclusion for r in system.rules].index(n1)
    assert system._premise_rules[system._ids[n0]] == (rule,)
    assert system.premise_counts[rule] == 1
    assert close(system, {n0}) == {n0, n1, n2}


def test_a_symbol_that_is_only_a_conclusion_has_no_rules():
    lang = make_language({"n0", "n1", "n2"}, set())
    system = make_system(lang, [(("n0",), "n1")])
    n1, n2 = lang.resolve("n1"), lang.resolve("n2")
    # a conclusion and a symbol of no rule both hold the shared empty tuple
    assert system._premise_rules[system._ids[n1]] is tuple()
    assert system._premise_rules[system._ids[n2]] is tuple()
    assert close(system, {n1}) == {n1}
    assert close(system, {n2}) == {n2}


def test_first_premise_index_is_built_only_by_a_one_pass_query():
    lang = make_language({"a1", "b1", "b2"}, {"l1", "l2"})
    chaining = make_system(lang, [(("a1", "l1"), "b1"), (("b1", "l2"), "b2")])
    # Set-up, the shape recognizers and `close` leave it unbuilt, and so
    # does a one-pass query that the shape guard refuses; `step` builds it.
    assert chaining.premise_index and chaining.premise_counts
    assert not chaining.binary_shape
    close(chaining, {lang.resolve("a1")})
    with pytest.raises(PreconditionViolated):
        closed_form_ternary(chaining, frozenset())
    assert "first_premise_index" not in vars(chaining)
    step(chaining, {lang.resolve("a1")})
    assert "first_premise_index" in vars(chaining)
    ternary = make_system(lang, [(("a1", "l1"), "b1"), (("a1", "l2"), "b2")])
    closed_form_ternary(ternary, frozenset())
    assert "first_premise_index" in vars(ternary)
    # Construction and `close` keep no premise frozenset per rule: a rule has
    # no instance dict to cache one in, and a 500-rule chain leaves a handful
    # of frozensets alive (language parts, the result), not one per rule.
    assert not any(hasattr(r, "__dict__") for r in (*chaining.rules, *ternary.rules))
    frozensets = lambda: sum(type(o) is frozenset for o in gc.get_objects())
    symbols = [Symbol(f"s{i}", Sort.STANDARD) for i in range(501)]
    gc.collect()  # so that no earlier garbage is freed while counting
    before = frozensets()
    chain = chain_system(symbols)
    tail = close(chain, {symbols[0]})
    assert len(tail) == 501 and frozensets() - before < 10
    assert len(chain.first_premise_index) == 500  # one premise set per rule
    assert frozensets() - before >= 500


def test_closed_form_ternary_refuses_chaining_system():
    lang = make_language({"a1", "b1", "b2"}, {"l1", "l2"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (("b1", "l2"), "b2")])
    with pytest.raises(PreconditionViolated):
        closed_form_ternary(system, frozenset())


def test_closed_form_binary_matches_spec_values():
    lang = make_language({"a1", "b1", "b2"}, {"l1", "l2"})
    system = make_system(lang, [(("l1",), "b1"), (("l2",), "b2")])
    l1, l2, a1 = lang.resolve("l1"), lang.resolve("l2"), lang.resolve("a1")
    b1, b2 = lang.resolve("b1"), lang.resolve("b2")
    assert closed_form_binary(system, {l1}) == {l1, b1}
    assert closed_form_binary(system, {b1, b2}) == {b1, b2}
    assert closed_form_binary(system, {l1, l2, a1}) == {l1, l2, a1, b1, b2}
    assert closed_form_binary(system, {l1, l2, a1}) == close(system, {l1, l2, a1})


def test_closed_form_binary_refuses_ternary_system(single_rule):
    _, system = single_rule
    with pytest.raises(PreconditionViolated):
        closed_form_binary(system, frozenset())


def test_chain_system_builds_consecutive_rules():
    s = [Symbol(f"s{i}", Sort.STANDARD) for i in range(3)]
    system = chain_system(s)
    assert [str(r) for r in system.rules] == ["s0 => s1", "s1 => s2"]
    assert chain_system(s[:2]).rules[0].premises == (s[0],)


def test_chain_system_rejects_duplicates_and_short_input():
    s0 = Symbol("s0", Sort.STANDARD)
    s1 = Symbol("s1", Sort.STANDARD)
    with pytest.raises(DuplicateElement):
        chain_system([s0, s0, s1])
    with pytest.raises(TooShort):
        chain_system([s0])


def test_chain_system_keeps_sorts():
    mixed = [Symbol("s0", Sort.STANDARD), Symbol("n0", Sort.NONSTANDARD)]
    system = chain_system(mixed)
    assert system.language.nonstandard_part == {mixed[1]}


@given(systems_with_input())
def test_closure_is_inflationary(case):
    system, x = case
    stepped = step(system, x)
    closed = close(system, x)
    assert x <= stepped <= closed


@given(systems_with_input())
def test_closure_is_idempotent(case):
    system, x = case
    closed = close(system, x)
    assert close(system, closed) == closed


@given(systems_with_input(), systems_with_input())
def test_closure_is_monotone(case, other):
    system, x = case
    _, extra = other
    y = x | (extra & system.language.symbols)
    assert close(system, x) <= close(system, y)


@given(systems_with_input())
def test_closure_is_union_of_subset_closures(case):
    system, x = case
    union = set()
    for zs in subsets(x):
        union |= close(system, frozenset(zs))
    assert union == close(system, x)


@given(systems_with_input())
def test_semi_naive_agrees_with_naive(case):
    system, x = case
    assert close(system, x) == close_naive(system, x)


@given(mixed_ternary_systems(max_each=3))
def test_ternary_fast_path_equals_engine(system):
    for xs in subsets(system.language.symbols):
        x = frozenset(xs)
        fast = closed_form_ternary(system, x)
        assert fast == close(system, x)
        assert fast == close_naive(system, x)


@given(mixed_binary_systems(max_each=4))
def test_binary_fast_path_equals_engine(system):
    for xs in subsets(system.language.symbols):
        x = frozenset(xs)
        fast = closed_form_binary(system, x)
        assert fast == close(system, x)
        assert fast == close_naive(system, x)


@given(mixed_ternary_systems(max_each=3))
def test_ternary_saturates_in_one_step(system):
    for xs in subsets(system.language.symbols):
        once = step(system, frozenset(xs))
        assert step(system, once) == once


def test_chain_closure_is_the_tail():
    s = [Symbol(f"s{i}", Sort.STANDARD) for i in range(12)]
    system = chain_system(s)
    for i in range(len(s)):
        tail = close(system, {s[i]})
        assert tail == set(s[i:])
        assert (tail == set(s)) == (i == 0)
