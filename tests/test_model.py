"""Construction and validation of languages, rules, systems, and the shape
recognizers."""

import copy
import gc
import operator
import pickle
import random
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings, strategies as st

from conseq import (
    BadIdentifier,
    ConseqError,
    EmptyStandardPart,
    EmptySystem,
    FrozenSymbol,
    InvalidValue,
    Language,
    LogicSystem,
    NameCollision,
    NullaryRule,
    Rule,
    Sort,
    Symbol,
    UnknownSymbol,
    chain_system,
    check_axioms,
    close,
    closed_form_binary,
    closed_form_ternary,
    is_mixed_binary,
    is_mixed_ternary,
    make_language,
    make_system,
    parse_system,
    step,
    tabulate,
    verify_closed_form_characterization,
    weight_binary,
    weight_ternary,
)
from conseq import model
from conseq.model import symbol_key
from strategies import (
    chaining_ternary_systems,
    mixed_binary_systems,
    mixed_ternary_systems,
    named_systems,
    systems,
    unscannable,
)


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


@pytest.mark.parametrize(
    "std,non,bad",
    [
        (["a1", "b-c", "d e"], [], "b-c"),
        (["a1", "b1"], ["l1", "", "m-"], ""),
        (["a1", ""], [], ""),  # joined, the names still match
        (["a1", 7, "x-"], [], 7),
        (["a1", ["b1"]], [], ["b1"]),
        (iter(["a1", "b1", "*c"]), [], "*c"),
        (["a-1"], [None], "a-1"),  # the standard names come first
    ],
)
def test_make_language_names_the_first_bad_name(std, non, bad):
    with pytest.raises(BadIdentifier) as info:
        make_language(std, non)
    assert info.value.message == f"symbol name {bad!r} does not match [A-Za-z0-9_]+"


def test_make_language_interns_what_symbol_interns():
    held = Symbol("bulk_a", Sort.STANDARD)
    lang = make_language(["bulk_a", "bulk_b", "bulk_b"], ["bulk_l"])
    assert lang.resolve("bulk_a") is held
    assert Symbol("bulk_b", Sort.STANDARD) is lang.resolve("bulk_b") and len(lang.standard_part) == 2
    assert Symbol("bulk_l", Sort.NONSTANDARD) is lang.resolve("bulk_l")
    assert model._interned("bulk_b", Sort.NONSTANDARD) is None


def interned_order(prefix, sort):
    return [name for name in model._INTERNED[sort] if name.startswith(prefix)]


def test_make_language_interns_in_name_order_as_the_parser_does():
    # fresh names enter the intern table in the order they are created
    std, non = [f"order_std_{i}" for i in range(40)], [f"order_non_{i}" for i in range(40)]
    random.Random(7).shuffle(std)
    random.Random(8).shuffle(non)
    lang = make_language(std, non)
    assert interned_order("order_std_", Sort.STANDARD) == sorted(std)
    assert interned_order("order_non_", Sort.NONSTANDARD) == sorted(non)

    parsed_std, parsed_non = [f"parse{name}" for name in std], [f"parse{name}" for name in non]
    doc = parse_system(f"standard: {' '.join(parsed_std)}\nnonstandard: {' '.join(parsed_non)}\n"
                       f"rule: {parsed_non[0]} => {parsed_std[0]}\n")
    assert interned_order("parseorder_std_", Sort.STANDARD) == sorted(parsed_std)
    assert interned_order("parseorder_non_", Sort.NONSTANDARD) == sorted(parsed_non)
    assert len(lang.symbols) == len(doc.language.symbols) == 80


def test_language_repr_lists_each_part_by_name():
    assert repr(make_language({"b1", "a1"}, {"l1"})) == "Language(standard={a1,b1}, nonstandard={l1})"


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
    assert twin is std and hash(twin) == hash(std)
    assert twin in {std} and non not in {std}
    assert table[twin] == "standard"
    assert table[Symbol("x", Sort.NONSTANDARD)] is table[non] == "nonstandard"


def test_symbol_hash_and_equality_are_objects_own_c_slots():
    # interned symbols are equal exactly when identical, so no Python-level
    # hash or comparison may come back onto the set and dict lookups
    assert Symbol.__hash__ is object.__hash__
    assert Symbol.__eq__ is object.__eq__
    assert Symbol.__ne__ is object.__ne__
    assert "__init__" not in vars(Symbol)
    # the intern tables are keyed by sort, so Sort must not hash in Python either
    assert Sort.__hash__ is object.__hash__


def test_symbol_stays_immutable_and_keeps_its_repr():
    s = Symbol("x", Sort.NONSTANDARD)
    assert repr(s) == "Symbol(name='x', sort=Sort.NONSTANDARD)" and str(s) == "x"
    for attempt in (lambda: setattr(s, "name", "y"), lambda: setattr(s, "extra", 1), lambda: delattr(s, "sort")):
        with pytest.raises(FrozenInstanceError) as info:
            attempt()
        assert isinstance(info.value, FrozenSymbol)
    assert (s.name, s.sort, s.is_standard) == ("x", Sort.NONSTANDARD, False)
    match s:
        case Symbol(name, Sort.NONSTANDARD):
            assert name == "x"
        case _:
            raise AssertionError("positional match on (name, sort) failed")
    assert Symbol(name="x", sort=Sort.NONSTANDARD) is s
    with pytest.raises(BadIdentifier):
        Symbol("x", "standard")


def test_symbol_cache_hit_runs_no_validation(monkeypatch):
    s = Symbol("x", Sort.STANDARD)

    class Refusing:
        def fullmatch(self, name):
            raise AssertionError(f"{name!r} was validated again")

    monkeypatch.setattr(model, "NAME_RE", Refusing())
    assert Symbol("x", Sort.STANDARD) is s


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy]
    + [pytest.param(lambda s, p=p: pickle.loads(pickle.dumps(s, p)), id=f"pickle{p}") for p in range(6)],
)
def test_copies_and_pickles_of_a_symbol_are_the_symbol(duplicate):
    s = Symbol("x", Sort.NONSTANDARD)
    assert duplicate(s) is s
    assert duplicate([s, s])[1] is s


def test_unreferenced_symbols_leave_the_intern_table():
    ref = weakref.ref(Symbol("gone_after_collect", Sort.STANDARD))
    gc.collect()
    assert ref() is None and model._interned("gone_after_collect", Sort.STANDARD) is None
    again = Symbol("gone_after_collect", Sort.STANDARD)
    assert again.name == "gone_after_collect" and Symbol("gone_after_collect", Sort.STANDARD) is again
    # dead entries are swept as the table grows, so it does not keep them
    table = model._INTERNED[Sort.NONSTANDARD]
    for i in range(5000):
        Symbol(f"swept{i}", Sort.NONSTANDARD)
    assert len(table) <= 2 * max(1024, sum(r() is not None for r in table.values()))
    assert all(Symbol(f"swept{i}", Sort.NONSTANDARD).name == f"swept{i}" for i in range(5000))


def test_threads_building_the_same_fresh_names_get_one_object_each():
    names = [f"threaded{i}" for i in range(3000)]
    assert all(model._interned(n, Sort.STANDARD) is None for n in names)
    start = threading.Barrier(4)
    built: list[list[Symbol]] = []

    def build():
        start.wait()
        built.append([Symbol(n, Sort.STANDARD) for n in names])

    workers = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the check-then-insert too
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and len(built) == 4
    assert all(a is b for a, *others in zip(*built) for b in others)
    assert [s.name for s in built[0]] == names


def test_parses_of_one_document_share_their_symbols():
    text = "standard: a1 b1\nnonstandard: l1\nrule: a1 l1 => b1\n"
    first, second = parse_system(text), parse_system(text)
    assert first.language.resolve("a1") is second.language.resolve("a1")
    assert first.system.rules[0] is not second.system.rules[0]
    assert first.system.rules[0].premises[1] is second.language.resolve("l1")


def test_resolve_refuses_a_name_interned_outside_the_language():
    lang = make_language({"a1"}, {"l1"})
    other = make_language({"b1", "l1x"}, {"a2"})
    # interned, but of the other sort or in another language only
    alive = [other.resolve("b1"), Symbol("a1", Sort.NONSTANDARD), Symbol("l1", Sort.STANDARD)]
    for name in ("b1", "a2", "never_interned", 7, ["a1"]):
        with pytest.raises(UnknownSymbol):
            lang.resolve(name)
    assert lang.resolve("a1").sort is Sort.STANDARD and lang.resolve("l1").sort is Sort.NONSTANDARD
    assert lang.resolve("a1") in lang and ["a1"] not in lang and "a1" not in lang
    assert not any(s in lang for s in alive)


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


def test_make_system_and_chain_system_build_only_the_kept_rules(built_rules):
    # both hand their keys, repeats and all, to the one compile, as the
    # parser does, and build no rule; the first `.rules` builds each kept
    # rule once, from its key, in canonical order
    lang = make_language({"a1", "b1"}, {"l1"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (["a1"], "b1"), (("l1", "b1", "a1"), "a1")] * 5)
    chain = chain_system([lang.resolve(n) for n in ("b1", "l1", "a1")])
    assert len(system) == 3 and len(chain) == 2 and not built_rules
    assert [str(r) for r in system.rules] == ["a1 => b1", "a1 l1 => b1", "l1 b1 a1 => a1"]
    assert all(map(operator.is_, system.rules, built_rules)) and len(built_rules) == 3
    assert system._keys == ((1, 0, 1), (2, 0, 2, 1), (3, 2, 1, 0, 0))
    assert chain._keys == ((1, 1, 2), (1, 2, 0))
    built_rules.clear()
    assert [str(r) for r in chain.rules] == ["b1 => l1", "l1 => a1"]
    assert all(map(operator.is_, chain.rules, built_rules)) and len(built_rules) == 2
    assert chain.rules is chain.rules and len(built_rules) == 2


def test_make_system_rejects_premises_given_as_one_string():
    # every character and the whole string name a symbol, so splitting the
    # string would silently build the rule a b => c
    lang = make_language({"a", "b", "c", "ab"}, set())
    with pytest.raises(InvalidValue, match="'ab' are a string"):
        make_system(lang, [("ab", "c")])


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


@given(st.one_of(systems(), named_systems()))
def test_premise_rules_hold_one_ascending_tuple_per_symbol(system):
    # every symbol id has an entry; `premise_index` shares its tuples
    assert len(system._premise_rules) == len(system._symbols)
    for s, symbol in enumerate(system._symbols):
        entry = system._premise_rules[s]
        assert entry == tuple(i for i, r in enumerate(system.rules) if symbol in r.premise_set)
        if entry:
            assert system.premise_index[symbol] is system._premise_rules[system._ids[symbol]]
        else:
            assert entry is tuple() and symbol not in system.premise_index
    assert len(system.premise_index) == sum(map(bool, system._premise_rules))


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


# Shapes beyond the two one-pass ones, where a premise after the first may
# be standard: the recognizer must test its definition, not the sorts of
# the two shapes it ships with.
EXTRA_SHAPES = {
    "plain": (("first premise", Sort.STANDARD), ("second premise", Sort.STANDARD), ("conclusion", Sort.STANDARD)),
    "anchored": (("first premise", Sort.NONSTANDARD), ("second premise", Sort.STANDARD),
                 ("conclusion", Sort.STANDARD)),
}


def test_a_premise_after_the_first_that_is_a_conclusion_refuses_any_shape(monkeypatch):
    for label, shape in EXTRA_SHAPES.items():
        monkeypatch.setitem(model._SHAPES, label, shape)
    lang = make_language({"a", "b", "c", "d"}, {"l"})
    chaining = make_system(lang, [(("a", "b"), "c"), (("a", "c"), "d")])
    check = model._mixed_shape(chaining, "plain")
    assert not check
    assert check.reason == "premise c of rule (a c => d) equals conclusion of rule (a b => c)"
    anchored = make_system(lang, [(("l", "a"), "c"), (("l", "c"), "d")])
    check = model._mixed_shape(anchored, "anchored")
    assert not check
    assert check.reason == "premise c of rule (l c => d) equals conclusion of rule (l a => c)"
    assert model._mixed_shape(make_system(lang, [(("l", "a"), "c"), (("l", "b"), "d")]), "anchored")


def breaks_shape_by_scan(system, shape):
    """Whether some rule breaks `shape` by the definition: a wrong arity, a
    position of the wrong sort, or a premise that some rule concludes."""
    conclusions = {r.conclusion for r in system.rules}
    return any(
        r.arity != len(shape)
        or any(s.sort is not sort for s, (_, sort) in zip((*r.premises, r.conclusion), shape))
        or any(p in conclusions for p in r.premises)
        for r in system.rules
    )


@st.composite
def sorted_like_a_shape(draw):
    """Systems whose rules take each position's name from the sort some
    shape gives it, or, in half of them, from either sort; one standard
    name, b0, may be both a premise and a conclusion."""
    shape = draw(st.sampled_from([*model._SHAPES.values(), *EXTRA_SHAPES.values()]))
    premises = {Sort.STANDARD: ["a0", "a1", "b0"], Sort.NONSTANDARD: ["l0", "l1"]}
    conclusions = {Sort.STANDARD: ["b0", "b1"], Sort.NONSTANDARD: ["l1"]}
    if draw(st.booleans()):
        premises = conclusions = dict.fromkeys(Sort, ["a0", "b0", "l0"])
    rule = st.tuples(st.tuples(*(st.sampled_from(premises[sort]) for _, sort in shape[:-1])),
                     st.sampled_from(conclusions[shape[-1][1]]))
    lang = make_language({"a0", "a1", "b0", "b1"}, {"l0", "l1"})
    return make_system(lang, draw(st.lists(rule, min_size=1, max_size=4)))


@settings(max_examples=300)
@given(st.one_of(systems(), sorted_like_a_shape()))
def test_every_shape_passes_exactly_the_systems_of_its_definition(system):
    with pytest.MonkeyPatch.context() as patch:
        for label, shape in EXTRA_SHAPES.items():
            patch.setitem(model._SHAPES, label, shape)
        for label, shape in model._SHAPES.items():
            check = model._mixed_shape(system, label)
            assert check.ok == (not breaks_shape_by_scan(system, shape))
            assert (check.reason is None) == check.ok


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


@given(st.one_of(systems(), mixed_ternary_systems(), mixed_binary_systems()))
def test_symbols_conclusions_and_passing_shapes_read_only_the_compiled_form(system):
    blind = unscannable(system)
    assert blind.symbols == {s for r in system.rules for s in (*r.premises, r.conclusion)}
    assert blind.conclusions == {r.conclusion for r in system.rules}
    for recognize in (is_mixed_ternary, is_mixed_binary):
        if recognize(system):
            assert recognize(blind)


@given(st.one_of(systems(), named_systems()), st.randoms(use_true_random=False))
def test_repeated_and_shuffled_rules_build_the_same_system(system, rng):
    rules = [*system.rules, *rng.choices(system.rules, k=len(system))]
    rng.shuffle(rules)
    # a generator is read once
    rebuilt = LogicSystem(system.language, (r for r in rules))
    assert rebuilt == system and rebuilt._keys == system._keys


@given(st.integers(2, 4).flatmap(lambda k: systems(max_rules=8, min_arity=k, max_arity=k)))
def test_first_premise_ids_are_sorted_in_uniform_arity_systems(system):
    # the canonical key of one arity starts with the first premise id, so
    # the rules anchored on one first premise form a single run
    firsts = system._firsts
    assert list(firsts) == sorted(firsts)
    assert firsts == tuple(system._ids[r.premises[0]] for r in system.rules)


def outcome(call):
    """The value of `call()`, or its error as class and message."""
    try:
        return call()
    except ConseqError as e:
        return type(e).__name__, str(e)


def answers(system, inputs):
    """What every reader that works on the compiled form answers for
    `system`: each value, or the error it raises."""
    pairs = [(a, b) for a in system._symbols for b in system._symbols]
    table = outcome(lambda: tabulate(system, system.language.symbols))
    return {
        "len": len(system),
        "shapes": (is_mixed_ternary(system), is_mixed_binary(system)),
        "close": [close(system, x) for x in inputs],
        "step": [step(system, x) for x in inputs],
        "ternary": [outcome(lambda: closed_form_ternary(system, x)) for x in inputs],
        "binary": [outcome(lambda: closed_form_binary(system, x)) for x in inputs],
        "first_premise_index": system._first_premise_index,
        "tabulate": table,
        "check_axioms": outcome(lambda: check_axioms(table)),
        "verify": outcome(lambda: verify_closed_form_characterization(system)),
        "weight_ternary": [outcome(lambda: weight_ternary(system, a, b)) for a, b in pairs],
        "weight_binary": [outcome(lambda: weight_binary(system, b)) for b in system._symbols],
    }


@settings(max_examples=60)
@given(st.one_of(systems(), mixed_ternary_systems(), mixed_binary_systems(), chaining_ternary_systems()))
def test_every_compiled_reader_answers_without_the_rules(system):
    # a copy whose `rules` cannot be walked answers as the system does:
    # refused shape checks build only the rules their reasons name
    blind = unscannable(system)
    assert blind == system and hash(blind) == hash(system) and len(blind) == len(system)
    symbols = sorted(system.language.symbols, key=symbol_key)
    inputs = [frozenset(), frozenset(symbols), *({s} for s in symbols), *(r.premise_set for r in system.rules)]
    assert answers(blind, inputs) == answers(system, inputs)
    assert is_mixed_ternary(blind).reason == ternary_reason_by_scan(system)
    assert is_mixed_binary(blind).reason == binary_reason_by_scan(system)
    assert blind._first_premise_index == first_premise_index_by_scan(system)


def first_premise_index_by_scan(system):
    """`_first_premise_index` rebuilt from the rules: under its first
    premise, a rule of at most two distinct premises is (other premise,
    conclusion), with the first premise again for one distinct premise,
    and any other rule (premise set, conclusion)."""
    pairs, wide = {}, {}
    for r in system.rules:
        first = r.premises[0]
        if len(r.premise_set) <= 2:
            other = next((p for p in r.premises if p != first), first)
            pairs.setdefault(first, []).append((other, r.conclusion))
        else:
            wide.setdefault(first, []).append((r.premise_set, r.conclusion))
    return {s: tuple(v) for s, v in pairs.items()}, {s: tuple(v) for s, v in wide.items()}


COPIED = {
    "ternary": "standard: a1 a2 b1\nnonstandard: l1 l2\nrule: a2 l1 => b1\nrule: a1 l2 => b1\nrule: a1 l1 => b1\n",
    "chaining": "standard: a1 b1\nnonstandard: l1\nrule: a1 => l1\nrule: l1 a1 => b1\nrule: b1 => a1\n",
}


@pytest.mark.parametrize("text", COPIED.values(), ids=COPIED)
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy]
    + [pytest.param(lambda s, p=p: pickle.loads(pickle.dumps(s, p)), id=f"pickle{p}") for p in range(6)],
)
def test_copies_and_pickles_of_a_system_are_equal_systems(text, duplicate):
    for warm in False, True:
        system = parse_system(text).system
        if warm:  # the memoized forms travel too
            system.rules, system.ternary_shape, system._first_premise_index
        twin = duplicate(system)
        assert twin == system and hash(twin) == hash(system)
        assert twin.rules == system.rules and twin._keys == system._keys
        inputs = [frozenset(), *({s} for s in system._symbols), *(r.premise_set for r in system.rules)]
        assert answers(twin, inputs) == answers(system, inputs)


def test_a_system_shows_and_compares_its_language_and_keys():
    system = parse_system(COPIED["chaining"]).system
    assert repr(system) == "LogicSystem(language=Language(standard={a1,b1}, nonstandard={l1}))"
    assert [f.name for f in fields(LogicSystem)] == ["language", "_keys"]
    assert system._keys == ((1, 0, 2), (1, 1, 0), (2, 2, 0, 1))
    assert system != make_system(system.language, [(("a1",), "l1")])
