"""Extensional tables, the four closure-operator laws, and the one-pass
characterization check.

Tables generated by `tabulate` always satisfy the laws, so the failure
branches are exercised with hand-built violating tables; every reported
witness is re-checked against the table it came from.
"""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conseq import (
    LanguageMismatch,
    OperatorTable,
    PreconditionViolated,
    Sort,
    Symbol,
    UniverseIncomplete,
    UniverseMismatch,
    UniverseTooLarge,
    check_axioms,
    close,
    close_naive,
    equivalent,
    make_language,
    make_system,
    tabulate,
    verify_closed_form_characterization,
)
from strategies import mixed_ternary_systems, systems

X = Symbol("x", Sort.STANDARD)
Y = Symbol("y", Sort.STANDARD)
Z = Symbol("z", Sort.STANDARD)


def result_by_law(report, law):
    return next(r for r in report if r.law == law)


@pytest.fixture
def binary_pair():
    lang = make_language({"b1"}, {"l1"})
    return lang, make_system(lang, [(("l1",), "b1")])


def test_tabulate_single_rule(binary_pair):
    lang, system = binary_pair
    table = tabulate(system, lang.symbols)
    assert len(table.images) == 4
    l1, b1 = lang.resolve("l1"), lang.resolve("b1")
    assert table.image({l1}) == {l1, b1}
    assert table.image(frozenset()) == frozenset()


def test_tabulate_agrees_with_close_everywhere(binary_pair):
    lang, system = binary_pair
    table = tabulate(system, lang.symbols)
    for subset in table.subsets():
        assert table.image(subset) == close(system, subset)


def test_tabulate_requires_covering_universe(binary_pair):
    lang, system = binary_pair
    with pytest.raises(UniverseIncomplete):
        tabulate(system, {lang.resolve("l1")})


def test_tabulate_rejects_large_universe():
    names = [f"s{i:02d}" for i in range(17)]
    lang = make_language(names, set())
    system = make_system(lang, [((names[0],), names[1])])
    with pytest.raises(UniverseTooLarge):
        tabulate(system, lang.symbols)


def test_tabulate_rejects_foreign_universe_symbols(binary_pair):
    lang, system = binary_pair
    foreign = Symbol("other", Sort.STANDARD)
    with pytest.raises(LanguageMismatch):
        tabulate(system, set(lang.symbols) | {foreign})


def test_table_validates_universe_order_and_images():
    with pytest.raises(ValueError):
        OperatorTable((Y, X), (0, 1, 2, 3))
    with pytest.raises(ValueError):
        OperatorTable((X,), (0, 4))
    with pytest.raises(ValueError):
        OperatorTable((X,), (0,))


@pytest.mark.parametrize(
    "images, mask", [((4, 1, 2, 3), 0), ((0, 1, 2, -1), 3), ((0, -1, 9, 3), 1)]
)
def test_table_names_the_first_image_outside_the_universe(images, mask):
    with pytest.raises(ValueError, match=f"^image of mask {mask} leaves the universe$"):
        OperatorTable((X, Y), images)


def test_subsets_enumerated_in_bitmask_order():
    table = OperatorTable.from_function((X, Y), lambda s: s)
    assert list(table.subsets()) == [
        frozenset(),
        frozenset({X}),
        frozenset({Y}),
        frozenset({X, Y}),
    ]


def test_from_function_rejects_escaping_images():
    with pytest.raises(ValueError):
        OperatorTable.from_function((X,), lambda s: {Y})


def test_image_lookup_rejects_foreign_symbols():
    table = OperatorTable.from_function((X,), lambda s: s)
    with pytest.raises(ValueError, match="outside the universe"):
        table.image({Y})


def test_identity_table_passes_all_laws():
    table = OperatorTable.from_function((X, Y, Z), lambda s: s)
    report = check_axioms(table)
    assert report.ok
    assert [r.law for r in report] == [
        "insertion",
        "idempotence",
        "monotonicity",
        "finitary",
    ]


def test_insertion_failure_has_witness():
    table = OperatorTable.from_function((X,), lambda s: frozenset())
    report = check_axioms(table)
    result = result_by_law(report, "insertion")
    assert not result.passed
    assert result.witness == (frozenset({X}),)
    assert not report.ok
    assert result in report.failures


def test_idempotence_failure_has_witness():
    grow = {
        frozenset(): frozenset({X}),
        frozenset({X}): frozenset({X, Y}),
        frozenset({Y}): frozenset({Y}),
        frozenset({X, Y}): frozenset({X, Y}),
    }
    table = OperatorTable.from_function((X, Y), grow.__getitem__)
    result = result_by_law(check_axioms(table), "idempotence")
    assert not result.passed
    (witness,) = result.witness
    assert table.image(table.image(witness)) != table.image(witness)


def test_monotonicity_and_finitary_failures_have_witnesses():
    def drift(s):
        return frozenset({X, Z}) if s == frozenset({X}) else s

    table = OperatorTable.from_function((X, Y, Z), drift)
    report = check_axioms(table)

    mono = result_by_law(report, "monotonicity")
    assert not mono.passed
    small, big = mono.witness
    assert small < big
    assert not table.image(small) <= table.image(big)
    assert mono.checked == 4
    assert mono.witness == (frozenset({X}), frozenset({X, Y}))

    fin = result_by_law(report, "finitary")
    assert not fin.passed
    whole, part = fin.witness
    assert part < whole
    assert not table.image(part) <= table.image(whole)
    assert fin.checked == 4
    assert fin.witness == (frozenset({X, Y}), frozenset({X}))


def test_laws_on_the_smallest_universes():
    def rows(table):
        return [(r.law, r.passed, r.checked, r.witness) for r in check_axioms(table)]

    assert rows(OperatorTable.from_function((), lambda s: s)) == [
        ("insertion", True, 1, None),
        ("idempotence", True, 1, None),
        ("monotonicity", True, 0, None),
        ("finitary", True, 1, None),
    ]
    assert rows(OperatorTable.from_function((X,), lambda s: s)) == [
        ("insertion", True, 2, None),
        ("idempotence", True, 2, None),
        ("monotonicity", True, 1, None),
        ("finitary", True, 2, None),
    ]
    flip = OperatorTable.from_function((X,), lambda s: frozenset() if s else {X})
    empty, x = frozenset(), frozenset({X})
    assert rows(flip) == [
        ("insertion", False, 2, (x,)),
        ("idempotence", False, 2, (empty,)),
        ("monotonicity", False, 1, (empty, x)),
        ("finitary", False, 2, (x, empty)),
    ]


W = tuple(Symbol(name, Sort.STANDARD) for name in "wxyz")
W_SUBSETS = [frozenset(s for i, s in enumerate(W) if m >> i & 1) for m in range(16)]


@st.composite
def w_tables(draw):
    """Image masks of an arbitrary table over W, or of a monotone one with a
    single entry changed, so that a first failure can sit at any subset."""
    images = draw(st.lists(st.integers(0, 15), min_size=16, max_size=16))
    if draw(st.booleans()):
        images = [
            functools.reduce(operator.or_, (images[z] for z in range(m + 1) if z & m == z))
            for m in range(16)
        ]
        images[draw(st.integers(0, 15))] ^= 1 << draw(st.integers(0, 3))
    return images


@given(w_tables())
def test_monotonicity_and_finitary_verdicts_match_their_definitions(images):
    image = {x: W_SUBSETS[im] for x, im in zip(W_SUBSETS, images)}
    report = check_axioms(OperatorTable.from_function(W, image.__getitem__))

    # monotonicity holds iff images nest on every pair X within Y; the check
    # walks covering pairs (X, X + {a}), X in bitmask order, a in universe order
    mono = result_by_law(report, "monotonicity")
    assert mono.passed == all(image[x] <= image[y] for x in W_SUBSETS for y in W_SUBSETS if x <= y)
    pairs = [(x, x | {a}) for x in W_SUBSETS for a in W if a not in x]
    bad = [i for i, (x, y) in enumerate(pairs) if not image[x] <= image[y]]
    assert mono.checked == (bad[0] + 1 if bad else len(pairs))
    assert mono.witness == (pairs[bad[0]] if bad else None)

    # finitary: T(X) is the union of T(Z) over all Z within X; the witness
    # pairs the first failing X with its first subset whose image escapes T(X)
    fin = result_by_law(report, "finitary")
    bad = [
        x for x in W_SUBSETS
        if image[x] != frozenset().union(*(image[z] for z in W_SUBSETS if z <= x))
    ]
    assert fin.passed == (not bad)
    assert fin.checked == (W_SUBSETS.index(bad[0]) + 1 if bad else 16)
    if bad:
        part = next(z for z in W_SUBSETS if z <= bad[0] and not image[z] <= image[bad[0]])
        assert fin.witness == (bad[0], part)
    else:
        assert fin.witness is None


@given(systems(max_symbols=6))
def test_tabulate_matches_the_naive_oracle(system):
    table = tabulate(system, system.language.symbols)
    for subset in table.subsets():
        assert table.image(subset) == close_naive(system, subset)


@given(systems(max_symbols=6))
def test_generated_tables_satisfy_all_laws(system):
    report = check_axioms(tabulate(system, system.language.symbols))
    assert report.ok, [str(r) for r in report.failures]


def test_equivalent_tables():
    table = OperatorTable.from_function((X, Y), lambda s: s)
    assert equivalent(table, table).equal

    def bump(s):
        return s | {Y} if s == frozenset({X}) else s

    other = OperatorTable.from_function((X, Y), bump)
    cmp = equivalent(table, other)
    assert not cmp.equal
    assert cmp.witness == frozenset({X})


def test_equivalent_requires_same_universe():
    t1 = OperatorTable.from_function((X,), lambda s: s)
    t2 = OperatorTable.from_function((Y,), lambda s: s)
    with pytest.raises(UniverseMismatch):
        equivalent(t1, t2)


def test_characterization_passes_two_rule_example():
    lang = make_language({"a1", "a2", "b1", "b2"}, {"l1", "l2"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (("a2", "l2"), "b2")])
    report = verify_closed_form_characterization(system)
    assert report.ok
    by_law = {r.law: r for r in report}
    # the forward clauses partition the 2^6 subsets of the rule symbols
    assert by_law["no-match-fixed"].checked + by_law["match-union"].checked == 64
    assert by_law["closed-form-agreement"].checked == 64


def test_characterization_single_rule_values():
    lang = make_language({"a1", "b1"}, {"l1"})
    system = make_system(lang, [(("a1", "l1"), "b1")])
    assert verify_closed_form_characterization(system).ok
    a1, l1, b1 = lang.resolve("a1"), lang.resolve("l1"), lang.resolve("b1")
    assert close(system, {a1, l1}) == {a1, l1, b1}


def test_characterization_requires_mixed_ternary():
    lang = make_language({"a1", "b1", "b2"}, {"l1", "l2"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (("b1", "l2"), "b2")])
    with pytest.raises(PreconditionViolated):
        verify_closed_form_characterization(system)


def test_characterization_respects_universe_cap():
    firsts = [f"a{i}" for i in range(6)]
    concs = [f"b{i}" for i in range(6)]
    mids = [f"l{i}" for i in range(6)]
    lang = make_language(firsts + concs, mids)
    system = make_system(
        lang, [((firsts[i], mids[i]), concs[i]) for i in range(6)]
    )
    assert len(system.symbols) == 18
    with pytest.raises(UniverseTooLarge):
        verify_closed_form_characterization(system)


def test_characterization_handles_shared_premise_pairs():
    lang = make_language({"a1", "b1", "b2"}, {"l1"})
    system = make_system(lang, [(("a1", "l1"), "b1"), (("a1", "l1"), "b2")])
    report = verify_closed_form_characterization(system)
    assert report.ok, [str(r) for r in report.failures]
    a1, l1 = lang.resolve("a1"), lang.resolve("l1")
    assert close(system, {a1, l1}) == set(lang.symbols)


@settings(max_examples=50)
@given(mixed_ternary_systems())
def test_characterization_passes_on_random_systems(system):
    report = verify_closed_form_characterization(system)
    assert report.ok, [str(r) for r in report.failures]

    n = len(system.symbols)
    by_law = {r.law: r.checked for r in report}
    pairs = n * 2 ** (n - 1)
    assert by_law["matched-count"] == pairs
    assert by_law["closed-form-monotonicity"] == pairs
    assert by_law["closed-form-agreement"] == 2 ** n
    assert by_law["no-match-fixed"] + by_law["match-union"] == 2 ** n
    assert by_law["premise-set-values"] == len(system)


@settings(max_examples=50)
@given(mixed_ternary_systems(max_each=3))
def test_matched_counts_monotone_and_bounded(system):
    pool = sorted(system.language.symbols, key=lambda s: s.name)

    def matched(members):
        return sum(1 for r in system.rules if r.premise_set <= members)

    full = frozenset(pool)
    assert matched(full) <= len(system)
    for i, s in enumerate(pool):
        without = full - {s}
        assert matched(without) <= matched(full)
