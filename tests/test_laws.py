"""Extensional tables, the four closure-operator laws, and the one-pass
characterization check.

Tables generated by `tabulate` always satisfy the laws, so the failure
branches are exercised with hand-built violating tables; every reported
witness is re-checked against the table it came from.
"""

import functools
import itertools
import json
import operator
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conseq import (
    LanguageMismatch,
    OperatorTable,
    PreconditionViolated,
    ShapeCheck,
    Sort,
    Symbol,
    UniverseIncomplete,
    UniverseMismatch,
    UniverseTooLarge,
    check_axioms,
    close,
    equivalent,
    make_language,
    make_system,
    parse_system,
    render_system,
    step,
    tabulate,
    verify_closed_form_characterization,
)
from conseq import laws
from conseq.laws import _covering_pairs, _is_monotone, _lanes, _step_table, _subset_or, _unlanes
from strategies import chaining_ternary_systems, mixed_ternary_systems, scan_close, systems

X = Symbol("x", Sort.STANDARD)
Y = Symbol("y", Sort.STANDARD)
Z = Symbol("z", Sort.STANDARD)
U9 = tuple(Symbol(f"u{i}", Sort.STANDARD) for i in range(9))


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
    # the cap is checked first, so no images of size 2^17 are needed
    with pytest.raises(UniverseTooLarge):
        OperatorTable(tuple(Symbol(f"s{i:02d}", Sort.STANDARD) for i in range(17)), ())


def test_table_stores_its_images_as_a_tuple():
    table = OperatorTable((X, Y), [0, 1, 2, 3])
    assert table.images == (0, 1, 2, 3)
    assert check_axioms(table).ok


@pytest.mark.parametrize(
    "images, mask", [((4, 1, 2, 3), 0), ((0, 1, 2, -1), 3), ((0, -1, 9, 3), 1)]
)
def test_table_names_the_first_image_outside_the_universe(images, mask):
    with pytest.raises(ValueError, match=f"^image of mask {mask} leaves the universe$"):
        OperatorTable((X, Y), images)


@pytest.mark.parametrize("n", [3, 8, 9, 15, 16])
def test_an_image_reaching_bit_n_is_refused_whatever_its_lane(n):
    # 2^n fits the 16-bit lane up to 15 symbols, where it sets the lane's
    # top bit, and overflows it at 16
    images = list(range(1 << n))
    images[5] = 1 << n
    with pytest.raises(ValueError, match="^image of mask 5 leaves the universe$"):
        OperatorTable(tuple(Symbol(f"u{i:02d}", Sort.STANDARD) for i in range(n)), images)


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
    assert report.ok and bool(report) is True
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
    assert not report.ok and bool(report) is False
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


@st.composite
def small_tables(draw):
    """n from 0 to 9, so that images take 8-bit and 16-bit lanes, and the
    image masks of a table over n symbols: arbitrary, or the identity with
    a few entries replaced or grown, so that a first failure of insertion
    or idempotence can sit at any subset."""
    n = draw(st.integers(0, 9))
    mask = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        return n, draw(st.lists(mask, min_size=1 << n, max_size=1 << n))
    images = list(range(1 << n))
    for m, im, grow in draw(st.lists(st.tuples(mask, mask, st.booleans()), max_size=4)):
        images[m] = images[m] | im if grow else im
    return n, images


@given(small_tables())
def test_insertion_and_idempotence_verdicts_match_their_definitions(case):
    n, images = case
    subsets = [frozenset(s for i, s in enumerate(U9[:n]) if m >> i & 1) for m in range(1 << n)]
    image = {x: subsets[im] for x, im in zip(subsets, images)}
    report = check_axioms(OperatorTable(U9[:n], images))

    # insertion: X lies within T(X); idempotence: T(T(X)) = T(X).  Both
    # check every subset, and a failure names the first in bitmask order
    for law, holds in (("insertion", lambda x: x <= image[x]), ("idempotence", lambda x: image[image[x]] == image[x])):
        result = result_by_law(report, law)
        bad = [x for x in subsets if not holds(x)]
        assert (result.passed, result.checked, result.witness) == (not bad, 1 << n, (bad[0],) if bad else None)


@given(systems(max_symbols=6))
def test_tabulate_matches_the_naive_oracle(system):
    table = tabulate(system, system.language.symbols)
    for subset in table.subsets():
        assert table.image(subset) == scan_close(system, subset)


@given(systems(max_symbols=6))
def test_generated_tables_satisfy_all_laws(system):
    report = check_axioms(tabulate(system, system.language.symbols))
    assert report.ok, [str(r) for r in report.failures]


def test_equivalent_tables():
    table = OperatorTable.from_function((X, Y), lambda s: s)
    assert equivalent(table, table).equal and bool(equivalent(table, table)) is True

    def bump(s):
        return s | {Y} if s == frozenset({X}) else s

    other = OperatorTable.from_function((X, Y), bump)
    cmp = equivalent(table, other)
    assert not cmp.equal and bool(cmp) is False
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


@pytest.mark.parametrize(
    "rules, first_fail",
    [
        # b fires from {a, l} and chains into c: the first matched mask fails
        ([(("a", "l"), "b"), (("b", "l"), "c")], ("a", "l")),
        # {a, l} fires c, which chains nowhere; {b, l} fires a, which chains
        # into c: the second matched mask is the first to fail
        ([(("a", "l"), "c"), (("b", "l"), "a")], ("b", "l")),
    ],
)
def test_characterization_rows_on_a_chaining_system(rules, first_fail):
    # with the shape guard bypassed, one pass is not a fixpoint.  Universe
    # a, b, c, l (bits 0-3); premise sets {a, l} = 9 and {b, l} = 10 match
    # 6 of the 16 masks; covering pairs number 4 * 2^3 = 32.
    lang = make_language({"a", "b", "c"}, {"l"})
    system = make_system(lang, rules)
    assert not system.ternary_shape
    vars(system)["ternary_shape"] = ShapeCheck(True)
    witness = (frozenset(map(lang.resolve, first_fail)),)
    rows = [(r.law, r.passed, r.checked, r.witness) for r in verify_closed_form_characterization(system)]
    assert rows == [
        ("no-match-fixed", True, 10, None),
        ("match-union", False, 6, witness),
        ("premise-set-values", False, 2, witness),
        ("matched-count", True, 32, None),
        ("closed-form-agreement", False, 16, witness),
        ("closed-form-insertion", True, 16, None),
        ("closed-form-idempotence", False, 16, witness),
        ("closed-form-monotonicity", True, 32, None),
        ("closed-form-finitary", True, 16, None),
    ]


def test_premise_set_values_names_the_first_failing_rule_not_the_first_mask():
    # guard bypassed.  Universe a, b, c, d, l, m (bits 0-5).  {a, m} = 33
    # fires b and c, and c chains into d through {c, m}; {b, l} = 18 fires
    # c, which chains into d through {c, l}.  Both premise sets fail, and
    # the rules of {a, m} come first in rule order although its mask is the
    # larger: premise-set-values names {a, m} and counts all five rules,
    # repeats included, while match-union walks masks and names {b, l}.
    lang = make_language({"a", "b", "c", "d"}, {"l", "m"})
    system = make_system(lang, [
        (("c", "m"), "d"), (("b", "l"), "c"), (("a", "m"), "c"), (("c", "l"), "d"), (("a", "m"), "b"),
    ])
    vars(system)["ternary_shape"] = ShapeCheck(True)
    by_law = {r.law: r for r in verify_closed_form_characterization(system)}
    am, bl = (frozenset(map(lang.resolve, names)) for names in ("am", "bl"))
    assert [str(rule) for rule in system.rules][:3] == ["a m => b", "a m => c", "b l => c"]
    assert (by_law["premise-set-values"].witness, by_law["premise-set-values"].checked) == ((am,), 5)
    assert by_law["match-union"].witness == (bl,)


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


def verify_with_engine(system):
    """verify's report, and the engine table that its rows compare with the
    one-pass table, taken from its calls to `_agreement`."""
    with mock.patch.object(laws, "_agreement", wraps=laws._agreement) as spy:
        report = verify_closed_form_characterization(system)
    tables = {c.args[0]: c.args[1:3] for c in spy.call_args_list}
    engine, one_pass = tables["closed-form-agreement"]
    for law in "no-match-fixed", "match-union", "premise-set-values":
        assert tables[law][0] is engine and tables[law][1] == one_pass
    return report, engine


def all_subsets(symbols):
    return [frozenset(c) for k in range(len(symbols) + 1) for c in itertools.combinations(symbols, k)]


@settings(max_examples=50)
@given(mixed_ternary_systems())
def test_verify_engine_table_and_counts_match_independent_references(system):
    report, engine = verify_with_engine(system)
    assert set(engine.universe) == system.symbols
    assert engine.images == tabulate(system, engine.universe).images
    # a subset is matched when it contains some rule's premise set
    subsets = all_subsets(engine.universe)
    matched = sum(any(r.premise_set <= x for r in system.rules) for x in subsets)
    by_law = {r.law: r.checked for r in report}
    assert by_law["match-union"] == matched
    assert by_law["no-match-fixed"] == len(subsets) - matched


def breaks(system, law, witness):
    """Whether `witness` breaks verify's `law`, re-checked with `close` and
    `step` on subsets of symbols rather than on masks."""
    premise_sets = {r.premise_set for r in system.rules}
    x, *rest = witness

    def matched(z):
        return {p for p in premise_sets if p <= z}

    def covers(z):  # z is x plus one symbol
        return x < z and len(z - x) == 1

    engine_differs = close(system, x) != step(system, x)
    checks = {
        "no-match-fixed": lambda: not matched(x) and close(system, x) != x,
        "match-union": lambda: bool(matched(x)) and engine_differs,
        "premise-set-values": lambda: x in premise_sets and engine_differs,
        "matched-count": lambda: covers(rest[0]) and not matched(x) <= matched(rest[0]),
        "closed-form-agreement": lambda: engine_differs,
        "closed-form-insertion": lambda: not x <= step(system, x),
        "closed-form-idempotence": lambda: step(system, step(system, x)) != step(system, x),
        "closed-form-monotonicity": lambda: covers(rest[0]) and not step(system, x) <= step(system, rest[0]),
        "closed-form-finitary": lambda: rest[0] <= x and not step(system, rest[0]) <= step(system, x),
    }
    return checks[law]()


@settings(max_examples=50)
@given(chaining_ternary_systems())
def test_failing_rows_on_chaining_systems_name_witnesses_that_break_their_law(system):
    # guard bypassed: the engine table is the fixpoints of the one-pass
    # table, which only a chaining system makes differ from it
    vars(system)["ternary_shape"] = ShapeCheck(True)
    report, engine = verify_with_engine(system)
    # `scan_close`, not tabulate: the engine may be tabulate's table
    subsets = all_subsets(engine.universe)
    assert all(engine.image(x) == scan_close(system, x) for x in subsets)
    one_pass_is_closure = all(close(system, x) == step(system, x) for x in subsets)
    assert result_by_law(report, "closed-form-agreement").passed == one_pass_is_closure
    # close(X) is X when no premise set lies inside X, chaining or not
    assert result_by_law(report, "no-match-fixed").passed
    for row in report.failures:
        assert breaks(system, row.law, row.witness), str(row)


def pair_system(n_pairs):
    """A system, shape check bypassed, over s00..s11 and c whose rules
    `si sj => c` have the first `n_pairs` of the 66 pairs as premise sets."""
    names = [f"s{i:02d}" for i in range(12)]
    pairs = list(itertools.combinations(names, 2))[:n_pairs]
    system = make_system(make_language(names + ["c"], ["l"]), [(p, "c") for p in pairs])
    vars(system)["ternary_shape"] = ShapeCheck(True)
    return system


def test_characterization_reports_on_all_66_premise_sets_of_a_bypassed_system():
    # the matched table holds the union of the premise sets inside each
    # mask, so any number of premise sets fits its lane
    system = pair_system(66)
    report = verify_closed_form_characterization(system)
    by_law = {r.law: r for r in report}
    assert report.ok and by_law["premise-set-values"].checked == 66
    # a subset is matched when it holds some pair
    subsets = all_subsets(sorted(system.symbols, key=lambda s: s.name))
    matched = sum(any(r.premise_set <= x for r in system.rules) for x in subsets)
    assert by_law["match-union"].checked == matched
    assert by_law["no-match-fixed"].checked == len(subsets) - matched


@st.composite
def premise_set_lists(draw):
    """n <= 6 and a list of nonempty premise sets over n symbols, as masks."""
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(st.integers(1, (1 << n) - 1), max_size=8))


@settings(max_examples=50)
@given(premise_set_lists())
def test_union_of_matched_premise_sets_orders_masks_as_the_matched_sets_do(case):
    # M(m), the premise sets inside m, lies within M(m') exactly when their
    # union U(m) lies within U(m'); U(m) is nonzero exactly when M(m) is
    n, premise_sets = case
    union = _unlanes(_subset_or(n, ((p, p) for p in premise_sets)), 1 << n)
    inside = [{p for p in premise_sets if p & m == p} for m in range(1 << n)]
    assert [bool(u) for u in union] == [bool(ps) for ps in inside]
    for m, m2 in itertools.product(range(1 << n), repeat=2):
        assert (inside[m] <= inside[m2]) == (union[m] & ~union[m2] == 0)


@settings(max_examples=50)
@given(premise_set_lists(), st.data())
def test_step_table_is_the_identity_on_masks_that_match_no_premise_set(case, data):
    # verify's no-match-fixed row reads the one-pass table as X on these masks
    n, premise_sets = case
    rule_masks = [(p, 1 << data.draw(st.integers(0, n - 1))) for p in premise_sets]
    one_pass = _unlanes(_step_table(n, rule_masks), 1 << n)
    for m in range(1 << n):
        if not any(p & m == p for p in premise_sets):
            assert one_pass[m] == m


# value widths inside the one 16-bit lane, up to its top bit, bit 15
WIDTHS = [0, 1, 8, 9, 15, 16]


@st.composite
def subset_seeds(draw):
    """(n, pairs) for `_subset_or`: a key on every mask (dense) or a few
    keys (sparse), with the widest value exactly `width` bits wide."""
    n = draw(st.integers(0, 6))
    width = draw(st.sampled_from(WIDTHS))
    full = 1 << n
    value = st.integers(0, (1 << width) - 1)
    if draw(st.booleans()):
        keys = list(range(full))
    else:
        keys = draw(st.lists(st.integers(0, full - 1), max_size=4))
    pairs = [(k, draw(value)) for k in keys]
    if width:
        pairs.append((draw(st.integers(0, full - 1)), 1 << (width - 1)))
    return n, pairs


def subset_or_by_definition(n, pairs):
    return [
        functools.reduce(operator.or_, (v for k, v in pairs if k & m == k), 0)
        for m in range(1 << n)
    ]


def subset_or(n, pairs):
    """`_subset_or` unpacked."""
    return _unlanes(_subset_or(n, pairs), 1 << n)


def covering_pairs_of(n):
    return [(m, m | 1 << i) for m in range(1 << n) for i in range(n) if not m >> i & 1]


def covering_verdict(n, values):
    """`_covering_pairs` on `values` over a table of n symbols, as (pairs
    checked, the failing pair of masks or None)."""
    table = OperatorTable(tuple(Symbol(f"u{i}", Sort.STANDARD) for i in range(n)), range(1 << n))
    result = _covering_pairs("law", table, _lanes(values))
    pair = result.witness and tuple(map(table.mask_of, result.witness))
    assert result.law == "law" and result.passed == (pair is None)
    return result.checked, pair


@given(subset_seeds())
def test_subset_transform_matches_its_definition(case):
    n, pairs = case
    out = subset_or(n, pairs)
    assert out == subset_or_by_definition(n, pairs)
    # inflationary on its seeds, monotone, and equal to its own union
    assert all(out[k] & v == v for k, v in pairs)
    assert all(out[m] & ~out[w] == 0 for m, w in covering_pairs_of(n))
    assert _is_monotone(n, _lanes(out))
    assert subset_or(n, enumerate(out)) == out


@st.composite
def lane_tables(draw):
    """n and a table of values up to `width` bits: arbitrary, or monotone
    with one bit of one entry cleared, so that a failure can sit on any
    covering pair and in any bit of a lane."""
    n, pairs = draw(subset_seeds())
    values = subset_or_by_definition(n, pairs)
    if draw(st.booleans()):
        m = draw(st.integers(0, (1 << n) - 1))
        if values[m]:
            # the highest bit or any other
            bits = [i for i in reversed(range(values[m].bit_length())) if values[m] >> i & 1]
            values[m] &= ~(1 << draw(st.sampled_from(bits)))
    elif draw(st.booleans()):
        top = max(values).bit_length()
        values = draw(st.lists(st.integers(0, (1 << top) - 1), min_size=1 << n, max_size=1 << n))
    return n, values


@given(lane_tables())
def test_lane_monotonicity_test_matches_its_definition(case):
    n, values = case
    pairs = covering_pairs_of(n)
    bad = [i for i, (m, w) in enumerate(pairs) if values[m] & ~values[w]]
    assert _is_monotone(n, _lanes(values)) == (not bad)
    assert covering_verdict(n, values) == ((bad[0] + 1, pairs[bad[0]]) if bad else (len(pairs), None))


@pytest.mark.parametrize("width", WIDTHS[1:])
@pytest.mark.parametrize("n", [1, 4, 6])
def test_lane_monotonicity_test_reads_the_top_bit_of_every_width(n, width):
    # only the widest bit is set, in every lane but the last, so every
    # failing pair ends at the full mask
    full = 1 << n
    values = [1 << (width - 1)] * (full - 1) + [0]
    pairs = covering_pairs_of(n)
    first = next(i for i, (m, w) in enumerate(pairs) if values[m] & ~values[w])
    assert not _is_monotone(n, _lanes(values))
    assert covering_verdict(n, values) == (first + 1, pairs[first])
    values[-1] = values[0]
    assert _is_monotone(n, _lanes(values))


def law_rows(n, images):
    universe = tuple(Symbol(f"s{i:02d}", Sort.STANDARD) for i in range(n))
    return {r.law: (r.passed, r.checked, r.witness) for r in check_axioms(OperatorTable(universe, tuple(images)))}


def named(*indices):
    return frozenset(Symbol(f"s{i:02d}", Sort.STANDARD) for i in indices)


@pytest.mark.parametrize("n, checked", [(5, 49), (16, 278529)])
def test_only_failure_on_bit_zero_mid_walk(n, checked):
    # the identity except T({s0, top}) = {s0}: only ({top}, {s0, top}) fails;
    # checked = pairs of every m below top, n*2^(n-1) - (n-1)*2^(n-2), plus one
    top = n - 1
    images = list(range(1 << n))
    images[1 | 1 << top] = 1
    rows = law_rows(n, images)
    assert rows["monotonicity"] == (False, checked, (named(top), named(0, top)))
    assert rows["finitary"] == (False, (1 << top) + 2, (named(0, top), named(top)))
    assert rows["insertion"] == (False, 1 << n, (named(0, top),))
    assert rows["idempotence"] == (True, 1 << n, None)


@pytest.mark.parametrize("n", [5, 16])
def test_only_failure_on_bit_zero_at_the_last_pair(n):
    # empty images except T(all but s0) = {s0}: only the very last covering
    # pair fails, so every pair is checked
    images = [0] * (1 << n)
    images[-2] = 1
    rest = named(*range(1, n))
    rows = law_rows(n, images)
    assert rows["monotonicity"] == (False, n << (n - 1), (rest, named(*range(n))))
    assert rows["finitary"] == (False, 1 << n, (named(*range(n)), rest))
    assert rows["insertion"] == (False, 1 << n, (named(0),))
    assert rows["idempotence"] == (False, 1 << n, (rest,))


@pytest.mark.parametrize("n, checked", [(5, 48), (16, 278528)])
def test_only_failure_on_the_top_bit_at_its_last_pair(n, checked):
    # empty images except T(all but the top symbol) = {s0}: only the pair
    # (all but top, all) fails, which is the last pair on the top bit
    images = [0] * (1 << n)
    images[(1 << (n - 1)) - 1] = 1
    low = named(*range(n - 1))
    rows = law_rows(n, images)
    assert rows["monotonicity"] == (False, checked, (low, named(*range(n))))
    assert rows["finitary"] == (False, 1 << n, (named(*range(n)), low))
    assert rows["insertion"] == (False, 1 << n, (named(0),))
    assert rows["idempotence"] == (False, 1 << n, (low,))


def test_characterization_on_sixteen_symbols_with_150_rules():
    # every (a, l, b) triple: 150 rules share 25 premise sets, whose unions
    # the matched table holds, while premise-set-values walks all 150 rules
    lang = make_language([f"a{i}" for i in range(5)] + [f"b{i}" for i in range(6)], [f"l{i}" for i in range(5)])
    triples = [((f"a{a}", f"l{l}"), f"b{b}") for a in range(5) for l in range(5) for b in range(6)]
    system = make_system(lang, triples)
    rows = [(r.law, r.passed, r.checked) for r in verify_closed_form_characterization(system)]
    # no rule matches a subset with no a or no l: 2^6 * (2^5 + 2^5 - 1) of them
    assert rows == [
        ("no-match-fixed", True, 4032),
        ("match-union", True, 65536 - 4032),
        ("premise-set-values", True, 150),
        ("matched-count", True, 16 << 15),
        ("closed-form-agreement", True, 65536),
        ("closed-form-insertion", True, 65536),
        ("closed-form-idempotence", True, 65536),
        ("closed-form-monotonicity", True, 16 << 15),
        ("closed-form-finitary", True, 65536),
    ]


def test_characterization_at_the_widest_matched_lane():
    # 7 a times 8 l is the most premise sets 16 symbols allow (one symbol is
    # left for the conclusion): the matched lanes hold their unions, up to
    # all 15 premise symbols
    lang = make_language([f"a{i}" for i in range(7)] + ["b0"], [f"l{i}" for i in range(8)])
    system = make_system(lang, [((f"a{a}", f"l{l}"), "b0") for a in range(7) for l in range(8)])
    rows = [(r.law, r.passed, r.checked, r.witness) for r in verify_closed_form_characterization(system)]
    # no rule matches a subset with no a or no l: 2 * (2^7 + 2^8 - 1) of them
    assert rows == [
        ("no-match-fixed", True, 766, None),
        ("match-union", True, 65536 - 766, None),
        ("premise-set-values", True, 56, None),
        ("matched-count", True, 16 << 15, None),
        ("closed-form-agreement", True, 65536, None),
        ("closed-form-insertion", True, 65536, None),
        ("closed-form-idempotence", True, 65536, None),
        ("closed-form-monotonicity", True, 16 << 15, None),
        ("closed-form-finitary", True, 65536, None),
    ]


def corpus_rows(script: str) -> list[dict]:
    """The rows of two rounds of a corpus script beside this file, checked
    to be the same bytes under two hash seeds and the same bytes as the
    committed output in `golden/`.  A change that alters the output on
    purpose regenerates the file, from the root of the repository:

        PYTHONHASHSEED=0 PYTHONPATH=src python tests/laws_corpus.py --rounds 2 > tests/golden/laws_corpus.jsonl

    and likewise for `model_corpus.py` and `parse_corpus.py`."""
    src = str(Path(laws.__file__).resolve().parents[1])
    golden = (Path(__file__).parent / "golden" / script).with_suffix(".jsonl").read_bytes()
    for seed in "0", "7":
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name(script)), "--rounds", "2"],
            env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        if done.stdout != golden:  # name the first differing row, not a diff of the whole output
            got, want = done.stdout.splitlines(), golden.splitlines()
            row = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want)))
            pytest.fail(f"hash seed {seed}: row {row + 1} differs from golden/: {got[row:row + 1]} != {want[row:row + 1]}")
    return [json.loads(row) for row in golden.splitlines()]


def test_law_corpus_rows_do_not_depend_on_the_hash_seed():
    # a slice of tests/laws_corpus.py: every check_axioms, equivalent and
    # verify row, bypassed systems with failing rows included
    rows = corpus_rows("laws_corpus.py")
    assert {row["call"] for row in rows} == {"check_axioms", "equivalent", "verify"}
    assert any(row["case"].startswith("bypassed") and not row["passed"] for row in rows)


def test_model_corpus_rows_do_not_depend_on_the_hash_seed():
    # a slice of tests/model_corpus.py: each system parsed, made from tuples
    # and constructed from Rules, and every reader of each build
    rows = corpus_rows("model_corpus.py")
    equal = {row["case"]: row["result"] for row in rows if row["call"] == "equal"}
    assert all(result == [True, True] for case, result in equal.items() if not case.startswith("outside"))
    assert {row["via"] for row in rows if row["call"] == "build"} == {"parse", "make_system", "LogicSystem"}
    assert all(row["result"]["error"].startswith("UnknownSymbol: ") for row in rows if row["call"] == "build")
    assert {"closed_form_ternary", "closed_form_binary", "weight_ternary", "rule_lines"} <= {r["call"] for r in rows}


def test_parse_corpus_rows_do_not_depend_on_the_hash_seed():
    # a slice of tests/parse_corpus.py: generated and mutated documents,
    # each an error with its place or a parse whose rendering parses back
    rows = corpus_rows("parse_corpus.py")
    errors = [row["result"] for row in rows if "error" in row["result"]]
    parsed = [row["result"] for row in rows if "error" not in row["result"]]
    assert {"ParseError", "UnknownSymbol"} <= {e["error"] for e in errors}
    assert all(e["line"] >= 1 and e["col"] >= 1 for e in errors)
    assert parsed and all(render_system(parse_system(p["render_system"])) == p["render_system"] for p in parsed)
