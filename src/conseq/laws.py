"""Extensional operator tables over small universes, and exhaustive law checks.

An OperatorTable pins down an operator on *every* subset of a universe of at
most 16 symbols, so algebraic laws can be decided by enumeration instead of
proof.  Subsets are represented as bitmasks relative to the canonically
sorted universe; all enumeration is in increasing bitmask order, so reported
counterexamples are deterministic across runs.

The four laws checked are the closure-operator axioms restricted to a finite
universe:

* insertion      X subset of T(X)
* idempotence    T(T(X)) = T(X)
* monotonicity   X subset of Y  implies  T(X) subset of T(Y)
* finitary       T(X) = union of T(Z) over all Z subset of X

Every table is packed once into one Python int, one lane per mask, mask 0
lowest (`_lanes`), and the laws read that packing.  Every lane has the one
width `_BITS` of an array "H" item, at least 16 bits, since every table
holds subsets of the universe: images, one-pass values, and verify's
matched table, whose lane m is the union U(m) of the premise sets inside
m.  U(m) is nonzero exactly on the matched masks, and the premise sets
inside m are among those inside m' exactly when U(m) lies within U(m').
An OperatorTable validates its images on the packing it keeps.

The finitary union, the union of the premise sets a mask matches, and the
conclusions a system fires from a mask are all ORs over the keys inside
the mask; one subset (zeta) transform, `_zeta`, computes each for every mask at once
(`_subset_or`), each of its n steps one whole-int expression that the
big-int code runs over all 2^n lanes.  `tabulate` then finds a system's
closures from its one-pass table in a single top-down sweep, one Python
loop over every mask.  Verify reads two tables, the one-pass table and
the engine's, and builds the engine's with `tabulate` only when the
one-pass table is not idempotent: when T(T(X)) = T(X) everywhere, the
sweep changes no entry, so the one-pass table is the engine's table.  A
passing verify therefore runs no Python loop over the masks.

Each law is decided by one whole-table test.  Insertion, idempotence,
`equivalent`, and verify's rows that compare the engine's table with the
one-pass table (on every mask, on the matched or the unmatched masks, or
on each rule's premise set; the one-pass table is X on the unmatched
masks, which the tests check of `_step_table`) are one agreement check
(`_agreement`): a table equals wanted values on a list of masks when the
XOR of the two packings is zero there, and `checked` is the number of
masks.  Verify counts its
unmatched and matched masks on the matched table and hands over the mask
lists unbuilt; they are built only when the XOR is nonzero, to find the
first witness.  For insertion the
wanted table is the packing ORed with the identity (`_identity`, lane m
holding m); for idempotence it is T(T(X)), the one per-mask lookup, a
`map` over a list that verify computes once for the one-pass table and
shares between the engine table and the idempotence row.  Monotonicity over
all covering pairs (X, X + {a}) is a table that `_zeta` leaves unchanged
(`_is_monotone`), and over a finite universe a table is finitary exactly
when it is monotone.  Verify's closed-form laws read the step table's
packing as it is.  The per-mask walks run only when a test fails, to name
the first witness.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from operator import not_
from typing import Callable, Iterable, Iterator

from .errors import (
    InvalidValue,
    LanguageMismatch,
    UniverseIncomplete,
    UniverseMismatch,
    UniverseTooLarge,
)
from .fileformat import render_set
from .model import LogicSystem, Symbol, _require_instance, _require_shape, _require_symbols, _tuple_of, symbol_key

UNIVERSE_CAP = 16

# lane m of a packed table holds bits [m*_BITS, (m+1)*_BITS) of its int, an
# array "H" item: at least 16 bits, so any subset of UNIVERSE_CAP symbols
_BITS = 8 * array("H").itemsize
_BIG_ENDIAN = sys.byteorder == "big"


@dataclass(frozen=True)
class OperatorTable:
    """A total map from every subset of `universe` to a subset of `universe`.

    `universe` must be canonically sorted (name, then sort); `images[m]` is
    the image of the subset with bitmask m, itself encoded as a bitmask.
    Build tables with `tabulate` or `OperatorTable.from_function`.

    The images are validated on their packing (`_lanes`), which the laws
    then read.
    """

    universe: tuple[Symbol, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "universe", _tuple_of(self.universe, "universe"))
        object.__setattr__(self, "images", _tuple_of(self.images, "images"))
        n = len(self.universe)
        if n > UNIVERSE_CAP:
            raise UniverseTooLarge(f"universe has {n} symbols; the cap is {UNIVERSE_CAP}")
        _require_symbols(self.universe)
        if len(set(self.universe)) != n:
            raise InvalidValue("universe symbols must be distinct")
        if list(self.universe) != sorted(self.universe, key=symbol_key):
            raise InvalidValue("universe must be canonically sorted")
        full = 1 << n
        if len(self.images) != full:
            raise InvalidValue(f"expected {full} images, got {len(self.images)}")
        try:
            packed = _lanes(self.images)
        except (TypeError, OverflowError):
            packed = -1
        # a value that is not an int, or does not fit its lane, fails the
        # packing; one that fits but reaches bit n sets a lane bit above it
        over = (1 << _BITS) - full  # the lane bits from bit n up
        if packed < 0 or over and packed & over * _ones(full):
            for m, im in enumerate(self.images):
                if not isinstance(im, int):
                    raise InvalidValue(f"image of mask {m} is not an int: {im!r}")
                if not 0 <= im < full:
                    raise InvalidValue(f"image of mask {m} leaves the universe")
        object.__setattr__(self, "_packed", packed)

    @classmethod
    def from_function(
        cls, universe: Iterable[Symbol], fn: Callable[[frozenset[Symbol]], Iterable[Symbol]]
    ) -> "OperatorTable":
        """Tabulate an arbitrary set function over every subset."""
        syms = _universe(universe)
        bit = {s: 1 << i for i, s in enumerate(syms)}
        images = []
        for mask in range(1 << len(syms)):
            image = fn(frozenset(s for s in syms if bit[s] & mask))
            try:
                members = frozenset(image)
            except TypeError as e:  # not iterable, or an unhashable member
                raise LanguageMismatch(f"image of mask {mask} is not a set of Symbols: {e}") from None
            if not members <= bit.keys():
                _require_symbols(members)
                name = min(members - bit.keys(), key=symbol_key).name
                raise InvalidValue(f"image symbol {name!r} is outside the universe")
            images.append(sum(map(bit.__getitem__, members)))
        return cls(syms, tuple(images))

    @cached_property
    def _bit(self) -> dict[Symbol, int]:
        return {s: 1 << i for i, s in enumerate(self.universe)}

    def mask_of(self, subset: Iterable[Symbol]) -> int:
        bit = self._bit
        mask = 0
        try:
            for s in subset:
                try:
                    mask |= bit[s]
                except (KeyError, TypeError):  # outside the universe, or unhashable
                    _require_symbols((s,))
                    raise InvalidValue(f"symbol {s.name!r} is outside the universe") from None
        except TypeError as e:  # not iterable
            raise LanguageMismatch(f"subset is not a set of Symbols: {e}") from None
        return mask

    def set_of(self, mask: int) -> frozenset[Symbol]:
        if not isinstance(mask, int) or mask < 0 or mask >> len(self.universe):
            raise InvalidValue(f"mask {mask!r} is not a subset of the universe")
        return frozenset(s for i, s in enumerate(self.universe) if mask & (1 << i))

    def image(self, subset: Iterable[Symbol]) -> frozenset[Symbol]:
        return self.set_of(self.images[self.mask_of(subset)])

    def subsets(self) -> Iterator[frozenset[Symbol]]:
        """All subsets of the universe in increasing bitmask order."""
        return map(self.set_of, range(1 << len(self.universe)))


def _packed_table(universe: tuple[Symbol, ...], images: tuple[int, ...], packed: int) -> OperatorTable:
    """A table of images known to be valid, with their packing, taken as
    given."""
    table = object.__new__(OperatorTable)
    table.__dict__.update(universe=universe, images=images, _packed=packed)
    return table


@dataclass(frozen=True)
class LawResult:
    """Verdict for one checked law; a failure carries a re-checkable witness."""

    law: str
    passed: bool
    witness: tuple[frozenset[Symbol], ...] | None
    checked: int

    def __str__(self) -> str:
        if self.passed:
            return f"{self.law}: pass ({self.checked} checks)"
        parts = " ".join("{" + render_set(w) + "}" for w in self.witness)
        return f"{self.law}: FAIL at {parts} ({self.checked} checks)"


@dataclass(frozen=True)
class LawReport:
    """Outcome of a batch of exhaustive law checks."""

    results: tuple[LawResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[LawResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def __bool__(self) -> bool:
        return self.ok

    def __iter__(self) -> Iterator[LawResult]:
        return iter(self.results)


@dataclass(frozen=True)
class TableComparison:
    """Equality verdict for two tables plus the first differing subset."""

    equal: bool
    witness: frozenset[Symbol] | None = None

    def __bool__(self) -> bool:
        return self.equal


def _universe(symbols: Iterable[Symbol], lead: str = "universe has") -> tuple[Symbol, ...]:
    """The distinct `symbols` in canonical order, at most UNIVERSE_CAP of
    them; `lead` opens the error message."""
    try:
        members = set(symbols)
    except TypeError as e:
        raise LanguageMismatch(f"a member is not a Symbol: {e}") from None
    _require_symbols(members)
    if len(members) > UNIVERSE_CAP:  # before the sort, which a huge universe would make slow
        raise UniverseTooLarge(f"{lead} {len(members)} symbols; the cap is {UNIVERSE_CAP}")
    return tuple(sorted(members, key=symbol_key))


def _rule_masks(system: LogicSystem, syms: tuple[Symbol, ...]) -> list[tuple[int, int]]:
    """(premise mask, conclusion mask) of each rule, read from its key."""
    bit = {system._ids[s]: 1 << i for i, s in enumerate(syms)}
    # a rule's premise mask is the OR of its premise bits: the sum of the distinct ones
    return [(sum({bit[p] for p in key[1:-1]}), bit[key[-1]]) for key in system._keys]


def _lanes(values: Iterable[int]) -> int:
    """Pack `values` into one int, one lane per value, value 0 in the lowest
    lane.  A value that is not an int or does not fit its lane raises
    TypeError or OverflowError (from `array`)."""
    lanes = array("H", values)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _unlanes(t: int, count: int) -> list[int]:
    """The `count` values that `_lanes` packed into `t`."""
    lanes = array("H", t.to_bytes(_BITS // 8 * count, "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes.tolist()


def _nonzero_lanes(t: int, count: int) -> bytes:
    """One byte per lane of `count` lanes packed into `t`: 1 where the lane
    is nonzero, 0 where it is zero.

    The right shifts 8, 4, 2, 1 OR each lane's 16 low bits, which hold
    every value a table packs, into its lowest bit; the bits they carry in
    from the lane above land only above that bit, since the shifts sum to 15.
    """
    for shift in 8, 4, 2, 1:
        t |= t >> shift
    return (t & _ones(count)).to_bytes(_BITS // 8 * count, "little")[:: _BITS // 8]


def _ones(count: int) -> int:
    """The value 1 in each of `count` lanes."""
    return int.from_bytes((1).to_bytes(_BITS // 8, "little") * count, "little")


def _identity(n: int) -> int:
    """The packed table whose lane m holds m, for every mask of n symbols:
    the upper half of 2^(i+1) lanes is the lower half plus 2^i per lane."""
    t = 0
    for i in range(n):
        t |= (t + (_ones(1 << i) << i)) << (_BITS << i)
    return t


def _first_lane(t: int) -> int:
    """The lowest nonzero lane of a nonzero packed table."""
    return ((t & -t).bit_length() - 1) // _BITS


def _zeta(n: int, t: int) -> int:
    """The subset (zeta) transform of a table of 2^n lanes packed into `t`:
    for each bit b of the masks, highest first, OR every lane m without b
    into lane m + b, one whole-int expression.

    `low` selects the lanes whose index lacks b, and shifting left by
    `shift` moves every lane up b lanes.  The top bit's `low` is the lower
    half of the lanes; each next one is `low ^ (low << shift)`.
    """
    low = 0
    for i in reversed(range(n)):
        shift = _BITS << i
        low = low ^ (low << shift) if low else (1 << shift) - 1
        t |= (t & low) << shift
    return t


def _subset_or(n: int, pairs: Iterable[tuple[int, int]]) -> int:
    """The packed table whose lane m is the OR of v over every (key, v) in
    `pairs` whose key lies inside m: each key seeded with its values, in
    zeroed lanes, then `_zeta`."""
    seeds = array("H", bytes(_BITS // 8 << n))
    for key, v in pairs:
        seeds[key] |= v
    return _zeta(n, _lanes(seeds))


def _step_table(n: int, rule_masks: list[tuple[int, int]]) -> int:
    """step[m] = m plus the conclusion of every rule whose premises lie in m,
    packed.

    Each symbol counts as a rule deriving itself, which supplies the m.
    """
    return _subset_or(n, [*rule_masks, *((1 << i, 1 << i) for i in range(n))])


def _is_monotone(n: int, t: int) -> bool:
    """Lane m of `t` lies within lane m + b for every mask m without bit b.

    One whole-int test decides all covering pairs at once: the table is its
    own subset transform.  Each step of `_zeta` only adds bits, so it ends
    where it started exactly when no step ORed a lane into one above it
    that lacked its bits.
    """
    return _zeta(n, t) == t


def _covering_pairs(law: str, table: OperatorTable, t: int) -> LawResult:
    """The law that lane m of the packed `t` lies within lane m + b on every
    covering pair of masks of `table`, m ascending, then bit b; `checked`
    counts the pairs up to the first failure, whose two subsets are the
    witness.

    `_is_monotone` decides; only when it fails are the pairs walked, to
    count them up to the first failing one.
    """
    n = len(table.universe)
    if _is_monotone(n, t):
        return LawResult(law, True, None, n * (1 << n) >> 1)
    values = _unlanes(t, 1 << n)
    checked = 0
    for m, value in enumerate(values):
        for b in (1 << i for i in range(n) if not m >> i & 1):
            checked += 1
            if value & ~values[m | b]:
                return LawResult(law, False, (table.set_of(m), table.set_of(m | b)), checked)


def _agreement(
    law: str, table: OperatorTable, want: int, masks: Iterable[int] | None = None, count: int = 0
) -> LawResult:
    """The law that lane m of `table`'s packing equals lane m of the packed
    `want` for every mask m of `masks`: every mask by default, otherwise the
    caller's `count` masks in the caller's order, repeats allowed; `checked`
    is the number of masks.

    The two packings' XOR decides it: zero passes.  `masks` may be lazy:
    it is iterated only when the XOR is nonzero, through a byte per lane of
    the XOR, for the first failing mask in its order.
    """
    n = len(table.universe)
    if masks is None:
        masks, count = range(1 << n), 1 << n
    diff = table._packed ^ want
    bad = next(filter(_nonzero_lanes(diff, 1 << n).__getitem__, masks), None) if diff else None
    return LawResult(law, bad is None, None if bad is None else (table.set_of(bad),), count)


def tabulate(system: LogicSystem, universe: Iterable[Symbol]) -> OperatorTable:
    """Extensional table of the generated operator over `universe`.

    The universe must contain every symbol used by the system's rules (and
    stay inside its language), so closures never leave the universe and each
    entry is exactly `close(system, X)`.
    """
    syms = _universe(universe)
    n = len(syms)
    try:
        missing = system.symbols - set(syms)
    except AttributeError:
        _require_instance(system, LogicSystem, "system", "a LogicSystem")
        raise
    if missing:
        raise UniverseIncomplete(f"universe is missing system symbol {min(missing, key=symbol_key).name!r}")
    if outside := set(syms) - system.language.symbols:
        raise LanguageMismatch(f"universe symbol {min(outside, key=symbol_key).name!r} is not in the system's language")
    images = _unlanes(_step_table(n, _rule_masks(system, syms)), 1 << n)
    # iterating the step from m passes through step[m], which is m itself
    # or a larger mask, so the closures settle in one sweep from the top down
    for m in reversed(range(1 << n)):
        images[m] = images[images[m]]
    return OperatorTable(syms, images)


def check_axioms(table: OperatorTable) -> LawReport:
    """Exhaustively decide the four closure-operator laws on a table.

    Each law is decided by one whole-table test on the table's packing;
    the masks are walked only when it fails, to name the first witness.
    """
    try:
        images = list(table.images)
    except AttributeError:
        _require_instance(table, OperatorTable, "table", "an OperatorTable")
        raise
    return _axioms(table, images, list(map(images.__getitem__, images)))


def _axioms(table: OperatorTable, images: list[int], twice: list[int]) -> LawReport:
    """`check_axioms` on a table whose images are the list `images` and
    whose T(T(X)) is the list `twice`."""
    n = len(table.universe)
    packed = table._packed
    monotone = _covering_pairs("monotonicity", table, packed)
    results = [
        # X lies within T(X) exactly when ORing X into every lane changes none
        _agreement("insertion", table, packed | _identity(n)),
        _agreement("idempotence", table, packed if twice == images else _lanes(twice)),
        monotone,
    ]

    # a table is finitary exactly when it is monotone: then each image is
    # the union of the images of its subsets.  Only a failure builds that
    # union, to name the first mask it differs on.
    if monotone.passed:
        results.append(LawResult("finitary", True, None, 1 << n))
    else:
        m = _first_lane(_zeta(n, packed) ^ packed)
        bad = next(z for z in range(m + 1) if z & m == z and images[z] & ~images[m])
        results.append(LawResult("finitary", False, (table.set_of(m), table.set_of(bad)), m + 1))

    return LawReport(tuple(results))


def equivalent(t1: OperatorTable, t2: OperatorTable) -> TableComparison:
    """Entry-by-entry equality; the witness is the first differing subset."""
    if t1.universe != t2.universe:
        raise UniverseMismatch("tables are over different universes")
    result = _agreement("equivalent", t1, t2._packed)
    return TableComparison(result.passed, *(result.witness or ()))


def verify_closed_form_characterization(system: LogicSystem) -> LawReport:
    """Check both directions of the closed-form characterization of a mixed
    ternary system, exhaustively over the subsets of its rule symbols.

    Forward: for every X, the engine's closure returns X itself when no
    premise set is contained in X, and otherwise X plus exactly the
    conclusions of the matched rules; the matched count never exceeds the
    rule count, never shrinks when X grows, and each rule's premise set
    closes to itself plus the conclusions of every rule sharing it.

    Reverse: the one-pass table (X plus the conclusions fired from X) must
    satisfy the four closure-operator laws and equal the engine's table.
    The engine's table is `tabulate`'s, the fixpoints of that same one-pass
    table, so the equality says that one pass is already a fixpoint, which
    is the theorem's content.  That the engine's table matches the closure
    by a plain iteration of the full rule scan is checked by the tests,
    not here.

    The fixpoints are the one-pass table itself exactly when that table is
    idempotent, which every system that passes the shape check is;
    `tabulate` runs only otherwise, on a system whose shape check was
    bypassed.  The idempotence row reuses the same T(T(X)).  Every row that
    compares the engine's table reads the one-pass table as the wanted
    values, so on an idempotent one-pass table the four comparing rows hold
    by construction and check nothing at run time.  `no-match-fixed` takes
    from `_step_table` that the one-pass table is X on an unmatched mask,
    where nothing fires; the tests check that, verify does not.

    The matched table holds in lane m the union U(m) of the premise sets
    inside m.  Premise sets are nonempty, so U(m) is nonzero exactly on the
    matched masks; and the premise sets inside m are among those inside m'
    exactly when U(m) lies within U(m'), since each of them lies within
    U(m), hence within m'.  So `matched-count` reads U on covering pairs.
    """
    _require_shape(system, "ternary")
    syms = _universe(system.symbols, "system uses")
    n = len(syms)
    full = 1 << n
    rule_masks = _rule_masks(system, syms)
    step = _step_table(n, rule_masks)
    one_pass = _unlanes(step, full)
    twice = list(map(one_pass.__getitem__, one_pass))
    closed_form = _packed_table(syms, tuple(one_pass), step)
    # when one pass is idempotent, `tabulate`'s sweep changes no entry
    engine = closed_form if twice == one_pass else tabulate(system, syms)

    matched = _subset_or(n, ((pm, pm) for pm, _ in rule_masks))
    is_matched = _nonzero_lanes(matched, full)
    results = [
        # nothing fires from an unmatched mask, so the one-pass table is X there
        _agreement("no-match-fixed", engine, step, compress(range(full), map(not_, is_matched)), is_matched.count(0)),
        _agreement("match-union", engine, step, compress(range(full), is_matched), is_matched.count(1)),
        # each rule's own premise set closes to itself plus the conclusions
        # of every rule sharing that premise set (several rules may share one)
        _agreement("premise-set-values", engine, step, (pm for pm, _ in rule_masks), len(rule_masks)),
        # the premise sets inside X grow with X, read as their union; the
        # count bound m <= n is implicit in the representation
        _covering_pairs("matched-count", engine, matched),
        _agreement("closed-form-agreement", engine, step),
    ]
    results += (replace(law, law=f"closed-form-{law.law}") for law in _axioms(closed_form, one_pass, twice))
    return LawReport(tuple(results))
