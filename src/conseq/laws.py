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

The finitary union, the premise sets a mask matches, and the conclusions a
system fires from a mask are all ORs over the keys inside the mask; one
subset (zeta) transform, `_zeta`, computes each for every mask at once
(`_subset_or`).  It runs on the whole table packed into one Python int, one
lane of at most 64 bits per mask (`_lanes`), so each of its n steps is one
whole-int expression that the big-int code runs over all 2^n lanes.  A
table's closures then follow from its one-pass table in a single sweep
(`_fixpoints`).

Each law is decided by one whole-table test.  Insertion, idempotence,
`equivalent`, and verify's rows that compare the engine's table with the
one-pass table (on every mask, on the matched masks, or on each rule's
premise set) or with X itself (on the unmatched masks) are one agreement
check (`_agreement`): a table equals the wanted values on a list of masks,
and `checked` is the length of the list.  Monotonicity over all covering
pairs (X, X + {a}) is a table that `_zeta` leaves unchanged
(`_is_monotone`), and over a finite universe a table is finitary exactly
when it is monotone.  The per-mask walks run only when a test fails, to
name the first witness.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from operator import ne, not_, or_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    InvalidValue,
    LanguageMismatch,
    UniverseIncomplete,
    UniverseMismatch,
    UniverseTooLarge,
)
from .fileformat import render_set
from .model import LogicSystem, Symbol, _require_shape, _require_symbols, symbol_key

UNIVERSE_CAP = 16

# (lane width in bits, array typecode) for packing tables into lanes,
# narrowest first; lane m holds bits [m*w, (m+1)*w) of the packed int
_LANE_CODES = sorted((8 * array(c).itemsize, c) for c in "BHIQ")
_BIG_ENDIAN = sys.byteorder == "big"


@dataclass(frozen=True)
class OperatorTable:
    """A total map from every subset of `universe` to a subset of `universe`.

    `universe` must be canonically sorted (name, then sort); `images[m]` is
    the image of the subset with bitmask m, itself encoded as a bitmask.
    Build tables with `tabulate` or `OperatorTable.from_function`.
    """

    universe: tuple[Symbol, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
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
        if min(self.images) < 0 or max(self.images) >= full:
            m = next(m for m, im in enumerate(self.images) if not 0 <= im < full)
            raise InvalidValue(f"image of mask {m} leaves the universe")

    @classmethod
    def from_function(
        cls, universe: Iterable[Symbol], fn: Callable[[frozenset[Symbol]], Iterable[Symbol]]
    ) -> "OperatorTable":
        """Tabulate an arbitrary set function over every subset."""
        syms = _universe(universe)
        bit = {s: 1 << i for i, s in enumerate(syms)}
        images = []
        for mask in range(1 << len(syms)):
            subset = frozenset(s for s in syms if bit[s] & mask)
            image = 0
            for s in fn(subset):
                b = bit.get(s)
                if b is None:
                    raise InvalidValue(f"image symbol {s.name!r} is outside the universe")
                image |= b
            images.append(image)
        return cls(syms, tuple(images))

    @cached_property
    def _bit(self) -> dict[Symbol, int]:
        return {s: 1 << i for i, s in enumerate(self.universe)}

    def mask_of(self, subset: Iterable[Symbol]) -> int:
        bit = self._bit
        mask = 0
        for s in subset:
            try:
                mask |= bit[s]
            except KeyError:
                raise InvalidValue(f"symbol {s.name!r} is outside the universe") from None
        return mask

    def set_of(self, mask: int) -> frozenset[Symbol]:
        return frozenset(s for i, s in enumerate(self.universe) if mask & (1 << i))

    def image(self, subset: Iterable[Symbol]) -> frozenset[Symbol]:
        return self.set_of(self.images[self.mask_of(subset)])

    def subsets(self) -> Iterator[frozenset[Symbol]]:
        """All subsets of the universe in increasing bitmask order."""
        for mask in range(1 << len(self.universe)):
            yield self.set_of(mask)


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
    syms = tuple(sorted(members, key=symbol_key))
    if len(syms) > UNIVERSE_CAP:
        raise UniverseTooLarge(f"{lead} {len(syms)} symbols; the cap is {UNIVERSE_CAP}")
    return syms


def _rule_masks(system: LogicSystem, syms: tuple[Symbol, ...]) -> list[tuple[int, int]]:
    bit = {s: 1 << i for i, s in enumerate(syms)}
    masks = []
    for rule in system.rules:
        pm = 0
        for p in rule.premises:
            pm |= bit[p]
        masks.append((pm, bit[rule.conclusion]))
    return masks


def _lanes(values: Sequence[int]) -> tuple[int, str]:
    """Pack `values` into one big int, one fixed-width lane per value, value
    0 in the lowest lane.

    The lane is the narrowest array typecode that holds the widest value.
    Every table fits in 64 bits: images and one-pass values hold one bit per
    symbol (at most 16), and verify's matched table one bit per premise set,
    of which a mixed ternary system over 16 symbols has at most 7 * 8 = 56.
    Returns the int and the typecode.
    """
    top = max(values).bit_length()
    code = next((c for b, c in _LANE_CODES if b >= top), _LANE_CODES[-1][1])
    lanes = array(code, values)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little"), code


def _unlanes(t: int, code: str, count: int) -> list[int]:
    """The `count` values that `_lanes` packed into `t` with `code`."""
    lanes = array(code, t.to_bytes(count * array(code).itemsize, "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes.tolist()


def _zeta(n: int, t: int, code: str) -> int:
    """The subset (zeta) transform of a table of 2^n lanes that `_lanes`
    packed into `t` with `code`: for each bit b of the masks, highest first,
    OR every lane m without b into lane m + b, one whole-int expression.

    `low` selects the lanes whose index lacks b, and shifting left by
    `shift` moves every lane up b lanes.  The top bit's `low` is the lower
    half of the lanes; each next one is `low ^ (low << shift)`.
    """
    bits = 8 * array(code).itemsize
    low = 0
    for i in reversed(range(n)):
        shift = bits << i
        low = low ^ (low << shift) if low else (1 << shift) - 1
        t |= (t & low) << shift
    return t


def _subset_or(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """out[m] = OR of v over every (key, v) in `pairs` whose key lies inside m:
    each key seeded with its values, then `_zeta`."""
    full = 1 << n
    out = [0] * full
    for key, v in pairs:
        out[key] |= v
    t, code = _lanes(out)
    return _unlanes(_zeta(n, t, code), code, full)


def _step_table(n: int, rule_masks: list[tuple[int, int]]) -> list[int]:
    """step[m] = m plus the conclusion of every rule whose premises lie in m.

    Each symbol counts as a rule deriving itself, which supplies the m.
    """
    return _subset_or(n, [*rule_masks, *((1 << i, 1 << i) for i in range(n))])


def _fixpoints(step: Iterable[int]) -> tuple[int, ...]:
    """The least fixpoint of the step above every mask.

    Iterating the step from m passes through step[m], which is m itself or
    a larger mask, so the fixpoints settle in one pass from the top down.
    """
    images = list(step)
    for m in reversed(range(len(images))):
        images[m] = images[images[m]]
    return tuple(images)


def _is_monotone(n: int, values: Sequence[int]) -> bool:
    """values[m] within values[m + b] for every mask m without bit b.

    One whole-int test decides all covering pairs at once: the table is its
    own subset transform.  Each step of `_zeta` only adds bits, so it ends
    where it started exactly when no step ORed a lane into one above it
    that lacked its bits.
    """
    t, code = _lanes(values)
    return _zeta(n, t, code) == t


def _covering_pairs(law: str, table: OperatorTable, values: Sequence[int]) -> LawResult:
    """The law that values[m] lies within values[m + b] on every covering
    pair of masks of `table`, m ascending, then bit b; `checked` counts the
    pairs up to the first failure, whose two subsets are the witness.

    `_is_monotone` decides; only when it fails are the pairs walked, to
    count them up to the first failing one.
    """
    n = len(table.universe)
    if _is_monotone(n, values):
        return LawResult(law, True, None, n * (1 << n) >> 1)
    checked = 0
    for m, value in enumerate(values):
        for i in range(n):
            b = 1 << i
            if not m & b:
                checked += 1
                if value & ~values[m | b]:
                    return LawResult(law, False, (table.set_of(m), table.set_of(m | b)), checked)


def _agreement(law: str, table: OperatorTable, want: Sequence[int], masks: Sequence[int] | None = None) -> LawResult:
    """The law that table.images[m] == want[m] for every mask m of `masks`:
    every mask by default, otherwise the caller's masks in the caller's
    order, repeats allowed; `checked` is the number of masks.

    When the two tables are equal one tuple comparison in C decides it;
    otherwise the masks are compared with `map`, and a failure names the
    first failing mask in `masks` order.
    """
    images = table.images
    masks = range(len(images)) if masks is None else masks
    fails = compress(masks, map(ne, map(images.__getitem__, masks), map(want.__getitem__, masks)))
    bad = None if images == want else next(fails, None)
    return LawResult(law, bad is None, None if bad is None else (table.set_of(bad),), len(masks))


def tabulate(system: LogicSystem, universe: Iterable[Symbol]) -> OperatorTable:
    """Extensional table of the generated operator over `universe`.

    The universe must contain every symbol used by the system's rules (and
    stay inside its language), so closures never leave the universe and each
    entry is exactly `close(system, X)`.
    """
    syms = _universe(universe)
    n = len(syms)
    missing = system.symbols - set(syms)
    if missing:
        name = sorted(missing, key=symbol_key)[0].name
        raise UniverseIncomplete(f"universe is missing system symbol {name!r}")
    outside = set(syms) - system.language.symbols
    if outside:
        name = sorted(outside, key=symbol_key)[0].name
        raise LanguageMismatch(f"universe symbol {name!r} is not in the system's language")
    return OperatorTable(syms, _fixpoints(_step_table(n, _rule_masks(system, syms))))


def check_axioms(table: OperatorTable) -> LawReport:
    """Exhaustively decide the four closure-operator laws on a table.

    Each law is decided by one whole-table comparison; the masks are walked
    only when it fails, to name the first witness.
    """
    images = table.images
    n = len(table.universe)
    full = 1 << n
    monotone = _covering_pairs("monotonicity", table, images)
    results = [
        _agreement("insertion", table, tuple(map(or_, images, range(full)))),
        _agreement("idempotence", table, tuple(map(images.__getitem__, images))),
        monotone,
    ]

    # a table is finitary exactly when it is monotone: then each image is
    # the union of the images of its subsets.  Only a failure builds that
    # union, to name the first mask it differs on.
    witness = None
    checked = full
    if not monotone.passed:
        union = _subset_or(n, enumerate(images))
        m = next(m for m in range(full) if union[m] != images[m])
        bad = next(z for z in range(m + 1) if z & m == z and images[z] & ~images[m])
        witness = (table.set_of(m), table.set_of(bad))
        checked = m + 1
    results.append(LawResult("finitary", witness is None, witness, checked))

    return LawReport(tuple(results))


def equivalent(t1: OperatorTable, t2: OperatorTable) -> TableComparison:
    """Entry-by-entry equality; the witness is the first differing subset."""
    if t1.universe != t2.universe:
        raise UniverseMismatch("tables are over different universes")
    result = _agreement("equivalent", t1, t2.images)
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
    The engine's table is the fixpoints of that same one-pass table, so the
    equality says that one pass is already a fixpoint, which is the
    theorem's content.  That the engine's table matches the plain rule scan
    of `close_naive` is checked by the tests, not here.
    """
    _require_shape(system.ternary_shape, "ternary")
    syms = _universe(system.symbols, "system uses")
    n = len(syms)
    rule_masks = _rule_masks(system, syms)
    one_pass = tuple(_step_table(n, rule_masks))
    engine = OperatorTable(syms, _fixpoints(one_pass))
    full = 1 << n

    # matched[m] = bitmask over the distinct premise sets inside m; rules
    # sharing a premise set match together, so this marks the same masks
    # matched, and shrinks on the same covering pairs, as one bit per rule
    premise_sets = dict.fromkeys(pm for pm, _ in rule_masks)
    matched = _subset_or(n, ((pm, 1 << i) for i, pm in enumerate(premise_sets)))

    results = [
        _agreement("no-match-fixed", engine, range(full), list(compress(range(full), map(not_, matched)))),
        _agreement("match-union", engine, one_pass, list(compress(range(full), matched))),
        # each rule's own premise set closes to itself plus the conclusions
        # of every rule sharing that premise set (several rules may share one)
        _agreement("premise-set-values", engine, one_pass, [pm for pm, _ in rule_masks]),
        # matched premise sets grow with X, with the count bound m <= n
        # implicit in the representation
        _covering_pairs("matched-count", engine, matched),
        _agreement("closed-form-agreement", engine, one_pass),
    ]
    closed_form = OperatorTable(syms, one_pass)
    results += (replace(law, law=f"closed-form-{law.law}") for law in check_axioms(closed_form))
    return LawReport(tuple(results))
