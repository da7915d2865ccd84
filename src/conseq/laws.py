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

The finitary union, the rules a mask matches, and the conclusions a system
fires from a mask are all ORs over the keys inside the mask; one subset
(zeta) transform, `_subset_or`, computes each for every mask in n*2^n steps.
A table's closures then follow from its one-pass table in a single sweep
(`_fixpoints`).  Over a finite universe a table is monotone exactly when it
equals its finitary union, so one list comparison decides both laws.  The
walk over covering pairs (X, X + {a}), which `checked` counts, runs only when
that comparison fails, to find the first witness (`_covering_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    LanguageMismatch,
    PreconditionViolated,
    UniverseIncomplete,
    UniverseMismatch,
    UniverseTooLarge,
)
from .fileformat import render_set
from .model import LogicSystem, Symbol, symbol_key

UNIVERSE_CAP = 16


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
        n = len(self.universe)
        if n > UNIVERSE_CAP:
            raise UniverseTooLarge(f"universe has {n} symbols; the cap is {UNIVERSE_CAP}")
        if len(set(self.universe)) != n:
            raise ValueError("universe symbols must be distinct")
        if list(self.universe) != sorted(self.universe, key=symbol_key):
            raise ValueError("universe must be canonically sorted")
        full = 1 << n
        if len(self.images) != full:
            raise ValueError(f"expected {full} images, got {len(self.images)}")
        if min(self.images) < 0 or max(self.images) >= full:
            m = next(m for m, im in enumerate(self.images) if not 0 <= im < full)
            raise ValueError(f"image of mask {m} leaves the universe")

    @classmethod
    def from_function(
        cls, universe: Iterable[Symbol], fn: Callable[[frozenset[Symbol]], Iterable[Symbol]]
    ) -> "OperatorTable":
        """Tabulate an arbitrary set function over every subset."""
        syms = tuple(sorted(set(universe), key=symbol_key))
        if len(syms) > UNIVERSE_CAP:
            raise UniverseTooLarge(f"universe has {len(syms)} symbols; the cap is {UNIVERSE_CAP}")
        bit = {s: 1 << i for i, s in enumerate(syms)}
        images = []
        for mask in range(1 << len(syms)):
            subset = frozenset(s for s in syms if bit[s] & mask)
            image = 0
            for s in fn(subset):
                b = bit.get(s)
                if b is None:
                    raise ValueError(f"image symbol {s.name!r} is outside the universe")
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
                raise ValueError(f"symbol {s.name!r} is outside the universe") from None
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


def _rule_masks(system: LogicSystem, syms: tuple[Symbol, ...]) -> list[tuple[int, int]]:
    bit = {s: 1 << i for i, s in enumerate(syms)}
    masks = []
    for rule in system.rules:
        pm = 0
        for p in rule.premises:
            pm |= bit[p]
        masks.append((pm, bit[rule.conclusion]))
    return masks


def _subset_or(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """out[m] = OR of v over every (key, v) in `pairs` whose key lies inside m.

    Seeds each key with its values, then one pass per bit b folds out[m ^ b]
    into out[m] for every m holding b: the subset (zeta) transform.  Those
    masks form runs of length b, one every 2b, so each pass ORs whole slices:
    one per run when runs are long, one per offset within a run when short.
    """
    full = 1 << n
    out = [0] * full
    for key, v in pairs:
        out[key] |= v
    for i in range(n):
        b = 1 << i
        stride = b << 1
        if b * b < full:
            for j in range(b, stride):
                out[j::stride] = map(or_, out[j::stride], out[j - b::stride])
        else:
            for run in range(b, full, stride):
                out[run:run + b] = map(or_, out[run:run + b], out[run - b:run])
    return out


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


def _covering_pairs(
    n: int, images: Sequence[int], union: list[int]
) -> tuple[int, tuple[int, int] | None]:
    """Check images[m] within images[m + b] on every covering pair, m
    ascending, then bit b; return the pairs checked and the first failure.

    `union` is `_subset_or(n, enumerate(images))`.  It equals the images
    exactly when they are monotone, and then all n*2^(n-1) pairs hold, so
    the walk runs only to find the first failing pair.
    """
    if union == list(images):
        return n * (1 << n) >> 1, None
    checked = 0
    for m, im in enumerate(images):
        for i in range(n):
            b = 1 << i
            if not m & b:
                checked += 1
                if im & ~images[m | b]:
                    return checked, (m, m | b)
    return checked, None


def tabulate(system: LogicSystem, universe: Iterable[Symbol]) -> OperatorTable:
    """Extensional table of the generated operator over `universe`.

    The universe must contain every symbol used by the system's rules (and
    stay inside its language), so closures never leave the universe and each
    entry is exactly `close(system, X)`.
    """
    syms = tuple(sorted(set(universe), key=symbol_key))
    n = len(syms)
    if n > UNIVERSE_CAP:
        raise UniverseTooLarge(f"universe has {n} symbols; the cap is {UNIVERSE_CAP}")
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
    """Exhaustively decide the four closure-operator laws on a table."""
    images = table.images
    n = len(table.universe)
    full = 1 << n
    results = []

    witness = None
    for m in range(full):
        if images[m] | m != images[m]:
            witness = (table.set_of(m),)
            break
    results.append(LawResult("insertion", witness is None, witness, full))

    witness = None
    for m in range(full):
        im = images[m]
        if images[im] != im:
            witness = (table.set_of(m),)
            break
    results.append(LawResult("idempotence", witness is None, witness, full))

    # union[m] = OR of images over all submasks of m; both laws hold iff it
    # equals the images
    union = _subset_or(n, enumerate(images))
    checked, pair = _covering_pairs(n, images, union)
    witness = pair and tuple(map(table.set_of, pair))
    results.append(LawResult("monotonicity", pair is None, witness, checked))

    witness = None
    checked = full
    if pair:
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
    for m, (a, b) in enumerate(zip(t1.images, t2.images)):
        if a != b:
            return TableComparison(False, t1.set_of(m))
    return TableComparison(True)


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
    check = system.ternary_shape
    if not check:
        raise PreconditionViolated(f"not a mixed ternary system: {check.reason}")
    syms = tuple(sorted(system.symbols, key=symbol_key))
    n = len(syms)
    if n > UNIVERSE_CAP:
        raise UniverseTooLarge(f"system uses {n} symbols; the cap is {UNIVERSE_CAP}")
    rule_masks = _rule_masks(system, syms)
    one_pass = tuple(_step_table(n, rule_masks))
    engine = OperatorTable(syms, _fixpoints(one_pass))
    images = engine.images
    full = 1 << n

    results = []

    # matched[m] = bitmask over rule indices whose premise set lies inside m
    matched = _subset_or(n, ((pm, 1 << i) for i, (pm, _) in enumerate(rule_masks)))

    witness = None
    checked = 0
    for m in range(full):
        if matched[m] == 0:
            checked += 1
            if images[m] != m:
                witness = (engine.set_of(m),)
                break
    results.append(LawResult("no-match-fixed", witness is None, witness, checked))

    witness = None
    checked = 0
    for m in range(full):
        if matched[m]:
            checked += 1
            if images[m] != one_pass[m]:
                witness = (engine.set_of(m),)
                break
    results.append(LawResult("match-union", witness is None, witness, checked))

    # each rule's own premise set closes to itself plus the conclusions of
    # every rule sharing that premise set (several rules may share one)
    witness = None
    for pm, _ in rule_masks:
        if images[pm] != one_pass[pm]:
            witness = (engine.set_of(pm),)
            break
    results.append(LawResult("premise-set-values", witness is None, witness, len(rule_masks)))

    # matched-rule sets grow with X, with the count bound m <= n implicit in
    # the representation
    checked, pair = _covering_pairs(n, matched, _subset_or(n, enumerate(matched)))
    witness = pair and tuple(map(engine.set_of, pair))
    results.append(LawResult("matched-count", pair is None, witness, checked))

    closed_form = OperatorTable(syms, one_pass)

    cmp = equivalent(engine, closed_form)
    results.append(
        LawResult(
            "closed-form-agreement",
            cmp.equal,
            None if cmp.equal else (cmp.witness,),
            full,
        )
    )
    for law in check_axioms(closed_form):
        results.append(
            LawResult(f"closed-form-{law.law}", law.passed, law.witness, law.checked)
        )

    return LawReport(tuple(results))
