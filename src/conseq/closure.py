"""Deductive closure of a logic system, plus the one-pass closed forms.

The generated operator works with two rules only: every hypothesis is kept
(insertion), and whenever all premises of a rule are deduced its conclusion
is deduced (coordinate rule).  `close` computes the least fixpoint of that
process.  Both evaluation strategies live here:

* `close_naive` repeats `step`, one simultaneous pass, until nothing
  changes; it is the readable reference.
* `close` is semi-naive: each symbol is processed once, decrementing a
  per-rule count of still-missing premises, so only rules that just gained a
  premise are re-examined.  Runtime is linear in total premise occurrences.
  It runs on the integer ids a `LogicSystem` compiles at construction (a
  tuple of rule ids per premise symbol and per-rule counts), marks seen
  symbols in a bytearray, and builds `Symbol`s only for the result.

`step` is one application of the coordinate rule after insertion.  It looks
only at the rules whose first premise is in X (through
`LogicSystem.first_premise_index`), so a query costs time in the rules it can
reach, not in the size of the system.  For systems whose premise symbols
never occur as conclusions, a fired conclusion can never enable another
rule, so that single pass already reaches the fixpoint;
`closed_form_ternary` / `closed_form_binary` are `step` behind those shape
guards.  They are fast paths, never the definition: callers must fall back
to `close` when the shape recognizer refuses.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DuplicateElement, LanguageMismatch, TooShort
from .model import Language, LogicSystem, Sort, Symbol, _require_shape, _require_symbols, _tuple_of, symbol_key

# Deduction sets are plain frozensets of symbols over the system's language;
# mixing sorts is fine.
DeductionSet = frozenset[Symbol]


def _deduction_set(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    try:
        x = frozenset(members)
    except TypeError as e:  # costs nothing unless raised
        raise LanguageMismatch(f"a member is not a Symbol: {e}") from None
    if not x <= system.language.symbols:
        _require_symbols(x)
        stray = min(x - system.language.symbols, key=symbol_key)
        raise LanguageMismatch(
            f"symbol {stray.name!r} ({stray.sort.value}) is not in the system's language"
        )
    return x


def step(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    """One simultaneous application of the coordinate rule after insertion.

    Returns X together with the conclusion of every rule whose premise set
    is already contained in X.  Only the rules filed under a member of X in
    `first_premise_index` are tested, which is exact for every system: a
    rule whose first premise is outside X cannot have its premise set inside
    X.  Each rule is looked at once at most, and no `Rule` is built.
    """
    x = _deduction_set(system, members)
    index = system.first_premise_index
    return x | {c for s in x for premises, c in index.get(s, ()) if premises <= x}


def close(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    """Smallest superset of the input closed under all rules (semi-naive).

    Keeps a countdown of missing premises per rule; a rule fires exactly when
    its count reaches zero, and each symbol is queued at most once.  Always
    equals `close_naive`.
    """
    x = _deduction_set(system, members)
    premise_rules, conclusions = system._premise_rules, system._conclusions
    need = list(system.premise_counts)
    seen = bytearray(len(system._symbols))
    queue = list(map(system._ids.__getitem__, x))
    for s in queue:
        seen[s] = 1
    # the loop visits the ids it appends: each derived symbol once
    for s in queue:
        for i in premise_rules[s]:
            need[i] -= 1
            if not need[i]:
                c = conclusions[i]
                if not seen[c]:
                    seen[c] = 1
                    queue.append(c)
    return x.union(map(system._symbols.__getitem__, queue[len(x) :]))


def close_naive(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    """Reference evaluation: iterate `step` to its fixpoint.

    Every productive round adds at least one conclusion symbol, so the round
    count is bounded by the number of distinct conclusions; that bound is
    asserted as an internal sanity check.
    """
    x = _deduction_set(system, members)
    max_rounds = len(system.conclusions) + 1
    rounds = 0
    while True:
        nxt = step(system, x)
        rounds += 1
        assert rounds <= max_rounds, "closure exceeded its round bound"
        if nxt == x:
            return nxt
        x = nxt


def closed_form_ternary(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    """Value of the operator for a mixed ternary system, in one pass.

    Requires `is_mixed_ternary(system)`: premise/conclusion disjointness
    guarantees no chaining, so X extended with the conclusions of all rules
    whose premise set lies inside X is already closed.
    """
    _require_shape(system.ternary_shape, "ternary")
    return step(system, members)


def closed_form_binary(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    """One-pass value for a mixed binary system: X plus the conclusion of
    every rule whose single premise is in X."""
    _require_shape(system.binary_shape, "binary")
    return step(system, members)


def chain_system(elements: Sequence[Symbol]) -> LogicSystem:
    """Binary system linking consecutive elements of a sequence.

    Given distinct e0..eN (N >= 1) builds the rules e_i => e_{i+1} over the
    smallest language containing the elements.  Closing from {e_i} yields the
    tail {e_i..eN}, which is the whole element set exactly when i = 0.
    """
    elems = _tuple_of(elements, "elements")
    if len(elems) < 2:
        raise TooShort("a chain needs at least two elements")
    try:
        if len(set(elems)) != len(elems):
            seen: set[Symbol] = set()
            for e in elems:
                if e in seen:
                    raise DuplicateElement(f"chain element {e.name!r} repeats")
                seen.add(e)
        standard = frozenset(e for e in elems if e.sort is Sort.STANDARD)
    except (AttributeError, TypeError):  # an element that is not a symbol
        _require_symbols(elems)
        raise
    language = Language(standard, frozenset(elems) - standard)
    ids = tuple(map(language._numbering[1].__getitem__, elems))
    return LogicSystem._from_keys(language, [(1, a, b) for a, b in zip(ids, ids[1:])])
