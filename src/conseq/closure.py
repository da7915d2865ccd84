"""Deductive closure of a logic system, plus the one-pass closed forms.

The generated operator works with two rules only: every hypothesis is kept
(insertion), and whenever all premises of a rule are deduced its conclusion
is deduced (coordinate rule).  `close` computes the least fixpoint of that
process.  Both evaluation strategies live here:

* `close_naive` repeats simultaneous full passes until nothing changes; it is
  the readable reference.
* `close` is semi-naive: each symbol is processed once, decrementing a
  per-rule count of still-missing premises, so only rules that just gained a
  premise are re-examined.  Runtime is linear in total premise occurrences.
  It runs on the integer ids a `LogicSystem` compiles at construction (a
  CSR premise index and per-rule counts), marks seen symbols in a
  bytearray, and builds `Symbol`s only for the result.

For systems whose premise symbols never occur as conclusions, a fired
conclusion can never enable another rule, so a single pass already reaches
the fixpoint; `closed_form_ternary` / `closed_form_binary` are those guarded
shortcuts.  Both share one pass, `_one_pass`, which looks only at the rules
whose first premise is in X (through `LogicSystem.first_premise_index`), so
a query costs time in the rules it can reach, not in the size of the
system.  They are fast paths, never the definition: callers must fall back
to `close` when the shape recognizer refuses.  `step` and `close_naive` stay
the readable full-scan reference that the tests compare them against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DuplicateElement, LanguageMismatch, TooShort
from .model import Language, LogicSystem, Rule, Sort, Symbol, _require_shape, symbol_key

# Deduction sets are plain frozensets of symbols over the system's language;
# mixing sorts is fine.
DeductionSet = frozenset[Symbol]


def _deduction_set(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    x = frozenset(members)
    if not x <= system.language.symbols:
        if odd := sorted(repr(m) for m in x if not isinstance(m, Symbol)):
            raise LanguageMismatch(f"member {odd[0]} is not a Symbol")
        stray = min(x - system.language.symbols, key=symbol_key)
        raise LanguageMismatch(
            f"symbol {stray.name!r} ({stray.sort.value}) is not in the system's language"
        )
    return x


def step(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    """One simultaneous application of the coordinate rule after insertion.

    Returns X together with the conclusion of every rule whose premise set
    is already contained in X.
    """
    x = _deduction_set(system, members)
    fired = {r.conclusion for r in system.rules if r.premise_set <= x}
    return x | fired


def close(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    """Smallest superset of the input closed under all rules (semi-naive).

    Keeps a countdown of missing premises per rule; a rule fires exactly when
    its count reaches zero, and each symbol is queued at most once.  Always
    equals `close_naive`.
    """
    x = _deduction_set(system, members)
    offsets, premise_rules, conclusions = system._offsets, system._premise_rules, system._conclusions
    need = list(system.premise_counts)
    seen = bytearray(len(system._symbols))
    queue = list(map(system._ids.__getitem__, x))
    for s in queue:
        seen[s] = 1
    # the loop visits the ids it appends: each derived symbol once
    for s in queue:
        for i in premise_rules[offsets[s] : offsets[s + 1]]:
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


def _one_pass(system: LogicSystem, x: DeductionSet) -> DeductionSet:
    """X plus the conclusion of every rule whose premise set lies inside X.

    This is `step` restricted to the rules reachable through
    `first_premise_index` from X: a rule whose first premise is outside X
    cannot have its premise set inside X, so no other rule can fire.  Each
    rule is looked at once at most.
    """
    index = system.first_premise_index
    return x | {c for s in x for premises, c in index.get(s, ()) if premises <= x}


def closed_form_ternary(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    """Value of the operator for a mixed ternary system, in one pass.

    Requires `is_mixed_ternary(system)`: premise/conclusion disjointness
    guarantees no chaining, so X extended with the conclusions of all rules
    whose premise set lies inside X is already closed.
    """
    _require_shape(system.ternary_shape, "ternary")
    return _one_pass(system, _deduction_set(system, members))


def closed_form_binary(system: LogicSystem, members: Iterable[Symbol]) -> DeductionSet:
    """One-pass value for a mixed binary system: X plus the conclusion of
    every rule whose single premise is in X."""
    _require_shape(system.binary_shape, "binary")
    return _one_pass(system, _deduction_set(system, members))


def chain_system(elements: Sequence[Symbol]) -> LogicSystem:
    """Binary system linking consecutive elements of a sequence.

    Given distinct e0..eN (N >= 1) builds the rules e_i => e_{i+1} over the
    smallest language containing the elements.  Closing from {e_i} yields the
    tail {e_i..eN}, which is the whole element set exactly when i = 0.
    """
    elems = tuple(elements)
    if len(elems) < 2:
        raise TooShort("a chain needs at least two elements")
    if len(set(elems)) != len(elems):
        seen: set[Symbol] = set()
        for e in elems:
            if e in seen:
                raise DuplicateElement(f"chain element {e.name!r} repeats")
            seen.add(e)
    language = Language(
        frozenset(e for e in elems if e.sort is Sort.STANDARD),
        frozenset(e for e in elems if e.sort is Sort.NONSTANDARD),
    )
    rules = tuple(Rule((a,), b) for a, b in zip(elems, elems[1:]))
    return LogicSystem(language, rules)
