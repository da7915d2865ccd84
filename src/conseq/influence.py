"""Repetition-multiplicity ordering on rule systems.

A conclusion backed by more rules counts as produced by a stronger
influencing process: repetition is emphasis.  For ternary systems the anchor
is the (first premise, conclusion) pair; since rule sets collapse duplicate
tuples, the matched rules necessarily differ in their nonstandard middle
coordinate, so the multiplicity is the number of distinct repetitions.  For
binary systems the anchor is the conclusion alone.

The counts read the arrays `LogicSystem` compiles, never the `Rule` objects.
In a system of one arity the canonical order sorts rules by first premise
id, so `weight_ternary` bisects the run of rules anchored on `a` and counts
`b` within it: O(log m + k) for m rules and a run of k.  `weight_binary`
counts one conclusion id over all m conclusion ids in a single C-level pass.

Only the strict comparison is defined; equal multiplicities are reported as
incomparable rather than inventing a tie-break.  Weights from different
systems compare by number only.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq

from .errors import InvalidValue, PreconditionViolated, UnknownSymbol
from .model import LogicSystem, Rule, Symbol, _require_instance, _require_symbols


@dataclass(frozen=True)
class InfluenceWeight:
    """Multiplicity of the rules backing one conclusion (optionally anchored
    on a first premise)."""

    conclusion: Symbol
    multiplicity: int
    anchor_premise: Symbol | None = None

    def __post_init__(self):
        if not isinstance(self.multiplicity, int):
            raise InvalidValue(f"multiplicity is not an int: {self.multiplicity!r}")
        if self.multiplicity < 0:
            raise InvalidValue("multiplicity cannot be negative")


class Strength(enum.Enum):
    STRONGER = "stronger"
    WEAKER = "weaker"
    INCOMPARABLE_EQUAL = "incomparable-equal"

    def __str__(self) -> str:
        return self.value


def _require_symbol(system: LogicSystem, s: Symbol) -> None:
    if s not in system.language:
        _require_symbols((s,))
        raise UnknownSymbol(f"symbol {s.name!r} is not in the system's language")


def _require_uniform_arity(system: LogicSystem, arity: int, label: str) -> None:
    # O(1) when it passes; a failing check scans to name the first bad rule
    try:
        arities = system._arities
    except AttributeError:
        _require_instance(system, LogicSystem, "system", "a LogicSystem")
        raise
    if arities != {arity}:
        key = next(k for k in system._keys if k[0] + 1 != arity)
        raise PreconditionViolated(f"rule ({system._rule(key)}) is not {label}")


def matched_rules_ternary(system: LogicSystem, a: Symbol, b: Symbol) -> tuple[Rule, ...]:
    """Rules with first premise `a` and conclusion `b`, in canonical order;
    only the matched ones are built, from their keys."""
    _require_symbol(system, a)
    _require_symbol(system, b)
    matches = map(eq, zip(system._firsts, system._conclusions), repeat((system._ids[a], system._ids[b])))
    return tuple(map(system._rule, compress(system._keys, matches)))


def matched_rules_binary(system: LogicSystem, b: Symbol) -> tuple[Rule, ...]:
    """Rules concluding `b`, in canonical order, built from their keys."""
    _require_symbol(system, b)
    matches = map(eq, system._conclusions, repeat(system._ids[b]))
    return tuple(map(system._rule, compress(system._keys, matches)))


def weight_ternary(system: LogicSystem, a: Symbol, b: Symbol) -> InfluenceWeight:
    """Count the rules of a ternary system matching premise `a` and
    conclusion `b`."""
    _require_uniform_arity(system, 3, "ternary")
    _require_symbol(system, a)
    _require_symbol(system, b)
    # one arity: `_firsts` is non-decreasing, so `a`'s rules are one run
    first = system._ids[a]
    lo = bisect_left(system._firsts, first)
    hi = bisect_right(system._firsts, first, lo)
    count = system._conclusions[lo:hi].count(system._ids[b])
    return InfluenceWeight(conclusion=b, multiplicity=count, anchor_premise=a)


def weight_binary(system: LogicSystem, b: Symbol) -> InfluenceWeight:
    """Count the rules of a binary system concluding `b`."""
    _require_uniform_arity(system, 2, "binary")
    _require_symbol(system, b)
    count = system._conclusions.count(system._ids[b])
    return InfluenceWeight(conclusion=b, multiplicity=count)


def compare_influence(w1: InfluenceWeight, w2: InfluenceWeight) -> Strength:
    """Strict comparison of multiplicities: is w1's process stronger than w2's?"""
    if w1.multiplicity > w2.multiplicity:
        return Strength.STRONGER
    if w1.multiplicity < w2.multiplicity:
        return Strength.WEAKER
    return Strength.INCOMPARABLE_EQUAL
