"""Repetition-multiplicity ordering on rule systems.

A conclusion backed by more rules counts as produced by a stronger
influencing process: repetition is emphasis.  For ternary systems the anchor
is the (first premise, conclusion) pair; since rule sets collapse duplicate
tuples, the matched rules necessarily differ in their nonstandard middle
coordinate, so the multiplicity is the number of distinct repetitions.  For
binary systems the anchor is the conclusion alone.

Only the strict comparison is defined; equal multiplicities are reported as
incomparable rather than inventing a tie-break.  Weights from different
systems compare by number only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InvalidValue, PreconditionViolated, UnknownSymbol
from .model import LogicSystem, Rule, Symbol


@dataclass(frozen=True)
class InfluenceWeight:
    """Multiplicity of the rules backing one conclusion (optionally anchored
    on a first premise)."""

    conclusion: Symbol
    multiplicity: int
    anchor_premise: Symbol | None = None

    def __post_init__(self):
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
        raise UnknownSymbol(f"symbol {s.name!r} is not in the system's language")


def _require_uniform_arity(system: LogicSystem, arity: int, label: str) -> None:
    # O(1) when it passes; a failing check scans to name the first bad rule
    if system._arities != {arity}:
        rule = next(r for r in system.rules if r.arity != arity)
        raise PreconditionViolated(f"rule ({rule}) is not {label}")


def matched_rules_ternary(system: LogicSystem, a: Symbol, b: Symbol) -> tuple[Rule, ...]:
    """Rules with first premise `a` and conclusion `b`, in canonical order."""
    return tuple(
        r for r in system.rules if r.premises[0] == a and r.conclusion == b
    )


def matched_rules_binary(system: LogicSystem, b: Symbol) -> tuple[Rule, ...]:
    """Rules concluding `b`, in canonical order."""
    return tuple(r for r in system.rules if r.conclusion == b)


def weight_ternary(system: LogicSystem, a: Symbol, b: Symbol) -> InfluenceWeight:
    """Count the rules of a ternary system matching premise `a` and
    conclusion `b`."""
    _require_uniform_arity(system, 3, "ternary")
    _require_symbol(system, a)
    _require_symbol(system, b)
    count = len(matched_rules_ternary(system, a, b))
    return InfluenceWeight(conclusion=b, multiplicity=count, anchor_premise=a)


def weight_binary(system: LogicSystem, b: Symbol) -> InfluenceWeight:
    """Count the rules of a binary system concluding `b`."""
    _require_uniform_arity(system, 2, "binary")
    _require_symbol(system, b)
    count = len(matched_rules_binary(system, b))
    return InfluenceWeight(conclusion=b, multiplicity=count)


def compare_influence(w1: InfluenceWeight, w2: InfluenceWeight) -> Strength:
    """Strict comparison of multiplicities: is w1's process stronger than w2's?"""
    if w1.multiplicity > w2.multiplicity:
        return Strength.STRONGER
    if w1.multiplicity < w2.multiplicity:
        return Strength.WEAKER
    return Strength.INCOMPARABLE_EQUAL
