"""Core model: two-sorted symbols, languages, rules, and logic systems.

A language splits its symbols into a standard part and a nonstandard part,
disjoint by name.  A rule is an ordered tuple of at least two symbols: the
leading ones are premises, the last is the conclusion.  A logic system is a
nonempty finite set of rules over one language; duplicate rule tuples
collapse.  Deduction (see closure.py) only ever looks at a rule's premise
*set*, but the premise order is kept so that documents round-trip verbatim.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BadIdentifier,
    EmptySystem,
    EmptyStandardPart,
    NameCollision,
    NullaryRule,
    UnknownSymbol,
)

RESERVED_CHARS = frozenset(",=>#:")


class Sort(enum.Enum):
    STANDARD = "standard"
    NONSTANDARD = "nonstandard"

    def __repr__(self) -> str:
        return f"Sort.{self.name}"


@dataclass(frozen=True)
class Symbol:
    """An atomic identifier tagged with a sort.

    Equality is by (name, sort).  Names are free-form identifiers: non-empty,
    no whitespace, and none of the reserved characters ``, = > # :``.
    """

    name: str
    sort: Sort

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise BadIdentifier("symbol name must be a non-empty string")
        if any(c.isspace() for c in self.name):
            raise BadIdentifier(f"symbol name {self.name!r} contains whitespace")
        bad = RESERVED_CHARS.intersection(self.name)
        if bad:
            raise BadIdentifier(
                f"symbol name {self.name!r} contains reserved character {sorted(bad)[0]!r}"
            )
        if not isinstance(self.sort, Sort):
            raise BadIdentifier(f"bad sort for symbol {self.name!r}: {self.sort!r}")

    def __hash__(self) -> int:
        # Equal symbols share a name, so the name alone is a valid hash, and
        # hashing one string is much cheaper than the generated hash of the
        # (name, sort) tuple.
        return hash(self.name)

    @property
    def is_standard(self) -> bool:
        return self.sort is Sort.STANDARD

    def __str__(self) -> str:
        return self.name


def symbol_key(s: Symbol) -> tuple[str, str]:
    """Deterministic ordering key; name first, sort as tie-break."""
    return (s.name, s.sort.value)


@dataclass(frozen=True)
class Language:
    """A finite symbol universe split into standard and nonstandard parts.

    The standard part is non-empty and the parts are disjoint by name, so a
    name identifies a unique symbol within one language.
    """

    standard_part: frozenset[Symbol]
    nonstandard_part: frozenset[Symbol]

    def __post_init__(self):
        object.__setattr__(self, "standard_part", frozenset(self.standard_part))
        object.__setattr__(self, "nonstandard_part", frozenset(self.nonstandard_part))
        for s in self.standard_part:
            if s.sort is not Sort.STANDARD:
                raise ValueError(f"symbol {s.name!r} in standard part has sort {s.sort.value}")
        for s in self.nonstandard_part:
            if s.sort is not Sort.NONSTANDARD:
                raise ValueError(f"symbol {s.name!r} in nonstandard part has sort {s.sort.value}")
        if not self.standard_part:
            raise EmptyStandardPart("language needs at least one standard symbol")
        shared = {s.name for s in self.standard_part} & {s.name for s in self.nonstandard_part}
        if shared:
            raise NameCollision(f"name {sorted(shared)[0]!r} is declared in both sorts")

    @cached_property
    def symbols(self) -> frozenset[Symbol]:
        return self.standard_part | self.nonstandard_part

    @cached_property
    def _by_name(self) -> dict[str, Symbol]:
        return {s.name: s for s in self.symbols}

    def resolve(self, name: str) -> Symbol:
        """Look a name up in either part; raises UnknownSymbol."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownSymbol(f"unknown symbol {name!r}") from None

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self.symbols

    def __repr__(self) -> str:
        std = ",".join(sorted(s.name for s in self.standard_part))
        non = ",".join(sorted(s.name for s in self.nonstandard_part))
        return f"Language(standard={{{std}}}, nonstandard={{{non}}})"


@dataclass(frozen=True)
class Rule:
    """An inference rule: n-1 ordered premises and one conclusion, n >= 2.

    Identity is the full ordered tuple, but deduction depends only on
    `premise_set` and `conclusion`.
    """

    premises: tuple[Symbol, ...]
    conclusion: Symbol

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))
        if not self.premises:
            raise NullaryRule(f"rule concluding {self.conclusion.name!r} has no premises")

    @cached_property
    def premise_set(self) -> frozenset[Symbol]:
        return frozenset(self.premises)

    @property
    def arity(self) -> int:
        return len(self.premises) + 1

    @cached_property
    def sort_key(self) -> tuple:
        return (
            self.arity,
            tuple(symbol_key(p) for p in self.premises),
            symbol_key(self.conclusion),
        )

    def __str__(self) -> str:
        return f"{' '.join(p.name for p in self.premises)} => {self.conclusion.name}"


@dataclass(frozen=True)
class LogicSystem:
    """A nonempty set of rules over one language.

    Rules are stored deduplicated in a canonical order (arity, premise names,
    conclusion), so equal systems compare equal and iteration, diagnostics,
    and rendering are deterministic.
    """

    language: Language
    rules: tuple[Rule, ...]

    def __post_init__(self):
        canonical = tuple(sorted(set(self.rules), key=lambda r: r.sort_key))
        object.__setattr__(self, "rules", canonical)
        if not canonical:
            raise EmptySystem("a logic system needs at least one rule")
        for rule in canonical:
            for s in (*rule.premises, rule.conclusion):
                if s not in self.language:
                    raise UnknownSymbol(
                        f"rule ({rule}) uses symbol {s.name!r} not in the language"
                    )

    @cached_property
    def symbols(self) -> frozenset[Symbol]:
        """All symbols that appear in some rule."""
        out: set[Symbol] = set()
        for rule in self.rules:
            out.update(rule.premises)
            out.add(rule.conclusion)
        return frozenset(out)

    @cached_property
    def conclusions(self) -> frozenset[Symbol]:
        return frozenset(r.conclusion for r in self.rules)

    @cached_property
    def premise_index(self) -> dict[Symbol, tuple[int, ...]]:
        """Maps each symbol to the indices of rules having it as a premise."""
        index: dict[Symbol, list[int]] = {}
        for i, rule in enumerate(self.rules):
            for p in rule.premise_set:
                index.setdefault(p, []).append(i)
        return {s: tuple(ids) for s, ids in index.items()}

    @cached_property
    def first_premise_index(self) -> dict[Symbol, tuple[Rule, ...]]:
        """Maps each symbol to the rules whose first premise it is.

        Every rule appears under exactly one key.  The one-pass closed forms
        walk this index from the members of X, so a query looks only at the
        rules whose first premise is in X, not at every rule.  Built lazily
        on the first one-pass query; `close` never needs it.
        """
        index: dict[Symbol, list[Rule]] = {}
        for rule in self.rules:
            index.setdefault(rule.premises[0], []).append(rule)
        return {s: tuple(rules) for s, rules in index.items()}

    @cached_property
    def premise_counts(self) -> tuple[int, ...]:
        """Number of distinct premises per rule, aligned with `rules`."""
        return tuple(len(r.premise_set) for r in self.rules)

    @cached_property
    def ternary_shape(self) -> "ShapeCheck":
        """Memoized `is_mixed_ternary(self)`; systems are immutable."""
        return is_mixed_ternary(self)

    @cached_property
    def binary_shape(self) -> "ShapeCheck":
        """Memoized `is_mixed_binary(self)`."""
        return is_mixed_binary(self)

    def __len__(self) -> int:
        return len(self.rules)


def make_language(
    standard_names: Iterable[str], nonstandard_names: Iterable[str]
) -> Language:
    """Build a language from two name sets; all invariants are validated."""
    std = frozenset(Symbol(n, Sort.STANDARD) for n in standard_names)
    non = frozenset(Symbol(n, Sort.NONSTANDARD) for n in nonstandard_names)
    return Language(std, non)


def make_system(
    language: Language,
    rule_tuples: Sequence[tuple[Sequence[str], str]],
) -> LogicSystem:
    """Build a system from (premise-names, conclusion-name) tuples.

    Duplicate tuples collapse; unknown names raise UnknownSymbol and an empty
    premise sequence raises NullaryRule.
    """
    if not rule_tuples:
        raise EmptySystem("a logic system needs at least one rule")
    rules = []
    for premise_names, conclusion_name in rule_tuples:
        premises = tuple(language.resolve(n) for n in premise_names)
        conclusion = language.resolve(conclusion_name)
        if not premises:
            raise NullaryRule(f"rule concluding {conclusion_name!r} has no premises")
        rules.append(Rule(premises, conclusion))
    return LogicSystem(language, tuple(rules))


@dataclass(frozen=True)
class ShapeCheck:
    """Result of a shape recognizer: truthiness plus a human diagnostic."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_mixed_ternary(system: LogicSystem) -> ShapeCheck:
    """Recognize the shape whose closure is a single rule pass.

    Requires every rule to be ternary with a standard first premise, a
    nonstandard second premise and a standard conclusion, and additionally
    that no premise symbol of any rule equals a conclusion symbol of any
    rule.  The disjointness is what rules out chaining: a fired conclusion
    can never enable another rule.
    """
    for rule in system.rules:
        if rule.arity != 3:
            return ShapeCheck(False, f"rule ({rule}) is not ternary")
        first, second = rule.premises
        if not first.is_standard:
            return ShapeCheck(False, f"first premise {first.name} of rule ({rule}) is nonstandard")
        if second.is_standard:
            return ShapeCheck(False, f"second premise {second.name} of rule ({rule}) is standard")
        if not rule.conclusion.is_standard:
            return ShapeCheck(False, f"conclusion {rule.conclusion.name} of rule ({rule}) is nonstandard")
    conclusion_owner = {r.conclusion: r for r in reversed(system.rules)}
    for rule in system.rules:
        for p in rule.premises:
            if p in conclusion_owner:
                other = conclusion_owner[p]
                return ShapeCheck(
                    False,
                    f"premise {p.name} of rule ({rule}) equals conclusion of rule ({other})",
                )
    return ShapeCheck(True)


def is_mixed_binary(system: LogicSystem) -> ShapeCheck:
    """Recognize binary rules with a nonstandard premise and standard conclusion.

    Premise/conclusion disjointness holds automatically because the sorts of
    a language are disjoint.
    """
    for rule in system.rules:
        if rule.arity != 2:
            return ShapeCheck(False, f"rule ({rule}) is not binary")
        premise = rule.premises[0]
        if premise.is_standard:
            return ShapeCheck(False, f"premise {premise.name} of rule ({rule}) is standard")
        if not rule.conclusion.is_standard:
            return ShapeCheck(False, f"conclusion {rule.conclusion.name} of rule ({rule}) is nonstandard")
    return ShapeCheck(True)
