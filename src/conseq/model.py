"""Core model: two-sorted symbols, languages, rules, and logic systems.

A language splits its symbols into a standard part and a nonstandard part,
disjoint by name.  A rule is an ordered tuple of at least two symbols: the
leading ones are premises, the last is the conclusion.  A logic system is a
nonempty finite set of rules over one language; duplicate rule tuples
collapse.  Deduction (see closure.py) only ever looks at a rule's premise
*set*, but the premise order is kept so that documents round-trip verbatim.

Everything here is immutable after construction and safe to share between
threads.  Building a `LogicSystem` compiles it once to integer symbol and
rule ids, in time linear in the rules plus one sort; see its docstring.

The two shapes whose closure is a single rule pass, mixed ternary
(standard nonstandard => standard) and mixed binary (nonstandard =>
standard), are one definition: `_SHAPES` gives the sort each position of a
rule needs, and `_mixed_shape` recognizes either from the compiled form.
"""

from __future__ import annotations

import enum
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import attrgetter, sub
from typing import Iterable, Sequence

from .errors import (
    BadIdentifier,
    EmptySystem,
    EmptyStandardPart,
    InvalidValue,
    NameCollision,
    NullaryRule,
    PreconditionViolated,
    UnknownSymbol,
)

# The one identifier grammar, shared with the .lgs format (fileformat.py):
# every name a Symbol accepts renders to text that parses back to it.
NAME_RE = re.compile(r"[A-Za-z0-9_]+")


class Sort(enum.Enum):
    STANDARD = "standard"
    NONSTANDARD = "nonstandard"

    def __repr__(self) -> str:
        return f"Sort.{self.name}"


@dataclass(frozen=True, slots=True)
class Symbol:
    """An atomic identifier tagged with a sort.

    Equality is by (name, sort).  Names match ``[A-Za-z0-9_]+`` (ASCII
    letters, digits and underscores), the same grammar as the .lgs format.
    """

    name: str
    sort: Sort

    def __post_init__(self):
        if not isinstance(self.name, str) or not NAME_RE.fullmatch(self.name):
            raise BadIdentifier(f"symbol name {self.name!r} does not match [A-Za-z0-9_]+")
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
        for part, sort in ((self.standard_part, Sort.STANDARD), (self.nonstandard_part, Sort.NONSTANDARD)):
            for s in part:
                if s.sort is not sort:
                    raise InvalidValue(f"symbol {s.name!r} in {sort.value} part has sort {s.sort.value}")
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


@dataclass(frozen=True, slots=True)
class Rule:
    """An inference rule: n-1 ordered premises and one conclusion, n >= 2.

    Identity is the full ordered tuple, but deduction depends only on
    `premise_set` and `conclusion`.  A rule holds its two fields and
    nothing else; `premise_set` is computed on each access.
    """

    premises: tuple[Symbol, ...]
    conclusion: Symbol

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))
        if not self.premises:
            raise NullaryRule(f"rule concluding {self.conclusion.name!r} has no premises")

    @property
    def premise_set(self) -> frozenset[Symbol]:
        return frozenset(self.premises)

    @property
    def arity(self) -> int:
        return len(self.premises) + 1

    def __str__(self) -> str:
        return f"{' '.join(p.name for p in self.premises)} => {self.conclusion.name}"


@dataclass(frozen=True)
class LogicSystem:
    """A nonempty set of rules over one language.

    `rules` may be any iterable of rules; it is read once.  Rules are
    stored deduplicated in a canonical order (arity, premise names,
    conclusion), so equal systems compare equal and iteration, diagnostics,
    and rendering are deterministic.  This is the one place where duplicate
    rules collapse: the first occurrence of each is kept, and `_sources[i]`
    is the input position of `rules[i]` (the parser's source lines go by
    it).

    Construction compiles the system once, in time linear in its size plus
    one sort of flat integer keys, and keeps no container per rule.  Ids
    number the language's symbols by name (`_symbols`; `_ids` maps back),
    so the key (premise count, premise ids, conclusion id) sorts rules in
    the canonical order.  `_of_sort[sort]` holds one byte per id, 1 where
    the id has that sort, compiled here so that the shape checks do not
    rebuild it.  Per rule: `premise_counts` (distinct premises), `_firsts`
    (first premise ids) and `_conclusions` (ids).  When every rule has one
    arity the key sorts by first premise id, so `_firsts` is non-decreasing
    and the rules sharing a first premise form one run, which
    `influence.weight_ternary` bisects.  The rules having premise id s are
    `_premise_rules[_offsets[s]:_offsets[s + 1]]` (CSR); `_arities` holds
    the arities.  `close`, `symbols`, `conclusions` and a passing shape
    check read only these.  `premise_index` is a view of them built on
    first use, `first_premise_index` one built on the first one-pass query.
    """

    language: Language
    rules: tuple[Rule, ...]

    def __post_init__(self):
        symbols = tuple(sorted(self.language.symbols, key=attrgetter("name")))
        ids = {s: i for i, s in enumerate(symbols)}
        rules = tuple(self.rules)  # any iterable, read once
        keyed: dict[tuple[int, ...], int] = {}  # key -> input index of its first rule
        for i, rule in enumerate(rules):
            try:
                key = (len(rule.premises), *map(ids.__getitem__, rule.premises), ids[rule.conclusion])
            except KeyError as e:
                stray = e.args[0].name
                raise UnknownSymbol(f"rule ({rule}) uses symbol {stray!r} not in the language") from None
            keyed.setdefault(key, i)
        if not keyed:
            raise EmptySystem("a logic system needs at least one rule")
        keys = sorted(keyed)
        distinct = [k[1:-1] if k[0] == 1 else set(k[1:-1]) for k in keys]
        m = len(keys)
        # premise occurrence (p, rule i) as p * m + i: sorts by premise, then rule
        codes = sorted(p * m + i for i, ps in enumerate(distinct) for p in ps)
        put = object.__setattr__
        put(self, "_sources", array("q", map(keyed.__getitem__, keys)))  # no int object per rule
        put(self, "rules", tuple(map(rules.__getitem__, self._sources)))
        put(self, "_symbols", symbols)
        put(self, "_ids", ids)
        put(self, "_of_sort", {sort: bytes(s.sort is sort for s in symbols) for sort in Sort})
        put(self, "_offsets", tuple(bisect_left(codes, s * m) for s in range(len(symbols) + 1)))
        put(self, "_premise_rules", tuple(c % m for c in codes))
        put(self, "premise_counts", tuple(map(len, distinct)))
        put(self, "_firsts", tuple(k[1] for k in keys))
        put(self, "_conclusions", tuple(k[-1] for k in keys))
        put(self, "_arities", frozenset(k[0] + 1 for k in keys))

    @cached_property
    def symbols(self) -> frozenset[Symbol]:
        """All symbols that appear in some rule: the ids with a premise
        occurrence or a rule concluding them."""
        o = self._offsets
        ids = {*compress(range(len(self._symbols)), map(sub, o[1:], o)), *self._conclusions}
        return frozenset(map(self._symbols.__getitem__, ids))

    @cached_property
    def conclusions(self) -> frozenset[Symbol]:
        return frozenset(map(self._symbols.__getitem__, set(self._conclusions)))

    @cached_property
    def premise_index(self) -> dict[Symbol, tuple[int, ...]]:
        """Maps each symbol to the indices of rules having it as a premise."""
        o, rules = self._offsets, self._premise_rules
        return {s: rules[o[i] : o[i + 1]] for i, s in enumerate(self._symbols) if o[i] < o[i + 1]}

    @cached_property
    def first_premise_index(self) -> dict[Symbol, tuple[tuple[frozenset[Symbol], Symbol], ...]]:
        """Maps each symbol to the (premise set, conclusion) of the rules whose
        first premise it is.

        Every rule appears under exactly one key.  The one-pass closed forms
        walk this index from the members of X, so a query looks only at the
        rules whose first premise is in X, not at every rule, and tests each
        against a premise set hashed once here.  Built lazily on the first
        one-pass query; `close` never needs it.
        """
        index: dict[Symbol, list[tuple[frozenset[Symbol], Symbol]]] = {}
        for rule in self.rules:
            index.setdefault(rule.premises[0], []).append((rule.premise_set, rule.conclusion))
        return {s: tuple(rules) for s, rules in index.items()}

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

    Duplicate tuples collapse; unknown names raise UnknownSymbol, premises
    given as one string (not a sequence of names) InvalidValue, an empty
    premise sequence NullaryRule (from `Rule`) and an empty list EmptySystem
    (from `LogicSystem`).
    """
    rules = []
    for premise_names, conclusion_name in rule_tuples:
        if isinstance(premise_names, str):
            raise InvalidValue(f"premises {premise_names!r} are a string, not a sequence of names")
        rules.append(Rule(tuple(map(language.resolve, premise_names)), language.resolve(conclusion_name)))
    return LogicSystem(language, rules)


@dataclass(frozen=True)
class ShapeCheck:
    """Result of a shape recognizer: truthiness plus a human diagnostic."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# The rule shapes whose closure is a single pass: the sort each position of
# a rule must have, premises first and the conclusion last, and the name a
# diagnostic gives the position.
_SHAPES = {
    "ternary": (("first premise", Sort.STANDARD), ("second premise", Sort.NONSTANDARD),
                ("conclusion", Sort.STANDARD)),
    "binary": (("premise", Sort.NONSTANDARD), ("conclusion", Sort.STANDARD)),
}


def _mixed_shape(system: LogicSystem, label: str) -> ShapeCheck:
    """Recognize a one-pass shape: every rule has the sorts `_SHAPES[label]`,
    and no premise symbol of any rule equals a conclusion symbol of any
    rule.  The disjointness is what rules out chaining: a fired conclusion
    can never enable another rule.

    The compiled form decides a passing system, reading each id's sort from
    `_of_sort`.  In both shapes every premise after the first is nonstandard
    and every conclusion standard, so with the first premises (`_firsts`)
    of the right sort, the premise
    occurrences on nonstandard ids (CSR counts) number exactly the rules
    times those positions, and only first premises can equal a conclusion.
    The rules are scanned only on failure, to name the first offending one.
    """
    shape = _SHAPES[label]
    if system._arities == {len(shape)}:
        nonstandard_positions = [sort for _, sort in shape[:-1]].count(Sort.NONSTANDARD)
        o = system._offsets
        if (
            all(map(system._of_sort[shape[0][1]].__getitem__, system._firsts))
            and all(map(system._of_sort[shape[-1][1]].__getitem__, system._conclusions))
            and sum(compress(map(sub, o[1:], o), system._of_sort[Sort.NONSTANDARD]))
            == len(system._conclusions) * nonstandard_positions
            and set(system._conclusions).isdisjoint(system._firsts)
        ):
            return ShapeCheck(True)
    for rule in system.rules:
        if rule.arity != len(shape):
            return ShapeCheck(False, f"rule ({rule}) is not {label}")
        for (where, sort), s in zip(shape, (*rule.premises, rule.conclusion)):
            if s.sort is not sort:
                return ShapeCheck(False, f"{where} {s.name} of rule ({rule}) is {s.sort.value}")
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


def is_mixed_ternary(system: LogicSystem) -> ShapeCheck:
    """Recognize the mixed ternary shape, standard nonstandard => standard,
    with no premise a conclusion; see `_mixed_shape`."""
    return _mixed_shape(system, "ternary")


def is_mixed_binary(system: LogicSystem) -> ShapeCheck:
    """Recognize the mixed binary shape, nonstandard => standard; premises
    and conclusions are disjoint because the sorts are.  See `_mixed_shape`."""
    return _mixed_shape(system, "binary")


def _require_shape(check: ShapeCheck, label: str) -> None:
    """Raise PreconditionViolated unless `check`, a system's memoized
    `ternary_shape` or `binary_shape`, passed."""
    if not check:
        raise PreconditionViolated(f"not a mixed {label} system: {check.reason}")
