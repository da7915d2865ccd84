"""Core model: two-sorted symbols, languages, rules, and logic systems.

A language splits its symbols into a standard part and a nonstandard part,
disjoint by name.  A rule is an ordered tuple of at least two symbols: the
leading ones are premises, the last is the conclusion.  A logic system is a
nonempty finite set of rules over one language; duplicate rule tuples
collapse.  Deduction (see closure.py) only ever looks at a rule's premise
*set*, but the premise order is kept so that documents round-trip verbatim.

Symbols are interned: `Symbol(name, sort)` returns the one live object for
that pair, so equality is identity and every set and dict hashes and
compares symbols with `object`'s C slots.  The intern table holds symbols
by weak reference, so unreferenced ones are freed; a symbol costs about
168 bytes: 56 for the object, 80 for its weak reference and about 32 for
its table entry.  One function, `_intern`, creates symbols, for `Symbol`
and for `make_language`, which the parser builds its language with too; it
interns a batch of names in name order, the order of the ids a system
gives them.  `Symbol` is not a dataclass: `dataclasses.fields` and
`replace` do not apply to it.

Everything here is immutable after construction and safe to share between
threads.  Building a `LogicSystem` compiles it once to integer symbol and
rule ids, in time linear in the rules plus one sort; one `_compile` serves
every way of building one (the public constructor, `make_system`,
`chain_system` and the parser).  Each hands it a plain iterable of rule
keys, repeats allowed, and `_compile` collapses them, so a system is the
set of its rules whichever way it was built.  A system stores each rule
only as its compiled key; its `Rule` objects are built from the keys on
first use of `rules`, see the `LogicSystem` docstring.

The two shapes whose closure is a single rule pass, mixed ternary
(standard nonstandard => standard) and mixed binary (nonstandard =>
standard), are one definition: `_SHAPES` gives the sort each position of a
rule needs, and `_mixed_shape` recognizes either from the compiled form.
"""

from __future__ import annotations

import enum
import re
import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadIdentifier,
    EmptySystem,
    EmptyStandardPart,
    FrozenSymbol,
    InvalidValue,
    LanguageMismatch,
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

    # members are singletons that compare by identity, so object's C-level
    # hash is valid and spares every sort-keyed lookup Enum's Python one
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Sort.{self.name}"


# The intern tables: for each sort, name -> weak reference to the one live
# Symbol of that (name, sort).  A reference carries no callback, so a freed
# symbol leaves a dead entry; `_intern` sweeps those out whenever a table
# has doubled since its last sweep, which keeps the sweeps amortised O(1).
_INTERNED: dict[Sort, dict[str, weakref.ref]] = {sort: {} for sort in Sort}
# `Sort.STANDARD` is a descriptor call on Python 3.11 (about 0.2 us); the
# per-lookup paths read these module names instead
_STANDARD, _NONSTANDARD = Sort
_SWEEP_AT = {sort: 1024 for sort in Sort}
_INTERN_LOCK = threading.Lock()


def _interned(name: str, sort: Sort) -> Symbol | None:
    """The live symbol (name, sort) if there is one; never creates it."""
    try:
        ref = _INTERNED[sort].get(name)
    except (KeyError, TypeError):  # not a sort, or an unhashable name
        return None
    return ref and ref()


def _first_bad_name(names: Sequence[str]) -> int | None:
    """Index of the first of `names` that is not an identifier string, or
    None.  One regex match over the joined names decides the common case;
    only a failure walks the names to find the bad one."""
    try:
        if NAME_RE.fullmatch("".join(names)) and all(names):
            return None
    except TypeError:  # a name that is not a str
        pass
    return next((j for j, name in enumerate(names) if not isinstance(name, str) or not NAME_RE.fullmatch(name)), None)


class Symbol:
    """An atomic identifier tagged with a sort.

    Symbols are interned: `Symbol(name, sort)` returns the one live object
    for that pair, so equality is identity and `hash`/`==` are `object`'s
    own C slots.  Names match ``[A-Za-z0-9_]+`` (ASCII letters, digits and
    underscores), the same grammar as the .lgs format.  Symbols are
    immutable, and `pickle`, `copy` and `deepcopy` give back the same
    object.  An unreferenced symbol is freed; the table holds it weakly.
    """

    __slots__ = ("name", "sort", "__weakref__")
    __match_args__ = ("name", "sort")

    name: str
    sort: Sort

    def __new__(cls, name: str, sort: Sort) -> Symbol:
        # a hit returns the interned object and runs no validation again
        return _interned(name, sort) or _intern([name], sort)[0]

    def __reduce__(self):
        return Symbol, (self.name, self.sort)

    def __setattr__(self, name, value):
        raise FrozenSymbol(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenSymbol(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Symbol(name={self.name!r}, sort={self.sort!r})"

    @property
    def is_standard(self) -> bool:
        return self.sort is _STANDARD

    def __str__(self) -> str:
        return self.name


# A symbol's two slots, set directly: the class's own __setattr__ refuses
_SET_NAME, _SET_SORT = Symbol.name.__set__, Symbol.sort.__set__


def _intern(names: Sequence[str], sort: Sort) -> list[Symbol]:
    """The symbols of `names`, sorted by name, creating each that has no
    live one; the one function that creates symbols.

    A bad name raises BadIdentifier naming the first one in the caller's
    order, and so does a `sort` that is not a `Sort`.  The names are
    interned in name order, which is id order (`Language._numbering`), so
    a long closure's symbols lie together in memory.  One lock makes every
    check and insert one step, so two threads never create two objects for
    one pair, and one sweep check after the inserts keeps the table from
    holding dead entries."""
    if (bad := _first_bad_name(names)) is not None:
        raise BadIdentifier(f"symbol name {names[bad]!r} does not match [A-Za-z0-9_]+")
    if not isinstance(sort, Sort):
        raise BadIdentifier(f"bad sort for symbol {names[0]!r}: {sort!r}")
    table = _INTERNED[sort]
    get, new, ref = table.get, object.__new__, weakref.ref
    symbols = []
    with _INTERN_LOCK:
        for name in sorted(names):
            symbol = (r := get(name)) and r()
            if symbol is None:
                symbol = new(Symbol)
                _SET_NAME(symbol, name)
                _SET_SORT(symbol, sort)
                table[name] = ref(symbol)
            symbols.append(symbol)
        if len(table) >= _SWEEP_AT[sort]:
            for dead in [k for k, r in table.items() if r() is None]:
                del table[dead]
            _SWEEP_AT[sort] = max(1024, 2 * len(table))
    return symbols


def _require_symbols(members: Iterable[object]) -> None:
    """Raise LanguageMismatch naming the first member, by repr, that is not
    a `Symbol`."""
    if odd := sorted(repr(m) for m in members if not isinstance(m, Symbol)):
        raise LanguageMismatch(f"member {odd[0]} is not a Symbol")


def _iter_of(values: Iterable, argument: str) -> Iterator:
    """An iterator over `values`; InvalidValue naming `argument` when they
    are not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise InvalidValue(f"argument {argument} is not iterable: {values!r}") from None


def _tuple_of(values: Iterable, argument: str) -> tuple:
    """`values` as a tuple; only once `tuple` has failed, `_iter_of` checks
    whether they are iterable at all."""
    try:
        return tuple(values)
    except TypeError:
        _iter_of(values, argument)
        raise


def _language_attr(language: Language, name: str):
    """`language`'s attribute `name`; only once the lookup has failed,
    InvalidValue saying that `language` is not a Language."""
    if (value := getattr(language, name, None)) is None:
        _require_instance(language, Language, "language", "a Language")
    return value


def _require_instance(value: object, kind: type | tuple[type, ...], argument: str, noun: str) -> None:
    """InvalidValue saying that `argument` is not `noun` unless `value` is a
    `kind`.  Called only once an attribute lookup on `value` has failed, so
    the normal path pays nothing for it."""
    if not isinstance(value, kind):
        raise InvalidValue(f"argument {argument} is not {noun}: {value!r}")


def symbol_key(s: Symbol) -> tuple[str, str]:
    """Deterministic ordering key; name first, sort as tie-break."""
    return (s.name, s.sort._value_)  # `.value` is a Python property


@dataclass(frozen=True)
class Language:
    """A finite symbol universe split into standard and nonstandard parts.

    The standard part is non-empty and the parts are disjoint by name, so a
    name identifies a unique symbol within one language.
    """

    standard_part: frozenset[Symbol]
    nonstandard_part: frozenset[Symbol]

    def __post_init__(self):
        try:
            object.__setattr__(self, "standard_part", frozenset(self.standard_part))
            object.__setattr__(self, "nonstandard_part", frozenset(self.nonstandard_part))
            for part, sort in ((self.standard_part, Sort.STANDARD), (self.nonstandard_part, Sort.NONSTANDARD)):
                for s in part:
                    if s.sort is not sort:
                        raise InvalidValue(f"symbol {s.name!r} in {sort.value} part has sort {s.sort.value}")
        except (AttributeError, TypeError):  # a member that is not a symbol
            _require_symbols((*self.standard_part, *self.nonstandard_part))
            raise
        if not self.standard_part:
            raise EmptyStandardPart("language needs at least one standard symbol")
        shared = {s.name for s in self.standard_part} & {s.name for s in self.nonstandard_part}
        if shared:
            raise NameCollision(f"name {sorted(shared)[0]!r} is declared in both sorts")

    @cached_property
    def symbols(self) -> frozenset[Symbol]:
        return self.standard_part | self.nonstandard_part

    @cached_property
    def _numbering(self) -> tuple[tuple[Symbol, ...], dict[Symbol, int]]:
        """The symbols numbered by name: in id order, and each one's id.
        With these ids a rule's key (premise count, premise ids, conclusion
        id) sorts rules in the canonical order; see `LogicSystem`."""
        symbols = tuple(sorted((*self.standard_part, *self.nonstandard_part), key=attrgetter("name")))
        return symbols, dict(zip(symbols, range(len(symbols))))

    def _name_ids(self) -> dict[str, int]:
        """Each symbol's name mapped to its id, built per call for a front end
        that keys rules given by name (the parser and `make_system`).  The
        ids are `_numbering`'s own int objects, which the compiled arrays
        then share."""
        return {symbol.name: i for symbol, i in self._numbering[1].items()}

    def resolve(self, name: str) -> Symbol:
        """Look a name up in either part; raises UnknownSymbol.

        Every symbol of the language is alive, so it is the interned symbol
        of its name and sort; the parts only have to hold it."""
        if (symbol := _interned(name, _STANDARD)) in self.standard_part:
            return symbol
        if (symbol := _interned(name, _NONSTANDARD)) in self.nonstandard_part:
            return symbol
        raise UnknownSymbol(f"unknown symbol {name!r}")

    def __contains__(self, symbol: Symbol) -> bool:
        try:
            return symbol in self.symbols
        except TypeError:  # unhashable, so not a symbol
            return False

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
            # `str`, not `.name`: the conclusion need not be a symbol yet
            raise NullaryRule(f"rule concluding {str(self.conclusion)!r} has no premises")

    @property
    def premise_set(self) -> frozenset[Symbol]:
        return frozenset(self.premises)

    @property
    def arity(self) -> int:
        return len(self.premises) + 1

    def __str__(self) -> str:
        return f"{' '.join(p.name for p in self.premises)} => {self.conclusion.name}"


@dataclass(frozen=True, init=False)
class LogicSystem:
    """A nonempty set of rules over one language.

    `rules` may be any iterable of rules; it is read once.  Rules are
    stored deduplicated in a canonical order (arity, premise names,
    conclusion), so equal systems compare equal and iteration, diagnostics,
    and rendering are deterministic.  Every front end hands `_compile` a
    plain iterable of keys, repeats allowed, and `_compile` is the one place
    where duplicate rules collapse; a system keeps no record of where its
    rules came from (the parser maps each kept key to its first line
    itself, see `fileformat.parse_system`).

    Construction compiles the system once, in time linear in its size plus
    one sort of flat integer keys.  Ids number the language's symbols by
    name (`_symbols`; `_ids` maps back), so the key (premise count, premise
    ids, conclusion id) sorts rules in the canonical order.  The sorted
    keys, `_keys`, are the one stored form of each rule; `==` and `hash`
    read them and the language.  Per rule: `premise_counts` (distinct
    premises), `_firsts` (first premise ids) and `_conclusions` (ids).
    When every rule has one arity the key sorts by first premise id, so
    `_firsts` is non-decreasing and the rules sharing a first premise form
    one run, which `influence.weight_ternary` bisects.  Per symbol id s:
    `_premise_rules[s]`, the ascending ids of the rules having s among
    their distinct premises, or the shared `()`; `_arities` holds the
    arities.  `close`, `symbols` and `conclusions` read only these; a shape
    check decides a pass from `_arities`, `_conclusions` and the columns of
    `_keys` (see `_mixed_shape`).  `premise_index` is a view of them built
    on first use, sharing the tuples of `_premise_rules`, and
    `_first_premise_index` one built from the keys on the first
    `closure.step` (which the one-pass closed forms call): a rule of at
    most two distinct premises is filed under its first premise as the
    pair (other premise, conclusion), and only a rule of three or more
    keeps a premise frozenset.

    `rules` is built from the keys on first access, one `Rule` per key
    through `_rule`, and cached; a refused shape check builds only the
    rules its reason names.  Every front end numbers the symbols by
    `Language._numbering` and hands its keys to `_compile`.
    `LogicSystem(language, rules)` keys the caller's `Rule` objects.  The
    others key what they were given and compile it with `_from_keys`, so
    they make no `Rule` at all: the parser (`fileformat.parse_system`) and
    `make_system` key names through `Language._name_ids`, and
    `closure.chain_system` keys its consecutive elements.
    """

    language: Language
    _keys: tuple[tuple[int, ...], ...] = field(repr=False)

    def __init__(self, language: Language, rules: Iterable[Rule]):
        ids = _language_attr(language, "_numbering")[1]
        keys = []
        for rule in _iter_of(rules, "rules"):  # read once
            try:
                keys.append((len(rule.premises), *map(ids.__getitem__, rule.premises), ids[rule.conclusion]))
            except (AttributeError, KeyError, TypeError) as e:
                if not isinstance(rule, Rule):
                    raise InvalidValue(f"item {rule!r} is not a Rule") from None
                _require_symbols((*rule.premises, rule.conclusion))
                raise UnknownSymbol(f"rule ({rule}) uses symbol {e.args[0].name!r} not in the language") from None
        self._compile(language, keys)

    @classmethod
    def _from_keys(cls, language: Language, keys: Iterable[tuple[int, ...]]) -> LogicSystem:
        """The system of `keys`, each a rule's key (premise count, premise
        ids, conclusion id over `language._numbering`), repeats allowed.
        The keys are trusted."""
        system = object.__new__(cls)
        system._compile(language, keys)
        return system

    def _compile(self, language: Language, keys: Iterable[tuple[int, ...]]) -> None:
        """Set `language` and compile `keys` over its `_numbering`; no `Rule`
        is built.  Repeated keys collapse here and nowhere else:
        `dict.fromkeys` keeps the input order, which a front end often gives
        nearly sorted, so the sort that makes `_keys` stays cheap (a `set`
        would scramble it)."""
        symbols, ids = language._numbering
        keys = tuple(sorted(dict.fromkeys(keys)))
        if not keys:
            raise EmptySystem("a logic system needs at least one rule")
        put = object.__setattr__
        put(self, "language", language)
        put(self, "_keys", keys)
        distinct = [k[1:-1] if k[0] == 1 else set(k[1:-1]) for k in keys]
        # rules in canonical order, so each id's list comes out ascending
        per_id: list[list[int]] = [[] for _ in symbols]
        for i, ps in enumerate(distinct):
            for p in ps:
                per_id[p].append(i)
        put(self, "_premise_rules", tuple(map(tuple, per_id)))  # `tuple([])` is the shared `()`
        put(self, "premise_counts", tuple(map(len, distinct)))
        put(self, "_firsts", tuple(k[1] for k in keys))
        put(self, "_conclusions", tuple(k[-1] for k in keys))
        put(self, "_arities", frozenset(k[0] + 1 for k in keys))
        put(self, "_symbols", symbols)
        put(self, "_ids", ids)

    def _rule(self, key: tuple[int, ...]) -> Rule:
        """The `Rule` of one compiled key, through the public constructor."""
        return Rule(tuple(map(self._symbols.__getitem__, key[1:-1])), self._symbols[key[-1]])

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        """The rules in canonical order, built from `_keys` on first access."""
        return tuple(map(self._rule, self._keys))

    @cached_property
    def symbols(self) -> frozenset[Symbol]:
        """All symbols that appear in some rule: the ids with a premise
        occurrence or a rule concluding them."""
        ids = {*compress(range(len(self._symbols)), self._premise_rules), *self._conclusions}
        return frozenset(map(self._symbols.__getitem__, ids))

    @cached_property
    def conclusions(self) -> frozenset[Symbol]:
        return frozenset(map(self._symbols.__getitem__, set(self._conclusions)))

    @cached_property
    def premise_index(self) -> dict[Symbol, tuple[int, ...]]:
        """Maps each symbol to the indices of rules having it as a premise:
        the nonempty entries of `_premise_rules`, the same tuple objects."""
        rules = self._premise_rules
        return dict(compress(zip(self._symbols, rules), rules))

    @cached_property
    def _first_premise_index(self) -> tuple[dict[Symbol, tuple[tuple[Symbol, Symbol], ...]],
                                            dict[Symbol, tuple[tuple[frozenset[Symbol], Symbol], ...]]]:
        """Two maps from each symbol to the rules whose written first premise
        it is, each rule under exactly one key: `pairs` and `wide`.

        A rule of at most two distinct premises is the pair (other,
        conclusion) in `pairs`, where `other` is its second distinct
        premise, or its first premise again when it has one distinct premise
        (`a => b`, `a a => b`).  Its premise set lies inside X exactly when
        its key and `other` are in X, so no premise set is stored.  A rule
        of three or more distinct premises is (premise set, conclusion) in
        `wide`, which is empty unless the system has such a rule.

        `closure.step` walks both from the members of X, so a query looks
        only at the rules whose first premise is in X.  Built on the first
        `step`, which the one-pass closed forms call; `close` never needs it.
        """
        at = self._symbols.__getitem__
        pairs: dict[Symbol, list[tuple[Symbol, Symbol]]] = {}
        wide: dict[Symbol, list[tuple[frozenset[Symbol], Symbol]]] = {}
        for key, count in zip(self._keys, self.premise_counts):
            first = key[1]
            if count > 2:
                wide.setdefault(at(first), []).append((frozenset(map(at, key[1:-1])), at(key[-1])))
            else:
                # with one or two written premises, the last one is the other
                other = key[-2] if key[0] <= 2 else next((p for p in key[2:-1] if p != first), first)
                pairs.setdefault(at(first), []).append((at(other), at(key[-1])))
        return {s: tuple(v) for s, v in pairs.items()}, {s: tuple(v) for s, v in wide.items()}

    @cached_property
    def ternary_shape(self) -> "ShapeCheck":
        """Memoized `is_mixed_ternary(self)`; systems are immutable."""
        return is_mixed_ternary(self)

    @cached_property
    def binary_shape(self) -> "ShapeCheck":
        """Memoized `is_mixed_binary(self)`."""
        return is_mixed_binary(self)

    def __len__(self) -> int:
        return len(self._keys)


def make_language(
    standard_names: Iterable[str], nonstandard_names: Iterable[str]
) -> Language:
    """Build a language from two name sets; all invariants are validated.

    Each part's names are checked with one regex match over them all and
    interned in name order under one lock (`_intern`); a bad name raises
    BadIdentifier, naming the first one in iteration order, and a part
    given as one string or bytes (not a collection of names), or not
    iterable at all, InvalidValue."""
    for part, names in (("standard", standard_names), ("nonstandard", nonstandard_names)):
        if isinstance(names, (str, bytes)):
            raise InvalidValue(f"{part} names {names!r} are a string, not a collection of names")
    std = frozenset(_intern(_tuple_of(standard_names, "standard_names"), _STANDARD))
    return Language(std, frozenset(_intern(_tuple_of(nonstandard_names, "nonstandard_names"), _NONSTANDARD)))


def make_system(
    language: Language,
    rule_tuples: Sequence[tuple[Sequence[str], str]],
) -> LogicSystem:
    """Build a system from (premise-names, conclusion-name) tuples.

    Duplicate tuples collapse; unknown names raise UnknownSymbol, a
    `language` that is not a Language, tuples that are not iterable, an
    item that is not a (premises, conclusion) pair or premises given as one
    string or bytes (or not iterable at all) InvalidValue, an empty premise
    sequence NullaryRule and an empty list EmptySystem.  Each item's names
    become a key of symbol ids through `Language._name_ids`, as the
    parser's do, and `LogicSystem._from_keys` compiles the list of keys,
    collapsing the repeats, so no `Rule` is built per item.
    """
    id_of = _language_attr(language, "_name_ids")().__getitem__
    keys = []
    for item in _iter_of(rule_tuples, "rule_tuples"):
        try:
            premise_names, conclusion_name = item
        except (TypeError, ValueError):
            raise InvalidValue(f"item {item!r} is not a (premises, conclusion) pair") from None
        if isinstance(premise_names, (str, bytes)):
            raise InvalidValue(f"premises {premise_names!r} are a string, not a sequence of names")
        try:
            names = (*premise_names, conclusion_name)
        except TypeError:
            raise InvalidValue(f"premises {premise_names!r} are not a sequence of names") from None
        try:
            key = (len(names) - 1, *map(id_of, names))
        except (KeyError, TypeError):  # a name of no symbol here, which `resolve` reports
            for name in names:
                language.resolve(name)
            raise
        if len(key) == 2:
            raise NullaryRule(f"rule concluding {conclusion_name!r} has no premises")
        keys.append(key)
    return LogicSystem._from_keys(language, keys)


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

    The compiled keys decide, read as columns: column j holds the distinct
    ids `key[j]` of every key (`key[0]` is the premise count), so with the
    shape's arity the last column, j == len(shape), is the conclusions.  A
    system passes when it has the shape's one arity, every id of each
    column has that position's sort, and every premise column is disjoint
    from the conclusions.  Columns are built one at a time and each sort
    test stops at the first wrong id, so an all-standard chain is refused
    on its first premise column.  The keys are scanned rule by rule only
    when it refuses, to find the first offending rule, which a refused
    system always has; only the rules the reason names are built.
    """
    try:
        shape, symbols = _SHAPES[label], system._symbols
    except AttributeError:
        _require_instance(system, LogicSystem, "system", "a LogicSystem")
        raise
    if system._arities == {len(shape)} and all(
        all(symbols[s].sort is sort for s in column) and (j == len(shape) or column.isdisjoint(system._conclusions))
        for j, (_, sort) in enumerate(shape, 1)
        for column in [set(map(itemgetter(j), system._keys))]
    ):
        return ShapeCheck(True)
    symbol, rule = system._symbols.__getitem__, system._rule
    for key in system._keys:
        if key[0] + 1 != len(shape):
            return ShapeCheck(False, f"rule ({rule(key)}) is not {label}")
        for (where, sort), s in zip(shape, map(symbol, key[1:])):
            if s.sort is not sort:
                return ShapeCheck(False, f"{where} {s.name} of rule ({rule(key)}) is {s.sort.value}")
    conclusion_owner = {symbol(k[-1]): k for k in reversed(system._keys)}
    for key in system._keys:
        for p in map(symbol, key[1:-1]):
            if p in conclusion_owner:
                other = rule(conclusion_owner[p])
                return ShapeCheck(False, f"premise {p.name} of rule ({rule(key)}) equals conclusion of rule ({other})")


def is_mixed_ternary(system: LogicSystem) -> ShapeCheck:
    """Recognize the mixed ternary shape, standard nonstandard => standard,
    with no premise a conclusion; see `_mixed_shape`."""
    return _mixed_shape(system, "ternary")


def is_mixed_binary(system: LogicSystem) -> ShapeCheck:
    """Recognize the mixed binary shape, nonstandard => standard.  Its sorts
    keep premises and conclusions apart, but `_mixed_shape` tests the
    disjointness all the same, as for every shape."""
    return _mixed_shape(system, "binary")


def _require_shape(system: LogicSystem, label: str) -> None:
    """Raise PreconditionViolated unless the system's memoized
    `ternary_shape` or `binary_shape`, by `label`, passed."""
    try:
        check = system.ternary_shape if label == "ternary" else system.binary_shape
    except AttributeError:
        _require_instance(system, LogicSystem, "system", "a LogicSystem")
        raise
    if not check:
        raise PreconditionViolated(f"not a mixed {label} system: {check.reason}")
