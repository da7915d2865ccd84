"""The .lgs text format: parse, canonical render, and set syntax.

A document is line-oriented UTF-8:

    # comment (whole line)
    standard: a1 b1          one or more names; lines repeat, cumulative
    nonstandard: l1 l2       zero or more names; lines repeat, cumulative
    rule: a1 l1 => b1        one or more premises, '=>' and one conclusion

Names match [A-Za-z0-9_]+, the grammar `Symbol` itself enforces, so any
system the library can build renders to a document that parses back to it,
and a leading '*' in set syntax can never be part of a name.  Declarations
are gathered from the whole file before rules are validated, so
declaration order does not matter.  All errors carry a 1-based line and
column; arbitrary bytes never crash the parser, they produce a ParseError
(invalid UTF-8 included).  A rule may repeat: the parser maps each rule's
key to the first line that holds it, which gives
`SystemDocument.rule_lines`, and `LogicSystem` collapses the keys into its
set of rules, as it does for every front end.

Parsing goes straight to the compiled form.  The language is built by
`make_language`, like any other, the parser turns each rule's names into a
key of integer symbol ids through `Language._name_ids`, and `LogicSystem`
compiles the keys; no `Rule` is built.
The garbage collector is paused meanwhile; see `parse_system`.
`render_system` reads `system.rules`, which a system builds from its keys
on first access.

Canonical rendering emits one declaration line per sort with names sorted
lexicographically (the nonstandard line is dropped when empty), then the
rules in their canonical system order.  Parsing a rendered document yields
an equal (language, system) pair.
"""

from __future__ import annotations

import gc
import re
import threading
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from .errors import (
    EmptyStandardPart,
    EmptySystem,
    InvalidValue,
    LanguageMismatch,
    NameCollision,
    ParseError,
    UnknownSymbol,
)
from .model import NAME_RE, Language, LogicSystem, Sort, Symbol, _tuple_of, make_language, symbol_key
from .model import _NONSTANDARD, _STANDARD, _first_bad_name, _language_attr, _require_instance, _require_symbols

TOKEN_RE = re.compile(r"\S+")
KEYWORDS = ("standard", "nonstandard", "rule")


@dataclass(frozen=True, eq=False)
class SystemDocument:
    """A parsed document: the language, the system, and where each rule came
    from: `rule_lines[i]` is the first source line holding `system.rules[i]`
    (a repeated rule is one rule of the system)."""

    language: Language
    system: LogicSystem
    rule_lines: tuple[int, ...] = field(repr=False)


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        prefix = data[: e.start]
        line = prefix.count(b"\n") + 1
        col = e.start - (prefix.rfind(b"\n") + 1) + 1
        raise ParseError(
            "input is not valid UTF-8", line=line, col=col, expected="UTF-8 text"
        ) from None


def _columns(line: str, start: int) -> list[int]:
    """1-based columns of the whitespace-separated tokens of line[start:].
    Only an error needs a column, so the parser works them out only then."""
    return [m.start() + 1 for m in TOKEN_RE.finditer(line, start)]


def _rule_columns(line: str) -> list[int]:
    """Columns of a well-formed rule line's names: premises, then conclusion."""
    cols = _columns(line, line.index(":") + 1)
    del cols[-2]  # the '=>'
    return cols


def _end(line: str) -> int:
    """The column just past the end of a line."""
    return len(line.rstrip("\r")) + 1


def _bad_name(name: str, lineno: int, col: int) -> ParseError:
    return ParseError(f"bad name {name!r}", line=lineno, col=col, expected="identifier ([A-Za-z0-9_]+)")


def _not_a_directive(line: str, lineno: int) -> None:
    """Return for a blank or comment line; raise for any other line that does
    not start with a known directive and a colon."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return
    indent = len(line) - len(line.lstrip())
    m = NAME_RE.match(line, indent)
    if not m:
        raise ParseError(f"unexpected character {line[indent]!r}", line=lineno, col=indent + 1,
                         expected="directive (standard:, nonstandard:, or rule:)")
    keyword = m.group()
    after = m.end()
    while after < len(line) and line[after] in " \t":
        after += 1
    if after >= len(line) or line[after] != ":":
        raise ParseError(f"directive {keyword!r} is not followed by a colon", line=lineno,
                         col=after + 1, expected="':'")
    # a well-formed directive that the caller did not accept
    raise ParseError(f"unknown directive {keyword!r}", line=lineno, col=indent + 1,
                     expected="one of standard, nonstandard, rule")


def parse_system(text: str | bytes) -> SystemDocument:
    """Parse .lgs text (or raw bytes) into a validated document.

    The first pass splits each directive's payload with `str.split` and
    checks all of its names with one regex match.  Then every rule name is
    checked against the declarations, `make_language` builds the language
    from the declared names, and each rule's names become a key of symbol
    ids (`Language._name_ids`), mapped to the first line that holds it.
    `LogicSystem._from_keys` compiles those keys, keeping each as its key
    and no `Rule`, and each kept rule's line is read from the map by its
    key.  Columns are worked out only for an error.

    The cyclic garbage collector is paused for the parse and compile, which
    allocate a few containers per rule and create no cycles; see
    `_CollectorPause`.  It is re-enabled afterwards, also when parsing
    raises, if it was on when the pause began: a parse that starts with it
    off leaves it off, and parses that overlap, nested or on other threads,
    re-enable it only when the last of them ends.
    """
    with _COLLECTOR_PAUSE:
        if isinstance(text, bytes):
            text = _decode(text)
        language, first_lines = _read(text)
        system = LogicSystem._from_keys(language, first_lines)
    return SystemDocument(language, system, tuple(map(first_lines.__getitem__, system._keys)))


class _CollectorPause:
    """A context in which the cyclic garbage collector is off.

    Entries may nest and overlap across threads.  The first to enter
    records whether the collector was on and switches it off; the last to
    leave switches it back on only if it was.  One lock makes each entry
    and each exit a single step, so no interleaving of threads can leave
    the collector off."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_on = False

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._was_on = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._was_on:
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()


def _read(text: str) -> tuple[Language, dict[tuple[int, ...], int]]:
    """The language and `first_lines`: each distinct rule's key (premise
    count, premise ids, conclusion id, the ids from `Language._name_ids`)
    mapped to the first line that holds it, in file order.  The rule lines
    are gathered as their names, each distinct one with its first line, and
    keyed once the language is built; the first rule naming an undeclared
    symbol is the first such line.

    A function of its own so that the tokens and declaration tables are
    freed before `LogicSystem` compiles the keys; the lines are freed once
    they are read, before the rules are keyed."""
    declared: dict[Sort, dict[str, int]] = {_STANDARD: {}, _NONSTANDARD: {}}  # name -> first line
    rule_lines: dict[tuple[str, ...], int] = {}  # premise names + conclusion -> first line

    for lineno, raw in enumerate(text.split("\n"), start=1):  # the lines are freed after the loop
        head, colon, payload = raw.partition(":")
        keyword = head.lstrip().rstrip(" \t")
        if not colon or keyword not in KEYWORDS:
            _not_a_directive(raw.rstrip("\r"), lineno)
            continue
        start = len(head) + 1
        tokens = payload.split()

        if keyword != "rule":
            sort = _STANDARD if keyword == "standard" else _NONSTANDARD
            if sort is _STANDARD and not tokens:
                raise ParseError("empty standard declaration", line=lineno, col=_end(raw),
                                 expected="at least one symbol name")
            bad = _first_bad_name(tokens)
            mine, other = declared[sort], declared[_NONSTANDARD if sort is _STANDARD else _STANDARD]
            for name in tokens[:bad]:
                if name in other:
                    raise NameCollision(
                        f"name {name!r} is declared in both sorts (first at line {other[name]})",
                        line=lineno, col=_columns(raw, start)[tokens.index(name)])
                mine.setdefault(name, lineno)
            if bad is not None:
                raise _bad_name(tokens[bad], lineno, _columns(raw, start)[bad])
            continue

        arrows = tokens.count("=>")
        if not arrows:
            raise ParseError("rule has no '=>'", line=lineno, col=_end(raw), expected="'=>'")
        k = tokens.index("=>")
        if arrows > 1:
            raise ParseError("rule has more than one '=>'", line=lineno,
                             col=_columns(raw, start)[tokens.index("=>", k + 1)], expected="a single '=>'")
        if k == 0:
            raise ParseError("rule has no premises", line=lineno, col=_columns(raw, start)[0],
                             expected="at least one premise before '=>'")
        if k + 1 == len(tokens):
            raise ParseError("rule has no conclusion", line=lineno, col=_end(raw), expected="conclusion symbol")
        if k + 2 < len(tokens):
            raise ParseError("rule has more than one conclusion", line=lineno,
                             col=_columns(raw, start)[k + 2], expected="end of line after conclusion")
        del tokens[k]
        bad = _first_bad_name(tokens)
        if bad is not None:
            raise _bad_name(tokens[bad], lineno, _rule_columns(raw)[bad])
        rule_lines.setdefault(tuple(tokens), lineno)

    known = declared[_STANDARD].keys() | declared[_NONSTANDARD].keys()
    if not known.issuperset(chain.from_iterable(rule_lines)):
        names, lineno, j = next((names, ln, j) for names, ln in rule_lines.items()
                                for j, name in enumerate(names) if name not in known)
        col = _rule_columns(text.split("\n")[lineno - 1])[j]
        raise UnknownSymbol(f"unknown symbol {names[j]!r}", line=lineno, col=col)
    if not declared[_STANDARD]:
        # a document-level condition; anchored at the start for uniformity
        raise EmptyStandardPart("document declares no standard symbols", line=1, col=1)
    if not rule_lines:
        raise EmptySystem("document contains no rules", line=1, col=1)
    language = make_language(declared[_STANDARD], declared[_NONSTANDARD])
    id_of = language._name_ids().__getitem__
    return language, {(len(names) - 1, *map(id_of, names)): lineno for names, lineno in rule_lines.items()}


def render_system(doc: "SystemDocument | LogicSystem") -> str:
    """Canonical text for a document or bare system.

    Declarations come first with names sorted lexicographically; rules follow
    in their canonical (arity, premise names, conclusion) order, premise
    order inside each rule preserved.  Round-trips through parse_system.
    """
    system = doc.system if isinstance(doc, SystemDocument) else doc
    try:
        language = system.language
    except AttributeError:
        _require_instance(doc, LogicSystem, "doc", "a SystemDocument or LogicSystem")
        raise
    lines = ["standard: " + " ".join(sorted(s.name for s in language.standard_part))]
    if language.nonstandard_part:
        lines.append(
            "nonstandard: " + " ".join(sorted(s.name for s in language.nonstandard_part))
        )
    for rule in system.rules:
        lines.append(f"rule: {rule}")
    return "\n".join(lines) + "\n"


def render_set(members: Iterable[Symbol]) -> str:
    """Comma-separated names sorted lexicographically; nonstandard symbols
    get a '*' prefix on output only."""
    try:
        ordered = sorted(members, key=symbol_key)
    except (AttributeError, TypeError) as e:  # not iterable, or a member that is not a symbol
        _require_symbols(_tuple_of(members, "members"))
        # a one-shot iterator is spent by now, so no member can be named
        raise LanguageMismatch(f"a member is not a Symbol: {e}") from None
    return ",".join(
        s.name if s.sort is _STANDARD else f"*{s.name}" for s in ordered
    )


def parse_set(text: str, language: Language) -> frozenset[Symbol]:
    """Parse a comma-separated symbol list against a language.

    A leading '*' on a name is accepted and ignored (the sort comes from the
    declarations); the empty string is the empty set.  Text that is not a
    str, and a `language` that is not a Language, raise InvalidValue.
    """
    try:
        pieces = text.split(",")
    except (AttributeError, TypeError):  # bytes, None, or any other non-str
        raise InvalidValue(f"set text {text!r} is not a str") from None
    if not text.strip():
        return frozenset()
    resolve = _language_attr(language, "resolve")
    members = set()
    for piece in pieces:
        name = piece.strip().removeprefix("*")
        if not name:
            raise UnknownSymbol(f"empty name in set {text!r}")
        members.add(resolve(name))
    return frozenset(members)
