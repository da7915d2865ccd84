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
(invalid UTF-8 included).  A rule may repeat: the parser keeps every rule
line in file order and `LogicSystem` collapses the duplicates, recording
which line each kept rule came from (`SystemDocument.rule_lines`).

Canonical rendering emits one declaration line per sort with names sorted
lexicographically (the nonstandard line is dropped when empty), then the
rules in their canonical system order.  Parsing a rendered document yields
an equal (language, system) pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    EmptyStandardPart,
    EmptySystem,
    NameCollision,
    ParseError,
    UnknownSymbol,
)
from .model import NAME_RE, Language, LogicSystem, Rule, Sort, Symbol, symbol_key

TOKEN_RE = re.compile(r"\S+")
KEYWORDS = ("standard", "nonstandard", "rule")


@dataclass(frozen=True, eq=False)
class SystemDocument:
    """A parsed document: the language, the system, and where each rule came
    from: `rule_lines[i]` is the first source line holding `system.rules[i]`
    (duplicates collapse in `LogicSystem`, which keeps the first)."""

    source_name: str
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


def _first_bad_name(names: list[str]) -> int | None:
    """Index of the first of `names` that is not an identifier, or None."""
    if not names or NAME_RE.fullmatch("".join(names)):
        return None
    return next(j for j, name in enumerate(names) if not NAME_RE.fullmatch(name))


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


def parse_system(text: str | bytes, source_name: str = "<string>") -> SystemDocument:
    """Parse .lgs text (or raw bytes) into a validated document.

    The first pass splits each directive's payload with `str.split` and
    checks all of its names with one regex match; the second resolves each
    rule name through the declaration table.  The rules go to `LogicSystem`
    in file order, and the input index it records for each rule it keeps
    gives that rule's line.  Columns are worked out only for an error.
    """
    if isinstance(text, bytes):
        text = _decode(text)
    lines = text.split("\n")
    declared: dict[str, tuple[Sort, int]] = {}  # name -> (sort, first line)
    rule_names: list[tuple[int, list[str]]] = []  # (line, premise names + conclusion)

    for lineno, raw in enumerate(lines, start=1):
        head, colon, payload = raw.partition(":")
        keyword = head.lstrip().rstrip(" \t")
        if not colon or keyword not in KEYWORDS:
            _not_a_directive(raw.rstrip("\r"), lineno)
            continue
        start = len(head) + 1
        tokens = payload.split()

        if keyword != "rule":
            sort = Sort.STANDARD if keyword == "standard" else Sort.NONSTANDARD
            if sort is Sort.STANDARD and not tokens:
                raise ParseError("empty standard declaration", line=lineno, col=_end(raw),
                                 expected="at least one symbol name")
            bad = _first_bad_name(tokens)
            for name in tokens[:bad]:
                prior = declared.setdefault(name, (sort, lineno))
                if prior[0] is not sort:
                    raise NameCollision(
                        f"name {name!r} is declared in both sorts (first at line {prior[1]})",
                        line=lineno, col=_columns(raw, start)[tokens.index(name)])
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
        rule_names.append((lineno, tokens))

    # resolve rule names against the gathered declarations, in file order
    symbol_of = {name: Symbol(name, sort) for name, (sort, _) in declared.items()}
    rules: list[Rule] = []
    for lineno, names in rule_names:
        try:
            *premises, conclusion = map(symbol_of.__getitem__, names)
        except KeyError as e:
            col = _rule_columns(lines[lineno - 1])[names.index(e.args[0])]
            raise UnknownSymbol(f"unknown symbol {e.args[0]!r}", line=lineno, col=col) from None
        rules.append(Rule(tuple(premises), conclusion))

    std = frozenset(s for s in symbol_of.values() if s.sort is Sort.STANDARD)
    if not std:
        # a document-level condition; anchored at the start for uniformity
        raise EmptyStandardPart("document declares no standard symbols", line=1, col=1)
    language = Language(std, frozenset(symbol_of.values()) - std)
    if not rules:
        raise EmptySystem("document contains no rules", line=1, col=1)
    system = LogicSystem(language, rules)
    return SystemDocument(source_name, language, system, tuple(rule_names[i][0] for i in system._sources))


def render_system(doc: "SystemDocument | LogicSystem") -> str:
    """Canonical text for a document or bare system.

    Declarations come first with names sorted lexicographically; rules follow
    in their canonical (arity, premise names, conclusion) order, premise
    order inside each rule preserved.  Round-trips through parse_system.
    """
    system = doc.system if isinstance(doc, SystemDocument) else doc
    language = system.language
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
    ordered = sorted(members, key=symbol_key)
    return ",".join(
        s.name if s.sort is Sort.STANDARD else f"*{s.name}" for s in ordered
    )


def parse_set(text: str, language: Language) -> frozenset[Symbol]:
    """Parse a comma-separated symbol list against a language.

    A leading '*' on a name is accepted and ignored (the sort comes from the
    declarations); the empty string is the empty set.
    """
    if not text.strip():
        return frozenset()
    members = set()
    for piece in text.split(","):
        name = piece.strip()
        if name.startswith("*"):
            name = name[1:]
        if not name:
            raise UnknownSymbol(f"empty name in set {text!r}")
        members.add(language.resolve(name))
    return frozenset(members)
