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
(invalid UTF-8 included).

Canonical rendering emits one declaration line per sort with names sorted
lexicographically (the nonstandard line is dropped when empty), then the
rules in their canonical system order.  Parsing a rendered document yields
an equal (language, system) pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    EmptyStandardPart,
    EmptySystem,
    NameCollision,
    ParseError,
    UnknownSymbol,
)
from .model import NAME_RE, Language, LogicSystem, Rule, Sort, Symbol

TOKEN_RE = re.compile(r"\S+")
KEYWORDS = ("standard", "nonstandard", "rule")


@dataclass(frozen=True, eq=False)
class SystemDocument:
    """A parsed document: the language, the system, and where each rule came
    from (first source line of the tuple, since duplicates collapse)."""

    source_name: str
    language: Language
    system: LogicSystem
    line_map: Mapping[Rule, int] = field(repr=False)


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


def _tokens(payload: str, lineno: int, offset: int) -> list[tuple[str, int]]:
    """Whitespace-separated tokens of a directive payload with 1-based cols."""
    out = []
    for m in TOKEN_RE.finditer(payload):
        out.append((m.group(), offset + m.start() + 1))
    return out


def _require_name(token: str, lineno: int, col: int) -> str:
    if not NAME_RE.fullmatch(token):
        raise ParseError(
            f"bad name {token!r}",
            line=lineno,
            col=col,
            expected="identifier ([A-Za-z0-9_]+)",
        )
    return token


def parse_system(text: str | bytes, source_name: str = "<string>") -> SystemDocument:
    """Parse .lgs text (or raw bytes) into a validated document."""
    if isinstance(text, bytes):
        text = _decode(text)
    declared: dict[str, tuple[Sort, int, int]] = {}
    # rule occurrences: (line, [(name, col), ...] premises, (name, col) conclusion)
    rule_lines: list[tuple[int, list[tuple[str, int]], tuple[str, int]]] = []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        m = NAME_RE.match(line, indent)
        if not m:
            raise ParseError(
                f"unexpected character {line[indent]!r}",
                line=lineno,
                col=indent + 1,
                expected="directive (standard:, nonstandard:, or rule:)",
            )
        keyword = m.group()
        after = m.end()
        while after < len(line) and line[after] in " \t":
            after += 1
        if after >= len(line) or line[after] != ":":
            raise ParseError(
                f"directive {keyword!r} is not followed by a colon",
                line=lineno,
                col=after + 1,
                expected="':'",
            )
        if keyword not in KEYWORDS:
            raise ParseError(
                f"unknown directive {keyword!r}",
                line=lineno,
                col=indent + 1,
                expected="one of standard, nonstandard, rule",
            )
        payload = line[after + 1 :]
        tokens = _tokens(payload, lineno, after + 1)

        if keyword in ("standard", "nonstandard"):
            sort = Sort.STANDARD if keyword == "standard" else Sort.NONSTANDARD
            if keyword == "standard" and not tokens:
                raise ParseError(
                    "empty standard declaration",
                    line=lineno,
                    col=len(line) + 1,
                    expected="at least one symbol name",
                )
            for token, col in tokens:
                name = _require_name(token, lineno, col)
                prior = declared.get(name)
                if prior is not None and prior[0] is not sort:
                    raise NameCollision(
                        f"name {name!r} is declared in both sorts "
                        f"(first at line {prior[1]})",
                        line=lineno,
                        col=col,
                    )
                if prior is None:
                    declared[name] = (sort, lineno, col)
        else:
            arrows = [i for i, (tok, _) in enumerate(tokens) if tok == "=>"]
            if not arrows:
                raise ParseError(
                    "rule has no '=>'",
                    line=lineno,
                    col=len(line) + 1,
                    expected="'=>'",
                )
            k = arrows[0]
            if len(arrows) > 1:
                raise ParseError(
                    "rule has more than one '=>'",
                    line=lineno,
                    col=tokens[arrows[1]][1],
                    expected="a single '=>'",
                )
            if k == 0:
                raise ParseError(
                    "rule has no premises",
                    line=lineno,
                    col=tokens[0][1],
                    expected="at least one premise before '=>'",
                )
            after_arrow = tokens[k + 1 :]
            if not after_arrow:
                raise ParseError(
                    "rule has no conclusion",
                    line=lineno,
                    col=len(line) + 1,
                    expected="conclusion symbol",
                )
            if len(after_arrow) > 1:
                raise ParseError(
                    "rule has more than one conclusion",
                    line=lineno,
                    col=after_arrow[1][1],
                    expected="end of line after conclusion",
                )
            premises = [
                (_require_name(tok, lineno, col), col) for tok, col in tokens[:k]
            ]
            ctok, ccol = after_arrow[0]
            conclusion = (_require_name(ctok, lineno, ccol), ccol)
            rule_lines.append((lineno, premises, conclusion))

    # resolve rule symbols against the gathered declarations, in file order
    for lineno, premises, conclusion in rule_lines:
        for name, col in [*premises, conclusion]:
            if name not in declared:
                raise UnknownSymbol(
                    f"unknown symbol {name!r}", line=lineno, col=col
                )

    std = {n for n, (sort, _, _) in declared.items() if sort is Sort.STANDARD}
    non = {n for n, (sort, _, _) in declared.items() if sort is Sort.NONSTANDARD}
    if not std:
        # a document-level condition; anchored at the start for uniformity
        raise EmptyStandardPart("document declares no standard symbols", line=1, col=1)
    language = Language(
        frozenset(Symbol(n, Sort.STANDARD) for n in std),
        frozenset(Symbol(n, Sort.NONSTANDARD) for n in non),
    )
    if not rule_lines:
        raise EmptySystem("document contains no rules", line=1, col=1)

    line_map: dict[Rule, int] = {}
    rules = []
    for lineno, premises, conclusion in rule_lines:
        rule = Rule(
            tuple(language.resolve(n) for n, _ in premises),
            language.resolve(conclusion[0]),
        )
        rules.append(rule)
        line_map.setdefault(rule, lineno)
    system = LogicSystem(language, tuple(rules))
    return SystemDocument(source_name, language, system, line_map)


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
    ordered = sorted(members, key=lambda s: (s.name, s.sort.value))
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
