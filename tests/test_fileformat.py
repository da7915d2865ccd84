"""Parsing, canonical rendering, and the set syntax for .lgs documents.

Every parse failure must carry a 1-based line and column, and arbitrary
bytes must never raise anything outside the package's error hierarchy.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conseq import (
    BadIdentifier,
    ConseqError,
    EmptyStandardPart,
    EmptySystem,
    NameCollision,
    ParseError,
    Rule,
    Sort,
    Symbol,
    UnknownSymbol,
    is_mixed_ternary,
    parse_set,
    parse_system,
    render_set,
    render_system,
    make_language,
    make_system,
)
from strategies import named_systems, system_inputs, systems

BASIC = "standard: a1 b1\nnonstandard: l1\nrule: a1 l1 => b1\n"


def test_parse_basic_document():
    doc = parse_system(BASIC)
    assert len(doc.system) == 1
    assert is_mixed_ternary(doc.system)
    assert doc.language.resolve("l1").sort is Sort.NONSTANDARD
    assert doc.source_name == "<string>"


def test_parse_accepts_bytes_comments_blanks_and_crlf():
    raw = b"# chain\r\n\r\nstandard: a1 b1\r\nnonstandard: l1\r\nrule: a1 l1 => b1\r\n"
    doc = parse_system(raw, source_name="doc.lgs")
    assert doc.system == parse_system(BASIC).system
    assert doc.source_name == "doc.lgs"


def test_declarations_accumulate_across_lines():
    text = "standard: a1\nstandard: b1\nnonstandard: l1\nrule: a1 l1 => b1\n"
    doc = parse_system(text)
    assert {s.name for s in doc.language.standard_part} == {"a1", "b1"}


def test_rule_before_declarations_is_fine():
    text = "rule: a1 l1 => b1\nstandard: a1 b1\nnonstandard: l1\n"
    assert parse_system(text).system == parse_system(BASIC).system


@given(st.one_of(systems(), named_systems()), st.randoms(use_true_random=False))
def test_rule_lines_point_at_first_occurrence(system, rng):
    # the rendered lines shuffled, with some rules repeated
    lines = render_system(system).splitlines()
    lines += rng.choices([line for line in lines if line.startswith("rule:")], k=len(system))
    rng.shuffle(lines)
    doc = parse_system("\n".join(lines))
    assert doc.system == system
    assert len(doc.rule_lines) == len(doc.system)
    for rule, line in zip(doc.system.rules, doc.rule_lines):
        assert line == lines.index(f"rule: {rule}") + 1


def test_parse_hashes_no_rule(monkeypatch):
    def refuse(rule):
        raise AssertionError("a Rule was hashed")

    monkeypatch.setattr(Rule, "__hash__", refuse)
    doc = parse_system(BASIC + "rule: a1 => b1\nrule: a1 l1 => b1\n")
    assert [str(r) for r in doc.system.rules] == ["a1 => b1", "a1 l1 => b1"]
    assert doc.rule_lines == (4, 3)


def location(err: ConseqError):
    return err.line, err.col


def test_undeclared_rule_symbol_location():
    with pytest.raises(UnknownSymbol) as info:
        parse_system("rule: a1 => b1")
    assert location(info.value) == (1, 7)


def test_name_collision_location():
    with pytest.raises(NameCollision) as info:
        parse_system("standard: a1\nnonstandard: a1")
    assert location(info.value) == (2, 14)
    assert "both sorts" in str(info.value)
    # names are taken in line order: the collision comes before a later bad name
    with pytest.raises(NameCollision) as info:
        parse_system("standard: a1\nnonstandard: l1 a1 b-c")
    assert location(info.value) == (2, 17)


def test_undeclared_name_after_repeats_and_tabs_location():
    with pytest.raises(UnknownSymbol) as info:
        parse_system("standard: a1\nrule:\ta1  a1 =>  zz\r")
    assert location(info.value) == (2, 18)


def test_document_level_errors_are_anchored():
    with pytest.raises(EmptyStandardPart) as info:
        parse_system("nonstandard: l1\nrule: l1 => l1\n")
    assert location(info.value) == (1, 1)
    with pytest.raises(EmptySystem) as info:
        parse_system("standard: a1\n")
    assert location(info.value) == (1, 1)


@pytest.mark.parametrize(
    "text,line,col,needle",
    [
        ("!x", 1, 1, "unexpected character"),
        ("standard a1", 1, 10, "colon"),
        ("foo: x", 1, 1, "unknown directive"),
        ("standard:", 1, 10, "empty standard"),
        ("standard: a-b", 1, 11, "bad name"),
        ("standard: a1\nrule: a1 b1", 2, 12, "no '=>'"),
        ("standard: a1 b1 b2\nrule: a1 => b1 => b2", 2, 16, "more than one '=>'"),
        ("standard: b1\nrule: => b1", 2, 7, "no premises"),
        ("standard: a1\nrule: a1 =>", 2, 12, "no conclusion"),
        ("standard: a1 b1 b2\nrule: a1 => b1 b2", 2, 16, "more than one conclusion"),
        # columns count tabs, repeated names and a CR line end like any character
        ("standard: a1 b1\n\trule :\ta1  =>  b-1\r", 2, 17, "bad name"),
        ("standard: a1 b1\nrule: a1 a1 => b1\r\nrule: b1 =>\tb1 =>  a1", 3, 16, "more than one '=>'"),
        ("standard: a1 b1\nrule\u00a0: a1 => b1", 2, 5, "colon"),
    ],
)
def test_parse_error_locations(text, line, col, needle):
    with pytest.raises(ParseError) as info:
        parse_system(text)
    assert location(info.value) == (line, col)
    assert needle in info.value.message
    assert info.value.expected


def test_invalid_utf8_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_system(b"standard: a1\nrule\xff")
    assert location(info.value) == (2, 5)
    assert info.value.expected == "UTF-8 text"


def test_render_is_canonical():
    shuffled = "nonstandard: l1\nstandard: b1 a1\nrule: a1 l1 => b1\nrule: a1 l1 => b1\n"
    assert render_system(parse_system(shuffled)) == BASIC


def test_render_omits_empty_nonstandard_part():
    text = "standard: a1 b1\nrule: a1 => b1\n"
    assert render_system(parse_system(text)) == text


def test_round_trip_examples():
    for text in (
        BASIC,
        "standard: x\nnonstandard: u v w\nrule: x u => x\nrule: x v w => x\n",
        "standard: s0 s1 s2\nrule: s0 => s1\nrule: s1 => s2\n",
    ):
        doc = parse_system(text)
        again = parse_system(render_system(doc))
        assert again.language == doc.language
        assert again.system == doc.system


@given(st.one_of(systems(), named_systems()))
def test_round_trip_generated_systems(system):
    doc = parse_system(render_system(system))
    assert doc.language == system.language
    assert doc.system == system
    assert render_system(doc) == render_system(system)


@given(named_systems(), st.data())
def test_set_round_trip_with_arbitrary_names(system, data):
    members = data.draw(system_inputs(system))
    assert parse_set(render_set(members), system.language) == members


@given(st.text(max_size=6), st.sampled_from(Sort))
def test_every_constructible_name_survives_the_text_format(name, sort):
    """Any name a Symbol accepts, of either sort, renders and parses back."""
    try:
        symbol = Symbol(name, sort)
    except BadIdentifier:
        return
    other = "x" + name
    std, non = ({name, other}, set()) if sort is Sort.STANDARD else ({other}, {name})
    system = make_system(make_language(std, non), [((name,), other)])
    doc = parse_system(render_system(system))
    assert doc.system == system
    assert parse_set(render_set({symbol}), doc.language) == {symbol}


def test_render_set_orders_and_marks_sorts():
    lang = make_language({"a1", "b1"}, {"l1"})
    assert render_set({lang.resolve("b1"), lang.resolve("a1")}) == "a1,b1"
    assert render_set({lang.resolve("l1")}) == "*l1"
    assert render_set(frozenset()) == ""


def test_parse_set_round_trips_and_ignores_star():
    lang = make_language({"a1", "b1"}, {"l1"})
    members = {lang.resolve("a1"), lang.resolve("l1")}
    assert parse_set(render_set(members), lang) == members
    assert parse_set(" *l1 , a1 ", lang) == members
    assert parse_set("", lang) == frozenset()
    assert parse_set("   ", lang) == frozenset()


def test_parse_set_rejects_unknown_and_empty_names():
    lang = make_language({"a1"}, set())
    with pytest.raises(UnknownSymbol):
        parse_set("zz", lang)
    with pytest.raises(UnknownSymbol):
        parse_set("a1,,a1", lang)


def test_random_bytes_never_escape_the_error_hierarchy():
    rng = random.Random(99)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(20000):
        data = rng.randbytes(rng.randint(0, 30))
        try:
            parse_system(data)
            outcomes["ok"] += 1
        except ConseqError:
            outcomes["error"] += 1
    assert outcomes["error"] > 0


def test_token_soup_never_escapes_the_error_hierarchy():
    rng = random.Random(7)
    vocab = [
        "standard:", "nonstandard:", "rule:", "=>", "a1", "b1", "l1", "#",
        ":", "*", "standard", "0", "_", "\t", "  ",
    ]
    for _ in range(4000):
        n = rng.randint(0, 12)
        text = "".join(
            rng.choice(vocab) + rng.choice([" ", "\n", ""]) for _ in range(n)
        )
        try:
            parse_system(text)
        except ConseqError:
            pass
