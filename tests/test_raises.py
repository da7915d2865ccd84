"""Every error the package raises on purpose is a ConseqError.

Statically, a stdlib `ast` walk resolves the class named by each `raise`
under `src/conseq/` in its module's namespace; only argparse's own protocol
in `cli.py` and the ParseError factory in `fileformat.py` are exempt.
Dynamically, each argument check that a caller may also catch as a
ValueError raises `InvalidValue`, which is both, and each constructor given
a member that is not a `Symbol` names it in a `LanguageMismatch`.
"""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import conseq
from conseq import (
    ConseqError,
    InfluenceWeight,
    InvalidValue,
    Language,
    LanguageMismatch,
    LogicSystem,
    NullaryRule,
    OperatorTable,
    Rule,
    Sort,
    Symbol,
    chain_system,
    equivalent,
    make_language,
    make_system,
    matched_rules_binary,
    matched_rules_ternary,
    parse_set,
    render_set,
)

MODULES = sorted(Path(conseq.__file__).parent.glob("*.py"))

# (module file, raised name) pairs that are not ConseqErrors by design
EXEMPT = {
    ("cli.py", "SystemExit"),  # argparse's exit protocol
    ("cli.py", "argparse.ArgumentTypeError"),  # argparse's type-converter protocol
    ("fileformat.py", "_bad_name"),  # returns a ParseError
}


def dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    raise AssertionError(f"cannot name the raised expression {ast.dump(node)}")


def raised_names(tree):
    """(dotted name, line) for every `raise X(...)` or `raise X`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield dotted(exc), node.lineno


def test_every_module_is_walked():
    assert {p.name for p in MODULES} >= {"cli.py", "fileformat.py", "laws.py", "model.py"}
    assert sum(1 for p in MODULES for _ in raised_names(ast.parse(p.read_text(encoding="utf-8")))) > 20


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_raises_only_conseq_errors(path):
    module = importlib.import_module("conseq" if path.stem == "__init__" else f"conseq.{path.stem}")
    bad = []
    for name, line in raised_names(ast.parse(path.read_text(encoding="utf-8"))):
        if (path.name, name) in EXEMPT:
            continue
        head, *rest = name.split(".")
        obj = getattr(module, head) if hasattr(module, head) else getattr(builtins, head)
        for part in rest:
            obj = getattr(obj, part)
        if not (isinstance(obj, type) and issubclass(obj, ConseqError)):
            bad.append(f"{name} (line {line})")
    assert not bad, f"{path.name} raises errors outside ConseqError: {', '.join(bad)}"


X = Symbol("x", Sort.STANDARD)
Y = Symbol("y", Sort.STANDARD)
L = Symbol("l", Sort.NONSTANDARD)
LA1 = make_language(["a1", "b1", "c1"], [])

SITES = {
    "table-distinct": (lambda: OperatorTable((X, X), (0, 1, 2, 3)), "universe symbols must be distinct"),
    "table-sorted": (lambda: OperatorTable((Y, X), (0, 1, 2, 3)), "universe must be canonically sorted"),
    "table-count": (lambda: OperatorTable((X,), (0,)), "expected 2 images, got 1"),
    "table-image": (lambda: OperatorTable((X,), (0, 4)), "image of mask 1 leaves the universe"),
    "table-image-float": (lambda: OperatorTable((X,), (0, 1.0)), "image of mask 1 is not an int: 1.0"),
    "table-image-fraction": (lambda: OperatorTable((X,), (0.5, 1)), "image of mask 0 is not an int: 0.5"),
    "table-image-str": (lambda: OperatorTable((X,), (0, "a")), "image of mask 1 is not an int: 'a'"),
    "table-image-none": (lambda: OperatorTable((X,), (0, None)), "image of mask 1 is not an int: None"),
    "table-image-first": (lambda: OperatorTable((X, Y), (0, -1, "a", 9)), "image of mask 1 leaves the universe"),
    "from-function": (
        lambda: OperatorTable.from_function((X,), lambda s: {Y}),
        "image symbol 'y' is outside the universe",
    ),
    "mask-of": (
        lambda: OperatorTable.from_function((X,), lambda s: s).mask_of({Y}),
        "symbol 'y' is outside the universe",
    ),
    # a mask with a bit past the universe, or a negative one, names no subset
    "set-of-outside": (lambda: OperatorTable((X,), (0, 1)).set_of(5), "mask 5 is not a subset of the universe"),
    "set-of-negative": (lambda: OperatorTable((X,), (0, 1)).set_of(-1), "mask -1 is not a subset of the universe"),
    "set-of-empty-universe": (lambda: OperatorTable((), (0,)).set_of(1), "mask 1 is not a subset of the universe"),
    "set-of-float": (lambda: OperatorTable((X,), (0, 1)).set_of(1.0), "mask 1.0 is not a subset of the universe"),
    "language-standard": (
        lambda: Language(frozenset({L}), frozenset()),
        "symbol 'l' in standard part has sort nonstandard",
    ),
    "language-nonstandard": (
        lambda: Language(frozenset({X}), frozenset({Y})),
        "symbol 'y' in nonstandard part has sort standard",
    ),
    "influence-weight": (lambda: InfluenceWeight(X, -1), "multiplicity cannot be negative"),
    # the type is checked before the sign, which a str cannot be compared for
    "influence-weight-str": (lambda: InfluenceWeight(X, "3"), "multiplicity is not an int: '3'"),
    "influence-weight-float": (lambda: InfluenceWeight(X, 1.5), "multiplicity is not an int: 1.5"),
    "system-item": (
        lambda: LogicSystem(Language(frozenset({X, Y}), frozenset()), [Rule((X,), Y), "x => y"]),
        "item 'x => y' is not a Rule",
    ),
    # one string would split into the one-character names 'a' and '1'
    "language-standard-str": (
        lambda: make_language("a1", []),
        "standard names 'a1' are a string, not a collection of names",
    ),
    "language-nonstandard-str": (
        lambda: make_language([], "l1"),
        "nonstandard names 'l1' are a string, not a collection of names",
    ),
    "make-system-one-item": (lambda: make_system(LA1, [("a1",)]), "item ('a1',) is not a (premises, conclusion) pair"),
    "make-system-three-items": (
        lambda: make_system(LA1, [("a1", "b1", "c1")]),
        "item ('a1', 'b1', 'c1') is not a (premises, conclusion) pair",
    ),
    "make-system-none": (lambda: make_system(LA1, [None]), "item None is not a (premises, conclusion) pair"),
    # an argument that is not iterable at all is named, not a bare TypeError
    "table-universe-none": (lambda: OperatorTable(None, (0,)), "argument universe is not iterable: None"),
    "table-images-none": (lambda: OperatorTable((X,), None), "argument images is not iterable: None"),
    "language-standard-none": (lambda: make_language(None, []), "argument standard_names is not iterable: None"),
    "language-nonstandard-none": (
        lambda: make_language(["a1"], None),
        "argument nonstandard_names is not iterable: None",
    ),
    "make-system-rules-none": (lambda: make_system(LA1, None), "argument rule_tuples is not iterable: None"),
    "system-rules-none": (lambda: LogicSystem(LA1, None), "argument rules is not iterable: None"),
    "make-system-premises-int": (lambda: make_system(LA1, [(3, "a1")]), "premises 3 are not a sequence of names"),
    # bytes would split into the names 97 and 98
    "language-standard-bytes": (
        lambda: make_language(b"ab", []),
        "standard names b'ab' are a string, not a collection of names",
    ),
    "make-system-premises-bytes": (
        lambda: make_system(LA1, [(b"a1", "b1")]),
        "premises b'a1' are a string, not a sequence of names",
    ),
    "chain-none": (lambda: chain_system(None), "argument elements is not iterable: None"),
    "parse-set-bytes": (lambda: parse_set(b"a1", LA1), "set text b'a1' is not a str"),
    "parse-set-none": (lambda: parse_set(None, LA1), "set text None is not a str"),
    "render-set-none": (lambda: render_set(None), "argument members is not iterable: None"),
    # a language that is not a Language is named, not a bare AttributeError
    "system-language-none": (
        lambda: LogicSystem(None, [Rule((X,), Y)]),
        "argument language is not a Language: None",
    ),
    "make-system-language-none": (
        lambda: make_system(None, [(("a1",), "b1")]),
        "argument language is not a Language: None",
    ),
    "make-system-language-str": (
        lambda: make_system("a1 b1", [(("a1",), "b1")]),
        "argument language is not a Language: 'a1 b1'",
    ),
    "parse-set-language-none": (lambda: parse_set("a1", None), "argument language is not a Language: None"),
}


@pytest.mark.parametrize("site", SITES)
def test_value_checks_raise_conseq_errors(site):
    call, message = SITES[site]
    with pytest.raises(InvalidValue) as info:
        call()
    assert isinstance(info.value, ConseqError)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message


def test_a_rule_without_premises_names_any_conclusion():
    # the conclusion is checked only by a system, so it need not be a symbol
    for conclusion, name in ((Y, "'y'"), ("b", "'b'"), (["y"], "\"['y']\"")):
        with pytest.raises(NullaryRule) as info:
            Rule((), conclusion)
        assert str(info.value) == f"rule concluding {name} has no premises"


LXY = Language(frozenset({X, Y}), frozenset({L}))
TABLE_X = OperatorTable((X,), (0, 1))
SYSTEM_A1 = make_system(LA1, [(("a1",), "b1")])

# constructors given a member that is not a symbol: (call, its repr)
NOT_SYMBOLS = {
    "language-standard": (lambda: Language(frozenset({"a"}), frozenset()), "'a'"),
    "language-nonstandard": (lambda: Language(frozenset({X}), [L, ["l"]]), "['l']"),
    "system-premise": (lambda: LogicSystem(LXY, [Rule((X,), Y), Rule(("a",), "b")]), "'a'"),
    "system-conclusion": (lambda: LogicSystem(LXY, [Rule((X, L), ["y"])]), "['y']"),
    "table-universe": (lambda: OperatorTable(("x",), (0, 1)), "'x'"),
    "table-unhashable": (lambda: OperatorTable((X, ["y"]), (0, 1, 2, 3)), "['y']"),
    "table-image-lookup": (lambda: TABLE_X.image(["x"]), "'x'"),
    "table-image-unhashable": (lambda: TABLE_X.image([["x"]]), "['x']"),
    "table-mask-of": (lambda: TABLE_X.mask_of([X, "x"]), "'x'"),
    "table-from-function": (lambda: OperatorTable.from_function((X,), lambda s: ["x"]), "'x'"),
    "chain": (lambda: chain_system(["a", "b"]), "'a'"),
    "chain-repeat": (lambda: chain_system([X, "a", "a"]), "'a'"),
    "chain-unhashable": (lambda: chain_system([X, ["y"]]), "['y']"),
    "render-set": (lambda: render_set([1]), "1"),
    "render-set-after-symbols": (lambda: render_set([X, "x"]), "'x'"),
    # the weights refuse these too, before they look at a rule
    "matched-binary": (lambda: matched_rules_binary(SYSTEM_A1, "b1"), "'b1'"),
    "matched-ternary": (lambda: matched_rules_ternary(SYSTEM_A1, "a1", "b1"), "'a1'"),
    "matched-ternary-conclusion": (
        lambda: matched_rules_ternary(SYSTEM_A1, LA1.resolve("a1"), ["b1"]),
        "['b1']",
    ),
}


@pytest.mark.parametrize("site", NOT_SYMBOLS)
def test_constructors_name_a_member_that_is_not_a_symbol(site):
    call, member = NOT_SYMBOLS[site]
    with pytest.raises(LanguageMismatch) as info:
        call()
    assert str(info.value) == f"member {member} is not a Symbol"


def test_render_set_refuses_a_member_of_a_one_shot_iterator_that_is_not_a_symbol():
    # the members are gone by the time the error is seen, so none is named
    with pytest.raises(LanguageMismatch, match="^a member is not a Symbol: 'int' object has no attribute 'name'$"):
        render_set(iter([X, 1]))


@pytest.mark.parametrize(
    "call",
    [lambda: TABLE_X.image(3), lambda: TABLE_X.image(None), lambda: TABLE_X.mask_of(3), lambda: TABLE_X.mask_of(None)],
    ids=["image-int", "image-none", "mask-of-int", "mask-of-none"],
)
def test_table_lookups_name_a_subset_that_is_not_iterable(call):
    with pytest.raises(LanguageMismatch) as info:
        call()
    assert str(info.value).startswith("subset is not a set of Symbols: ")
    assert str(info.value).endswith("object is not iterable")


def test_a_table_keeps_any_universe_sequence_as_a_tuple():
    given_list = OperatorTable([X], [0, 1])
    assert given_list.universe == (X,) and given_list.images == (0, 1)
    assert given_list == TABLE_X and hash(given_list) == hash(TABLE_X)
    assert equivalent(given_list, TABLE_X).equal


def test_set_of_accepts_every_mask_of_the_universe():
    assert [TABLE_X.set_of(m) for m in (0, 1, True)] == [frozenset(), {X}, {X}]


@pytest.mark.parametrize("image, reason", [(3, "'int' object is not iterable"), ([["x"]], "unhashable type: 'list'")])
def test_from_function_names_an_image_that_is_not_a_set_of_symbols(image, reason):
    with pytest.raises(LanguageMismatch) as info:
        OperatorTable.from_function((X,), lambda s: image)
    assert str(info.value) == f"image of mask 0 is not a set of Symbols: {reason}"
