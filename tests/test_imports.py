"""Every name a module of the package imports is used in that module.

A deletion that leaves an import behind fails here.  Stdlib only: each
module is parsed with `ast`, and a name counts as used when it is read in
the code, named in a string annotation, or listed in `__all__`.  The same
reading checks that the parser creates symbols only through
`make_language`, that every private function, class and method of the
package is used somewhere in it, that every error class is raised outside
`errors.py`, that every attribute `LogicSystem._compile` sets is read
elsewhere in the package, and that `conseq.__all__` lists exactly what
`__init__.py` imports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import conseq

PACKAGE = Path(conseq.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "laws.py", "model.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_parser_interns_only_through_make_language():
    # `model._intern` creates every symbol; the parser gets its language
    # from `make_language`, so it lays symbols out as the API does
    tree = ast.parse((PACKAGE / "fileformat.py").read_text(encoding="utf-8"))
    from_model = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("model", "conseq.model")
        for alias in node.names
    ]
    assert "make_language" in from_model
    assert not [name for name in from_model if name.startswith("_intern")]


def private_definitions(tree):
    """Every module-level private function or class, and every private
    method of a module-level class: (qualified name, node)."""
    def private(node):  # `_name`, not `__dunder__`
        return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] == "_" and node.name[-2:] != "__"

    for node in tree.body:
        if private(node):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if private(member):
                    yield f"{node.name}.{member.name}", member


def references(node):
    """Names read in `node`, bare or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_helper_is_used():
    # a merge that leaves its old helper behind fails here; a helper's
    # mentions of itself (recursion) do not count as a use
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    uses = Counter(name for tree in trees for name in references(tree))
    definitions = [(name, node) for tree in trees for name, node in private_definitions(tree)]
    assert len(definitions) > 40
    dead = [name for name, node in definitions if uses[node.name] == Counter(references(node))[node.name]]
    assert not dead, f"private helpers never used in the package: {', '.join(dead)}"


def raised_names(tree):
    """The name of the class each `raise X` or `raise X(...)` in `tree`
    raises, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                yield exc.id if isinstance(exc, ast.Name) else exc.attr


def test_every_error_class_is_raised_outside_errors_py():
    # an error class whose last `raise` is deleted fails here
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    raised = {
        name
        for path in MODULES
        if path.name != "errors.py"
        for name in raised_names(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert len(classes) > 10
    never = [name for name in classes if name not in raised]
    assert not never, f"error classes never raised in the package: {', '.join(never)}"


def test_all_lists_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [name for name, _ in imported_names(tree)]
    assert len(conseq.__all__) == len(set(conseq.__all__))
    assert sorted(conseq.__all__) == sorted(imported)


def test_every_compiled_attribute_has_a_reader():
    # a compiled column that nothing reads any more fails here; the reads
    # inside `LogicSystem._compile` itself do not count
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    model = trees[MODULES.index(PACKAGE / "model.py")]
    system = next(node for node in model.body if isinstance(node, ast.ClassDef) and node.name == "LogicSystem")
    compile_ = next(node for node in system.body if isinstance(node, ast.FunctionDef) and node.name == "_compile")
    inside = set(ast.walk(compile_))
    names = [
        node.args[1].value
        for node in inside
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "put"
    ]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node not in inside
    }
    assert len(names) >= 9
    unread = [name for name in names if name not in read]
    assert not unread, f"attributes LogicSystem._compile sets that nothing reads: {', '.join(unread)}"
