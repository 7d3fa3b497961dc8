"""No code that only tests reach: every public module function, class and
method in src/featmim has a caller outside tests/. A caller is a name or
attribute that refers to it elsewhere in src/ (not inside its own
definition), in scripts/, or in bench/, where the tracer also binds
"module.name" strings. A function whose only callers are tests either gets
a production caller or moves into tests/. Nor does any function body in
src/featmim import: module dependencies are stated at the top of a module.
And a config record's validate() runs only at the boundaries that take
outside input: code below them trusts the rules they checked. Every error
class but the FeatmimError base is one the CLI catches by name."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# name -> why it stays without a caller outside tests
ALLOWED = {"load_checkpoint": "ROADMAP item 3's --resume"}

# where a validate() call may stand: the CLI, RunConfig.validate (each
# section's), and the entry points that scripts and the CLI call
VALIDATE_HOMES = {"cli", "config.RunConfig.validate", "trainer.train", "gradcheck.grad_check",
                  "teacher.make_teacher", "model.load_checkpoint"}


def _trees(directory):
    return [ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))]


def _names(node, strings=False):
    """Counter of the names and attributes that `node` refers to; with
    `strings`, also each dot-separated part of its string constants."""
    found = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(sub.value.split("."))
    return found


def _public_definitions(tree):
    """Public module-level functions and classes, and public methods of
    module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def test_only_the_allowed_names_lack_a_caller_outside_tests():
    # an allowed name that gains a caller, or loses its definition, leaves the list
    src = _trees(ROOT / "src" / "featmim")
    in_src = sum((_names(tree) for tree in src), collections.Counter())
    outside = sum((_names(tree) for tree in _trees(ROOT / "scripts")), collections.Counter())
    outside += sum((_names(tree, strings=True) for tree in _trees(ROOT / "bench")),
                   collections.Counter())
    unreached = sorted(
        node.name for tree in src for node in _public_definitions(tree)
        if not node.name.startswith("_") and not outside[node.name]
        and in_src[node.name] <= _names(node)[node.name])
    assert unreached == sorted(ALLOWED), \
        f"only tests reach {unreached}: give each a caller or move it to tests/"


def test_no_function_in_src_imports():
    # an import inside a body hides a dependency, often a cycle between modules
    found = [f"{node.name}:{sub.lineno}"
             for tree in _trees(ROOT / "src" / "featmim") for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside function bodies: {found}"


def _scopes(tree, module):
    """(dotted name, node) of each module-level statement; a class's
    statements come one by one, named under the class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{module}.{node.name}.{getattr(item, 'name', '')}", item
        else:
            yield f"{module}.{getattr(node, 'name', '')}", node


def test_records_are_validated_only_at_the_boundaries():
    # a second validate() below a boundary restates a rule the boundary checked
    found = [f"{name}:{sub.lineno}"
             for path in sorted((ROOT / "src" / "featmim").glob("*.py"))
             for name, node in _scopes(ast.parse(path.read_text()), path.stem)
             if path.stem not in VALIDATE_HOMES and name not in VALIDATE_HOMES
             for sub in ast.walk(node)
             if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
             and sub.func.attr == "validate"]
    assert not found, f"validate() called below the boundaries: {found}"


def test_every_error_class_is_caught_by_the_cli():
    # a subclass no except clause names is caught only as its base: one
    # class too many, whose name promises a distinction no caller makes
    errors = ast.parse((ROOT / "src" / "featmim" / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    cli = ast.parse((ROOT / "src" / "featmim" / "cli.py").read_text())
    main = next(node for node in cli.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = set().union(*(_names(handler.type) for handler in ast.walk(main)
                           if isinstance(handler, ast.ExceptHandler) and handler.type))
    uncaught = sorted(classes - {"FeatmimError"} - caught)
    assert not uncaught, f"error classes cli.main never catches: {uncaught}"
