"""Every import in the package and its tests is used, no package module
rebinds a module global, every import sits at module level, and no package
module but field.py reduces mod p by hand.

A name an import binds counts as used when the module reads it anywhere
or lists it in ``__all__``; ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport os.path as osp\nfrom x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "c")]
    assert unused_imports("from __future__ import annotations\n__all__ = ['y']\n"
                          "from x import y\n") == []


def test_no_unused_imports():
    assert len(MODULES) > 20
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in MODULES for line, name in unused_imports(path.read_text())]
    assert found == []


def global_statements(source: str) -> list[tuple[int, str]]:
    return [(node.lineno, name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global) for name in node.names]


def test_no_module_global_is_rebound():
    # state a function stores in a module global is shared by every caller in
    # the process; the package passes its state in objects instead
    assert global_statements("X = 0\ndef f():\n    global X\n    X = 1\n") == [(3, "X")]
    found = [f"{path.relative_to(ROOT)}:{line}: global {name}"
             for path in PACKAGE for line, name in global_statements(path.read_text())]
    assert found == []


def function_imports(source: str) -> list[int]:
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_no_import_inside_a_function():
    # a module's header lists everything it depends on; an import inside a
    # function hides a dependency there and reruns the import on each call
    source = "import a\ndef f():\n    import b\n    def g():\n        from c import d\n"
    assert function_imports(source) == [3, 5]
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in MODULES for line in function_imports(path.read_text())]
    assert found == []


def modulus_reductions(source: str) -> list[int]:
    """Lines of every % (or %=) whose right operand is a name p or an
    attribute .p: a reduction mod p written out by hand."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            right = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
            right = node.value
        else:
            continue
        if (isinstance(right, ast.Name) and right.id == "p"
                or isinstance(right, ast.Attribute) and right.attr == "p"):
            found.append(node.lineno)
    return sorted(found)


def test_no_reduction_mod_p_outside_the_field():
    # field.PrimeField owns every reduction mod p, so that a change of
    # element representation changes one module
    source = "a = b % p\nc = (d + e) % field.p\nf %= p\ng = h % q\ni = j % p.bit_length()\n"
    assert modulus_reductions(source) == [1, 2, 3]
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in PACKAGE if path.name != "field.py"
             for line in modulus_reductions(path.read_text())]
    assert found == []
