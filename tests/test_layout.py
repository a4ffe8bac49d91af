"""The package holds what a command runs: every top-level function and class
in ``src/orbicert`` is named somewhere else in ``src/orbicert``.

A definition that nothing in the package names has no caller in any
command; the reference code the tests check against lives in
``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import orbicert

SRC = Path(orbicert.__file__).resolve().parent

# Named by no other code in the package, and kept on purpose:
EXEMPT = {
    # the console-script entry point (pyproject.toml) and `python -m`
    ("cli", "main"),
}


def _names(node) -> set[str]:
    """Every identifier a subtree uses, as a name or an attribute; an import
    alone does not count."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_top_level_definition_is_named_elsewhere_in_the_package():
    tops = [
        (path.stem, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    used = {id(node): _names(node) for _, node in tops}
    # how many top-level statements of the package use each identifier
    count = Counter(name for names in used.values() for name in names)
    unnamed = [
        f"{module}.{node.name}"
        for module, node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (module, node.name) not in EXEMPT
        and count[node.name] == (node.name in used[id(node)])
    ]
    assert unnamed == []


def test_the_clique_verifier_imports_no_numpy():
    # it checks 2 x 2 factors in Python ints, with no vertex array
    tree = ast.parse((SRC / "cliques.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name and name.split(".")[0] == "numpy"]
