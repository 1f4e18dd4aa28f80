"""Every function and class defined in ``src/dagquot`` is named somewhere in
``src/`` or ``perfbench/``, or is documented API that no caller needs yet.

A name counts as used where it appears as a name, an attribute, an import
alias or a string that is an identifier: ``perfbench/spans.py`` names the
functions it traces by strings.  Dunder methods are called by the language
and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dagquot").glob("*.py"))
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

# documented API that nothing in src/ or perfbench/ calls yet
DOCUMENTED_API = {"contains", "finite_core", "index_in_ambient", "substitute_basis",
                  "random_colored_dag"}


def used_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def definitions(tree: ast.AST) -> set[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def test_every_definition_has_a_reader():
    used = set()
    for path in READERS:
        used |= used_names(ast.parse(path.read_text(), str(path)))
    defined = {path.name: definitions(ast.parse(path.read_text(), str(path)))
               for path in PACKAGE}
    orphans = sorted(f"{module}:{name}" for module, names in defined.items()
                     for name in names - used - DOCUMENTED_API)
    assert not orphans, f"defined but named nowhere in src/ or perfbench/: {orphans}"
    # an allowlisted name that is gone must leave the list too
    assert DOCUMENTED_API <= set().union(*defined.values())
