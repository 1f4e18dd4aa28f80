"""Certificate bytes have one writer: ``verifier._certificate_text``.

A second copy of the template, say pasted into ``verify_all``'s pair loop,
would let the two drift apart. The last key of the template, ``word_facts``,
marks it: exactly one string constant or f-string part in ``src/dagquot``
may contain it, and that one must lie in ``_certificate_text``.
"""

import ast
from pathlib import Path

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "dagquot").glob("*.py"))
MARK = '"word_facts":['


def marked_strings(tree: ast.AST, function: str | None = None):
    """(enclosing function, text) of each string constant under ``tree``
    that contains ``MARK``; f-string parts are constants too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and MARK in node.value:
            yield function, node.value
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else function
        yield from marked_strings(node, inner)


def test_one_certificate_template():
    found = [(path.name, function) for path in PACKAGE
             for function, _ in marked_strings(ast.parse(path.read_text(), str(path)))]
    assert found == [("verifier.py", "_certificate_text")]
