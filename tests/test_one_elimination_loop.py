"""One elimination loop: only intlinalg names the gcd row step.

xgcd and _apply_row_pair are the row operations of the one Hermite loop
(intlinalg._hermite_rows) and of the Smith form.  Any other runtime module
that eliminates calls that loop instead of repeating its steps.
"""

import ast

import pytest

from test_stdlib_only import SOURCES

STEP_NAMES = {"xgcd", "_apply_row_pair"}


def referenced_names(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_intlinalg_defines_the_step():
    intlinalg = next(p for p in SOURCES if p.name == "intlinalg.py")
    assert STEP_NAMES <= set(referenced_names(intlinalg))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "intlinalg.py"],
                         ids=lambda p: p.name)
def test_no_other_module_names_the_step(path):
    assert STEP_NAMES.isdisjoint(referenced_names(path))
