"""The lattice and enumeration layers read scalars as integer numerators
over one denominator (``FieldScalar.num`` / ``.den``), never as
``Fraction`` values: none of these modules imports ``fractions``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricq"

INTEGER_MODULES = ("groups", "intlat", "strata", "linalg", "polytope")


def _imported_modules(path):
    """Top-level names of every module the file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_integer_layers_import_no_fractions():
    offenders = [name for name in INTEGER_MODULES
                 if "fractions" in _imported_modules(SRC / f"{name}.py")]
    assert offenders == []


def test_the_guard_sees_a_fractions_import():
    """field.py keeps Fraction for its Sturm sequences and readers, so the
    walk finds an import where there is one."""
    assert "fractions" in _imported_modules(SRC / "field.py")
