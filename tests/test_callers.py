"""Every function and method in ``src/toricq`` has a caller in ``src/``.

A definition counts as called when its name is read somewhere in the
package outside its own body: as a name (a call, a callback, a table of
suites) or as an attribute (a method call, a property read).  Dunders are
called by Python itself.  The allowlist names the rest, each with the
reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricq"

# module.[Class.]name -> why it stays without a caller in src/
ALLOWED = {
    "linalg.solve_unique": "spanned by bench/tracing.py",
    "moment.derived_moment_data": "spanned by bench/tracing.py",
    "strata.local_model": "spanned by bench/tracing.py",
    "orbits.n_orbit_equal": "spanned by bench/tracing.py",
    "orbits.stratum_of": "spanned by bench/tracing.py",
    "field.NumberField.rationals": "called by bench/workloads.py",
}


def _definitions_and_reads():
    """(qualified name, name, def node) per function or method, and
    (name, ids of the enclosing defs) per name read."""
    defs, reads = [], []

    def walk(node, module, scope, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((".".join([module, *scope, child.name]), child.name,
                             child))
                walk(child, module, scope + [child.name],
                     enclosing | {id(child)})
            elif isinstance(child, ast.ClassDef):
                walk(child, module, scope + [child.name], enclosing)
            else:
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    reads.append((child.id, enclosing))
                elif isinstance(child, ast.Attribute):
                    reads.append((child.attr, enclosing))
                walk(child, module, scope, enclosing)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, [], frozenset())
    return defs, reads


def uncalled():
    """Qualified names of the functions and methods that nothing in src/
    reads outside their own body, dunders excepted."""
    defs, reads = _definitions_and_reads()
    out = []
    for qualified, name, node in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(read == name and id(node) not in enclosing
                   for read, enclosing in reads):
            out.append(qualified)
    return out


def test_every_function_has_a_caller_in_src():
    assert sorted(set(uncalled()) - set(ALLOWED)) == []


def test_every_allowlisted_name_exists_and_lacks_a_caller():
    """An allowlist entry that gained a caller, or whose function went,
    is stale."""
    assert sorted(ALLOWED) == sorted(set(uncalled()) & set(ALLOWED))
