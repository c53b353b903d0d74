"""No unbounded global state: a cache lives on the object whose data it
holds (a polytope's chart table, its chart-group invariants), so it goes
when that object goes.  No module of the package binds a dict, list or set
at module level, and no function is wrapped in ``functools.cache`` or
``lru_cache``, except the names allowed below."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricq"

# fixed tables and the argument parser, each built once and never grown
ALLOWED = {("serialize", "_FIXED_SOLVER_KEYS"), ("verify", "ALL_SUITES"),
           ("cli", "build_parser")}

CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONSTRUCTORS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
                "deque"}
CACHES = {"cache", "lru_cache"}


def _name(node):
    """The called or decorating name: ``f`` for ``f``, ``m.f``, ``f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _module_state(source: str) -> set[str]:
    """Names bound at module level to a dict, list or set, and functions
    (at any depth) decorated with a cache."""
    found = set()
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, CONTAINERS) or (
                    isinstance(value, ast.Call) and _name(value) in CONSTRUCTORS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {t.id for t in targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _name(d) in CACHES for d in node.decorator_list):
            found.add(node.name)
    return found


def _package_state() -> set[tuple[str, str]]:
    return {(path.stem, name) for path in sorted(SRC.glob("*.py"))
            for name in _module_state(path.read_text())}


def test_no_module_level_state():
    assert _package_state() - ALLOWED == set()


def test_the_guard_sees_module_level_state():
    """The walk finds every allowed name where it is, and a module-level
    dict, list comprehension, set constructor and cached function."""
    assert ALLOWED <= _package_state()
    source = ("import functools\n"
              "CACHE = {}\n"
              "ROWS: list = [i for i in range(3)]\n"
              "SEEN = set()\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def f(x):\n"
              "    return x\n")
    assert _module_state(source) == {"CACHE", "ROWS", "SEEN", "f"}
