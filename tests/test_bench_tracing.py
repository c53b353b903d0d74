"""The benchmark tracer still finds every name it patches in ``toricq``.

``bench/tracing.py`` patches functions and methods by name, and
``Tracer.install`` raises when one of them is gone.  Installing it here
makes a renamed traced name (say ``Polytope._enumerate_vertices``) fail the
tests rather than the next benchmark run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import toricq
import toricq.cli  # noqa: F401  (not imported by the package itself)
import toricq.verify
from toricq.polytope import Polytope

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every toricq module and of every class in one."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "toricq" or name.startswith("toricq.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if inspect.isclass(value) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[name, attr, key] = member
    return out


def test_tracer_installs_on_toricq_and_restores_every_binding(pyramid):
    tracing = _load_tracing()
    before = _bindings()
    suites = list(toricq.verify.ALL_SUITES)
    tracer = tracing.Tracer(toricq)
    tracer.install()
    try:
        Polytope(pyramid.field, pyramid.normals, pyramid.offsets,
                 pyramid.quasilattice)
    finally:
        tracer.uninstall()
    # the enumerator's span and its result hook saw the build
    assert "polytope.enumerate_vertices" in {rec[0] for rec in tracer.spans}
    assert tracer.counts["polytope.vertices_found"] == 5
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert toricq.verify.ALL_SUITES == suites
