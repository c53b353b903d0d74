"""The verification harness itself: pass/fail plumbing, reproducibility,
and a full run over a nonsimple instance."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from toricq import cli, linalg, moment, orbits, serialize
from toricq import verify as verify_mod
from toricq.cli import main
from toricq.errors import SolverError
from toricq.moment import SolverConfig, moment_data, retract
from toricq.orbits import classify_orbit, equivalent
from toricq.sampling import Sampler
from toricq.serialize import ProblemInstance, dumps
from toricq.verify import PropertyResult, VerificationRun, run_verification


def test_full_run_on_pyramid(pyramid):
    run = run_verification(ProblemInstance(pyramid, SolverConfig(), 3),
                           samples=60, seed=3)
    assert run.passed
    names = {r.name for r in run.results}
    # one suite per documented invariant family
    assert {"scalars.field_axioms", "polytope.order_duality",
            "groups.det_orders", "moment.retraction_unique",
            "orbits.flow_nonclosed", "strata.face_bijection",
            "io.roundtrip"} <= names
    flow = next(r for r in run.results if r.name == "orbits.flow_nonclosed")
    assert "nonclosed" in flow.note


def test_inapplicable_suites_note(interval):
    run = run_verification(ProblemInstance(interval, SolverConfig(), 5),
                           samples=20, seed=5)
    assert run.passed
    strata = next(r for r in run.results if r.name == "strata.kernel_dims")
    assert "inapplicable" in strata.note


def test_run_reports_are_reproducible(pyramid):
    inst = ProblemInstance(pyramid, SolverConfig(), 8)
    a = dumps(run_verification(inst, samples=30, seed=8).to_json())
    b = dumps(run_verification(inst, samples=30, seed=8).to_json())
    assert a == b


def test_failing_property_sets_exit_code(tmp_path, capsys, monkeypatch):
    def doomed_suite(ctx):
        return PropertyResult("doom.always_fails", False, 1,
                              witness={"reason": "forced"})

    monkeypatch.setattr(verify_mod, "ALL_SUITES",
                        list(verify_mod.ALL_SUITES) + [doomed_suite])
    instance = {
        "field": {"minpoly": [0, 1], "root_interval": ["0", "0"],
                  "irreducibility_checked": True},
        "n": 1, "normals": [[["1"]], [["-1"]]], "offsets": [["0"], ["-1"]],
        "quasilattice": [[["1"]]], "seed": 2,
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    assert main(["verify", str(path), "--samples", "10", "--seed", "2"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    failed = [r for r in report["results"] if not r["passed"]]
    assert failed and failed[0]["witness"] == {"reason": "forced"}


def test_verification_run_passed_flag():
    run = VerificationRun(seed=1, samples=1)
    run.results.append(PropertyResult("a", True, 1))
    assert run.passed
    run.results.append(PropertyResult("b", False, 1))
    assert not run.passed


def test_nonclosed_orbit_equivalent_to_its_closed_rep(pyramid):
    lat = pyramid.face_lattice()
    sampler = Sampler(pyramid, 31)
    seen = 0
    for _ in range(60):
        z = sampler.point_biased_nonclosed()
        oc = classify_orbit(pyramid, lat, z)
        if oc.closed:
            continue
        seen += 1
        res = equivalent(pyramid, z, oc.closed_rep, lat)
        assert res.equivalent
    assert seen > 5


def test_verify_retracts_each_sampled_orbit_once(monkeypatch):
    """Counts the Newton retractions (``retract`` calls, where ``orbits``
    and ``verify`` bind it) of ``run_verification(samples=200, seed=7)`` on
    each shipped instance.  The equivalence-axiom suite classifies z, gz
    and ggz once each and checks the axioms on those classes, and the
    idempotence and nonclosed-flow suites apply the closure map and
    retract nothing.  With two classifications per ``equivalent`` call
    and two retractions per idempotence sample, the counts were 403, 440,
    400, 400, 440, 400 and 407 in the order below; with one retraction per
    idempotence sample, 243, 280, 240, 240, 280, 240 and 247; with one
    retraction per nonclosed-flow sample, 223, 260, 220, 220, 260, 220
    and 227; with the dense-subgroup imaginary-part check retracting z's
    point again (it now reuses z's class), 183, 220, 180, 180, 220, 180
    and 187."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return retract(*args, **kwargs)

    monkeypatch.setattr(orbits, "retract", counted)
    monkeypatch.setattr(verify_mod, "retract", counted)
    instances = Path(__file__).resolve().parent.parent / "instances"
    budget = {"interval": 183, "interval_sqrt2": 200, "octahedron": 180,
              "pyramid4": 180, "pyramid_sqrt2": 200, "square_pyramid": 180,
              "weighted_triangle": 187}
    assert sorted(budget) == sorted(p.stem for p in instances.glob("*.json"))
    for name, bound in budget.items():
        calls[0] = 0
        instance = serialize.load_instance(str(instances / f"{name}.json"))
        assert run_verification(instance, samples=200, seed=7).passed
        assert calls[0] <= bound, name


@pytest.mark.parametrize("name", ["square_pyramid", "pyramid_sqrt2",
                                  "weighted_triangle"])
def test_one_kernel_elimination_per_run(name, monkeypatch):
    """The verify context reuses the kernel the moment data computed."""
    path = Path(__file__).resolve().parent.parent / "instances" / f"{name}.json"
    instance = serialize.load_instance(str(path))
    p = instance.polytope
    pi_rows = [[p.normals[j][i] for j in range(p.d)] for i in range(p.n)]
    kernel_calls = []
    real = linalg.nullspace

    def counted(rows, ncols, field):
        if rows == pi_rows:
            kernel_calls.append(ncols)
        return real(rows, ncols, field)

    monkeypatch.setattr(linalg, "nullspace", counted)
    assert run_verification(instance, samples=10, seed=7).passed
    assert kernel_calls == [p.d]


@pytest.mark.parametrize("name", ["interval", "octahedron"])
def test_determinism_runs_share_no_polytope(name, monkeypatch):
    """The determinism suite's second ``analyze`` and ``strata`` runs start
    from a fresh parse of the instance, so they share no chart table, memo
    or face lattice with the first runs; the first strata report is the
    context's own when the strata suites built one."""
    path = Path(__file__).resolve().parent.parent / "instances" / f"{name}.json"
    ctx = verify_mod._Context(serialize.load_instance(str(path)), samples=10, seed=7)
    seen = {"analyze": [], "strata": []}
    real_analyze, real_strata = cli.analyze_report, verify_mod.build_stratification

    def analyze(instance):
        seen["analyze"].append(instance.polytope)
        return real_analyze(instance)

    def strata(p):
        seen["strata"].append(p)
        return real_strata(p)

    monkeypatch.setattr(cli, "analyze_report", analyze)
    monkeypatch.setattr(verify_mod, "build_stratification", strata)
    assert verify_mod.io_determinism(ctx).passed
    for first, second in seen.values():
        assert first is ctx.p and second is not ctx.p
    # the octahedron has singular faces, the interval none
    assert (ctx.report is not None) == (name == "octahedron")


@pytest.mark.parametrize("name", ["octahedron", "pyramid4"])
def test_kernel_split_eliminates_no_link_kernel(name, monkeypatch):
    """Once the strata report is built, every link polytope already has its
    kernel sequence; the kernel split suite reads it instead of redoing it."""
    path = Path(__file__).resolve().parent.parent / "instances" / f"{name}.json"
    instance = serialize.load_instance(str(path))
    ctx = verify_mod._Context(instance, samples=10, seed=7)
    assert ctx.report is None
    report = verify_mod._strata_context(ctx)
    assert ctx.report is report and report.strata

    links, pending = [], [report]
    while pending:
        for entry in pending.pop().strata:
            links.append(entry.link.delta_F)
            pending.append(entry.link.recursive_report)
    link_rows = [[[q.normals[j][i] for j in range(q.d)] for i in range(q.n)]
                 for q in links]
    kernel_calls = []
    real = linalg.nullspace

    def counted(rows, ncols, field):
        if rows in link_rows:
            kernel_calls.append(ncols)
        return real(rows, ncols, field)

    monkeypatch.setattr(linalg, "nullspace", counted)
    assert verify_mod.strata_kernel_split(ctx).passed
    assert kernel_calls == []
    assert verify_mod._strata_context(ctx) is report


def test_chart_order_mismatch_is_reported_by_both_suites(triangle, monkeypatch):
    """groups.det_orders and orbits.face_orbit_bijection share one chart
    order = |det X_I| check; each reports the first bad chart its own way."""
    real = verify_mod.gamma_group

    def doubled(p, I):
        g = real(p, I)
        return dataclasses.replace(g, order=2 * g.order)

    monkeypatch.setattr(verify_mod, "gamma_group", doubled)
    ctx = verify_mod._Context(ProblemInstance(triangle, SolverConfig(), 4),
                              samples=10, seed=4)
    first = list(verify_mod.chart_index_sets(ctx.p)[0])
    order = str(2 * real(ctx.p, tuple(first)).order)
    det = verify_mod.groups_det_orders(ctx)
    assert not det.passed and det.witness == {"I": first, "order": order}
    bijection = verify_mod.orbits_face_orbit_bijection(ctx)
    assert not bijection.passed and bijection.witness == {"I": first}


def _bind_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` under every name a toricq
    module gives it."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "toricq":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _moment_suite(suite, p, seed=5):
    ctx = verify_mod._Context(ProblemInstance(p, SolverConfig(), seed), 200, seed)
    return suite(ctx)


def test_gradient_suite_checks_the_solvers_gradient(pyramid, monkeypatch):
    """A gradient 1% off fails moment.gradient_fd, and it is the gradient
    the solver runs: its Newton steps overshoot and converge more slowly."""
    z = [0.5, 1.5, 2.0, 0.7, 1.1]
    before = retract(moment_data(pyramid), z)
    real = moment._gradient
    _bind_everywhere(monkeypatch, real, lambda R, ups: 1.01 * real(R, ups))
    result = _moment_suite(verify_mod.moment_gradient_fd, pyramid)
    assert not result.passed and set(result.witness) == {"gap"}
    assert result.witness["gap"] > result.tolerance
    assert retract(moment_data(pyramid), z).iterations > before.iterations


def test_gradient_suite_checks_the_solvers_objective(pyramid, monkeypatch):
    """|x|^2 and f are written once: evaluated at 1.01 u under every name
    of the shared helper, they fail moment.gradient_fd (f's slope is 1%
    off the gradient), and the solver, which reads both, converges to
    u* / 1.01."""
    z = [0.5, 1.5, 2.0, 0.7, 1.1]
    before = retract(moment_data(pyramid), z)
    real = moment._evaluate
    _bind_everywhere(monkeypatch, real,
                     lambda R, z2, lam, u: real(R, z2, lam, 1.01 * u))
    result = _moment_suite(verify_mod.moment_gradient_fd, pyramid)
    assert not result.passed and set(result.witness) == {"gap"}
    assert result.witness["gap"] > result.tolerance
    after = retract(moment_data(pyramid), z)
    assert after.residual <= SolverConfig().tolerance
    assert np.allclose(1.01 * after.y_star, before.y_star, atol=1e-9)
    assert np.max(np.abs(after.x - before.x)) > 1e-4


def test_hessian_suite_checks_the_solvers_hessian(pyramid, monkeypatch):
    """A negated Hessian fails moment.hessian_pd, and the solver, which
    runs on it, no longer converges."""
    real = moment._hessian
    _bind_everywhere(monkeypatch, real, lambda R, x2: -real(R, x2))
    result = _moment_suite(verify_mod.moment_hessian_pd, pyramid)
    assert not result.passed and set(result.witness) == {"min_eigenvalue"}
    assert result.witness["min_eigenvalue"] < 0
    with pytest.raises(SolverError):
        retract(moment_data(pyramid), [0.5, 1.5, 2.0, 0.7, 1.1])
