"""Reproducible property-suite harness.

Each suite checks one documented invariant of a module against the loaded
instance, with all randomness drawn from a single seeded generator, so a
(seed, instance) pair reproduces the report byte for byte.  Suites that do
not apply to an instance (no singular faces, nonstandard quasilattice)
pass with an explanatory note rather than vanishing from the report.

The suites are the one home of the sampled properties: the acceptance
criteria run them at their own seeds and counts, and the moment suites check
the solver's own objective, gradient and Hessian.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import ToricQError, ValidationError
from .field import FieldScalar
from .groups import chart_index_sets, gamma_check, gamma_group, kernel_data, n_membership
from .moment import (SolverConfig, _gradient, _hessian, _objective, _reduced_subspace,
                     _squared_moduli, _zero_labels, psi, retract)
from .orbits import _closure, classify_orbit, equivalent, equivalent_orbits, p_function
from .polytope import FaceLattice, Polytope
from .sampling import Sampler, nonclosed_flow_direction
from .strata import build_stratification


@dataclass
class PropertyResult:
    name: str
    passed: bool
    samples: int
    tolerance: float | None = None
    note: str = ""
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "samples": self.samples}
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.note:
            out["note"] = self.note
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationRun:
    seed: int
    samples: int
    results: list[PropertyResult] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {"seed": self.seed, "samples": self.samples,
                "passed": self.passed,
                "results": [r.to_json() for r in
                            sorted(self.results, key=lambda r: r.name)]}


class _Context:
    def __init__(self, instance, samples: int, seed: int):
        self.instance = instance
        self.p: Polytope = instance.polytope
        self.lat: FaceLattice = self.p.face_lattice()
        self.cfg: SolverConfig = instance.solver
        self.samples = samples
        self.seed = seed
        self.sampler = Sampler(self.p, seed)
        self.md = self.sampler.md
        self.seq = kernel_data(self.p)
        self.report = None  # StratificationReport, built by _strata_context

    def rand_scalar(self) -> FieldScalar:
        rng = self.sampler.rng
        return self.p.field.scalar(
            [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
             for _ in range(self.p.field.degree)])


def _ok(samples, tol=None, note="") -> PropertyResult:
    return PropertyResult("", True, samples, tol, note)


def _fail(samples, witness, tol=None) -> PropertyResult:
    return PropertyResult("", False, samples, tol, witness=witness)


# -- scalar suites ---------------------------------------------------------


def scalars_field_axioms(ctx: _Context) -> PropertyResult:
    for i in range(ctx.samples):
        a, b, c = ctx.rand_scalar(), ctx.rand_scalar(), ctx.rand_scalar()
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c) \
                or a * (b + c) != a * b + a * c:
            return _fail(i + 1, {"sample": i})
    return _ok(ctx.samples)


def scalars_sign_multiplicative(ctx: _Context) -> PropertyResult:
    for i in range(ctx.samples):
        s, t = ctx.rand_scalar(), ctx.rand_scalar()
        if (s * t).sign() != s.sign() * t.sign():
            return _fail(i + 1, {"sample": i})
    return _ok(ctx.samples)


def scalars_shadow_monotone(ctx: _Context) -> PropertyResult:
    precisions = (24, 36, 53, 80)
    count = max(5, ctx.samples // 10)
    for i in range(count):
        s = ctx.rand_scalar()
        bounds = [s.shadow(p)[1] for p in precisions]
        if any(b1 < b2 for b1, b2 in zip(bounds, bounds[1:])):
            return _fail(i + 1, {"bounds": bounds})
    return _ok(count)


# -- polytope suites ---------------------------------------------------------


def polytope_rank_regularity(ctx: _Context) -> PropertyResult:
    for f in ctx.lat.faces:
        if f.r < ctx.p.n - f.dim or f.regular != (f.r == ctx.p.n - f.dim):
            return _fail(len(ctx.lat.faces), {"face": list(f.index_set)})
    return _ok(len(ctx.lat.faces))


def polytope_order_duality(ctx: _Context) -> PropertyResult:
    faces = ctx.lat.faces
    for a in faces:
        for b in faces:
            if (a.vertex_ids <= b.vertex_ids) != \
                    (set(a.index_set) >= set(b.index_set)):
                return _fail(len(faces) ** 2,
                             {"a": list(a.index_set), "b": list(b.index_set)})
    return _ok(len(faces) ** 2)


def polytope_facet_count(ctx: _Context) -> PropertyResult:
    count = sum(1 for f in ctx.lat.faces if f.r == 1)
    if count != ctx.p.d:
        return _fail(1, {"facet_faces": count, "d": ctx.p.d})
    return _ok(1)


def polytope_active_set_idempotent(ctx: _Context) -> PropertyResult:
    for f in ctx.lat.faces:
        if ctx.lat.face_of_active_set(f.index_set) is not f:
            return _fail(len(ctx.lat.faces), {"face": list(f.index_set)})
    return _ok(len(ctx.lat.faces))


def polytope_singular_codim(ctx: _Context) -> PropertyResult:
    for f in ctx.lat.singular_faces():
        if not f.dim < ctx.p.n - 2:
            return _fail(1, {"face": list(f.index_set), "dim": f.dim})
    return _ok(len(ctx.lat.faces))


# -- group suites ---------------------------------------------------------


def groups_pi_iota_zero(ctx: _Context) -> PropertyResult:
    for v in ctx.seq.kernel_basis:
        if any(not s.is_zero() for s in ctx.seq.pi(v)):
            return _fail(1, {"vector": "kernel basis"})
    return _ok(len(ctx.seq.kernel_basis))


def _is_standard_lattice(p: Polytope) -> bool:
    if not all(p.quasilattice.contains(e) for e in linalg.identity(p.n, p.field)):
        return False
    for g in p.quasilattice.generators:
        if not all(s.is_rational() and s.as_fraction().denominator == 1
                   for s in g):
            return False
    return True


def _det_order_mismatch(ctx: _Context, charts):
    """The first chart I, with its group, whose order is not |det X_I|."""
    for I in charts:
        g = gamma_group(ctx.p, I)
        det = linalg.det([ctx.p.normals[j - 1] for j in I], ctx.p.field)
        if not g.finite or g.order != abs(det.as_fraction()):
            return I, g
    return None


def groups_det_orders(ctx: _Context) -> PropertyResult:
    if not _is_standard_lattice(ctx.p):
        return _ok(0, note="inapplicable: quasilattice is not Z^n")
    charts = chart_index_sets(ctx.p)
    if (bad := _det_order_mismatch(ctx, charts)) is not None:
        return _fail(len(charts), {"I": list(bad[0]), "order": bad[1].order_text})
    return _ok(len(charts))


def groups_gamma_check_divides(ctx: _Context) -> PropertyResult:
    singular = ctx.lat.singular_faces()
    if not singular:
        return _ok(0, note="inapplicable: no singular faces")
    charts = chart_index_sets(ctx.p)
    full = {}    # one gamma_group per chart, shared by every face
    checked = 0
    for face in singular:
        for I in charts:
            if len(set(I) & set(face.index_set)) != ctx.p.n - face.dim:
                continue
            if I not in full:
                full[I] = gamma_group(ctx.p, I)
            gi = full[I]
            gc = gamma_check(ctx.p, I, face)
            checked += 1
            if gi.finite and gc.finite and gi.order % gc.order != 0:
                return _fail(checked, {"I": list(I),
                                       "face": list(face.index_set)})
            if gi.finite and not gc.finite:
                return _fail(checked, {"I": list(I),
                                       "face": list(face.index_set),
                                       "reason": "quotient infinite"})
    return _ok(checked)


def groups_polar_decomposition(ctx: _Context) -> PropertyResult:
    count = max(5, ctx.samples // 10)
    for i in range(count):
        theta, Y = ctx.sampler.nc_pair()
        if not n_membership(ctx.seq, ctx.p.quasilattice, theta):
            return _fail(i + 1, {"part": "angle vector not in subgroup"})
        image = ctx.md.normals_float.T @ Y
        if np.linalg.norm(image) > 1e-9:
            return _fail(i + 1, {"part": "direction not in kernel"})
        z = ctx.sampler.point_with_zeros(())
        both = ctx.sampler.apply(z, theta, Y)
        swapped = ctx.sampler.apply(ctx.sampler.apply(z, None, Y), theta, None)
        if not np.allclose(both, swapped, atol=1e-10):
            return _fail(i + 1, {"part": "polar parts do not commute"})
    return _ok(count)


# -- moment suites ---------------------------------------------------------


def moment_shadow_consistency(ctx: _Context) -> PropertyResult:
    exact_lambda = ctx.seq.iota_star(ctx.p.offsets)
    approx = ctx.md.lambda_vector
    bound = ctx.md.shadow_error * (ctx.p.d + 1) * 4 + 1e-12
    for k, s in enumerate(exact_lambda):
        val, err = s.shadow(53)
        if abs(val - approx[k]) > bound * max(1.0, abs(val)) + err:
            return _fail(k + 1, {"component": k})
    return _ok(len(exact_lambda))


def moment_gradient_fd(ctx: _Context) -> PropertyResult:
    tol = 1e-5
    count = min(max(20, ctx.samples // 5), 100)
    R = _reduced_subspace(ctx.md, ())
    rng = ctx.sampler.rng
    lam = ctx.md.offsets_float
    for i in range(count):
        z2 = np.abs(ctx.sampler.point_with_zeros(())) ** 2
        u = np.array([rng.uniform(-0.3, 0.3) for _ in range(R.shape[1])])
        grad = _gradient(R, _squared_moduli(R, z2, u) + lam)
        h = 1e-6
        fd = np.array([(_objective(R, z2, lam, u + h * e)
                        - _objective(R, z2, lam, u - h * e)) / (2 * h)
                       for e in np.eye(R.shape[1])])
        if np.linalg.norm(fd - grad) > tol * max(1.0, np.linalg.norm(grad)):
            return _fail(i + 1, {"gap": float(np.linalg.norm(fd - grad))},
                         tol)
    return _ok(count, tol)


def moment_hessian_pd(ctx: _Context) -> PropertyResult:
    count = min(max(20, ctx.samples // 5), 100)
    R = _reduced_subspace(ctx.md, ())
    rng = ctx.sampler.rng
    for i in range(count):
        z2 = np.abs(ctx.sampler.point_with_zeros(())) ** 2
        u = np.array([rng.uniform(-0.5, 0.5) for _ in range(R.shape[1])])
        H = _hessian(R, _squared_moduli(R, z2, u))
        lo = float(np.linalg.eigvalsh(H).min()) if R.shape[1] else 1.0
        if not lo > 0:
            return _fail(i + 1, {"min_eigenvalue": lo})
    return _ok(count)


def moment_retraction_unique(ctx: _Context) -> PropertyResult:
    tol = 10 * ctx.cfg.tolerance
    count = max(10, ctx.samples // 10)
    rng = ctx.sampler.rng
    faces = ctx.lat.faces
    for i in range(count):
        z = ctx.sampler.point_for_face(faces[i % len(faces)])
        base = retract(ctx.md, z, ctx.cfg)
        r = _reduced_subspace(ctx.md, base.zero_set).shape[1]
        for _ in range(2):
            start = np.array([rng.uniform(-0.5, 0.5) for _ in range(r)])
            again = retract(ctx.md, z, ctx.cfg, start=start)
            gap = float(np.max(np.abs(again.x - base.x)))
            if gap > tol:
                return _fail(i + 1, {"gap": gap}, tol)
    return _ok(count, tol)


def moment_a_invariance(ctx: _Context) -> PropertyResult:
    tol = 10 * ctx.cfg.tolerance
    count = max(10, ctx.samples // 10)
    faces = ctx.lat.faces
    for i in range(count):
        z = ctx.sampler.point_for_face(faces[i % len(faces)])
        base = retract(ctx.md, z, ctx.cfg)
        moved = ctx.sampler.apply(z, None, ctx.sampler.a_element())
        gap = float(np.max(np.abs(retract(ctx.md, moved, ctx.cfg).x - base.x)))
        if gap > tol:
            return _fail(i + 1, {"gap": gap}, tol)
    return _ok(count, tol)


def moment_phi_in_delta(ctx: _Context) -> PropertyResult:
    tol = 1e-8
    count = max(10, ctx.samples // 10)
    for i in range(count):
        z = ctx.sampler.random_admissible_point()
        oc = classify_orbit(ctx.p, ctx.lat, z, ctx.cfg)
        margins = (ctx.md.normals_float @ oc.retracted.xi
                   - ctx.md.offsets_float)
        if margins.min() < -tol:
            return _fail(i + 1, {"margin": float(margins.min())}, tol)
    return _ok(count, tol)


def moment_zero_level_per_face(ctx: _Context) -> PropertyResult:
    for f in ctx.lat.faces:
        xi = ctx.lat.relint_point(f)
        x = np.zeros(ctx.p.d, dtype=complex)
        for j in range(1, ctx.p.d + 1):
            if j not in f.index_set:
                x[j - 1] = math.sqrt(float(ctx.p.slack(xi, j)))
        if np.linalg.norm(psi(ctx.md, x)) > 1e-9:
            return _fail(1, {"face": list(f.index_set)})
        support = _zero_labels(x)
        if support != f.index_set:
            return _fail(1, {"face": list(f.index_set),
                             "support": list(support)})
    return _ok(len(ctx.lat.faces))


# -- orbit suites ---------------------------------------------------------


def _rational_generators(p: Polytope) -> bool:
    return all(s.is_rational() for g in p.quasilattice.generators for s in g)


def orbits_equivalence_axioms(ctx: _Context) -> PropertyResult:
    """The orbit equivalence is reflexive, symmetric and transitive on
    sampled points z, gz and ggz moved by subgroup elements.  Each of the
    three is classified once and the axioms are checked on those classes
    by :func:`equivalent_orbits`, which gives the verdicts of
    :func:`equivalent` on the points.  On a dense subgroup the imaginary
    part is checked separately, by :func:`equivalent` on float points."""
    count = max(10, ctx.samples // 10)
    rational = _rational_generators(ctx.p)
    for i in range(count):
        if rational:
            # full polar actions through the float path (lattice images
            # make the tolerance-based phase test sound)
            z = ctx.sampler.random_admissible_point()
            t1, Y1 = ctx.sampler.nc_pair()
            t2, Y2 = ctx.sampler.nc_pair()
            gz = ctx.sampler.apply(z, t1, Y1)
            ggz = ctx.sampler.apply(gz, t2, Y2)
        else:
            # dense subgroups: exercise the phase part on exact points
            # (exact verdicts) and the imaginary part separately below
            face = ctx.sampler.rng.choice(ctx.lat.faces)
            z = ctx.sampler.exact_point_for_face(face)
            gz = z.with_phase_shift(ctx.sampler.n_element())
            ggz = gz.with_phase_shift(ctx.sampler.n_element())
        oz, ogz, oggz = (classify_orbit(ctx.p, ctx.lat, x, ctx.cfg)
                         for x in (z, gz, ggz))
        checks = [("reflexive", equivalent_orbits(ctx.p, oz, oz, ctx.cfg)),
                  ("forward", equivalent_orbits(ctx.p, oz, ogz, ctx.cfg)),
                  ("symmetric", equivalent_orbits(ctx.p, ogz, oz, ctx.cfg)),
                  ("chain", equivalent_orbits(ctx.p, ogz, oggz, ctx.cfg)),
                  ("transitive", equivalent_orbits(ctx.p, oz, oggz, ctx.cfg))]
        if not rational:
            zc = z.to_complex()
            moved = ctx.sampler.apply(zc, None, ctx.sampler.a_element())
            checks.append(("imaginary part",
                           equivalent(ctx.p, zc, moved, ctx.lat, ctx.cfg)))
        for label, res in checks:
            if not res.equivalent:
                return _fail(i + 1, {"axiom": label, "reason": res.reason})
    return _ok(count)


def orbits_p_invariance(ctx: _Context) -> PropertyResult:
    tol = 1e-7
    pairs = max(5, ctx.samples // 20)
    actions = max(5, ctx.samples // 20)
    verts = ctx.lat.vertices()
    for i in range(pairs):
        va = ctx.sampler.rng.choice(verts)
        vb = ctx.sampler.rng.choice(verts)
        pf = p_function(ctx.p, ctx.lat.relint_point(va),
                        ctx.lat.relint_point(vb), ctx.lat)
        w = ctx.sampler.point_with_zeros(())
        base = pf.evaluate(w)
        for _ in range(actions):
            theta, Y = ctx.sampler.nc_pair()
            moved = ctx.sampler.apply(w, theta, Y)
            if abs(pf.evaluate(moved) - base) > tol * abs(base):
                return _fail(i + 1, {"pair": i}, tol)
    return _ok(pairs * actions, tol)


def orbits_flow_nonclosed(ctx: _Context) -> PropertyResult:
    tol = 1e-6
    count = max(10, ctx.samples // 5)
    nonclosed_seen = 0
    for i in range(count):
        z = ctx.sampler.point_biased_nonclosed()
        oc = classify_orbit(ctx.p, ctx.lat, z, ctx.cfg)
        if oc.closed:
            Y = ctx.sampler.a_element()
            moved = ctx.sampler.apply(z, None, Y)
            if _zero_labels(moved) != oc.i_z:
                return _fail(i + 1, {"case": "closed support moved"})
            continue
        nonclosed_seen += 1
        Y = nonclosed_flow_direction(ctx.p, oc)
        decay = [j for j in oc.face_E.index_set if j not in set(oc.i_z)]
        prev = None
        zc = np.asarray(z, dtype=complex)
        for t in np.linspace(0.0, 2.5, 11):
            moved = np.exp(-2 * math.pi * t * Y) * zc
            size = max(abs(moved[j - 1]) for j in decay)
            if prev is not None and size >= prev:
                return _fail(i + 1, {"case": "not monotone"}, tol)
            prev = size
            off = [abs(moved[j - 1]) for j in range(1, ctx.p.d + 1)
                   if j not in set(oc.face_E.index_set)]
            if off and min(off) == 0:
                return _fail(i + 1, {"case": "support left the chart"})
        start = max(abs(zc[j - 1]) for j in decay)
        if prev > tol * max(1.0, start):
            return _fail(i + 1, {"case": "no decay", "final": prev}, tol)
    note = f"{nonclosed_seen} nonclosed orbits among {count} samples"
    return _ok(count, tol, note)


def orbits_canonical_idempotent(ctx: _Context) -> PropertyResult:
    """The closure map is idempotent: the closed representative of a
    sampled orbit is closed and is its own closed representative.  The
    map is applied twice and nothing is retracted: the suite reads no
    retraction."""
    count = max(10, ctx.samples // 10)
    for i in range(count):
        z = ctx.sampler.random_admissible_point()
        first = _closure(ctx.p, ctx.lat, z)[3]
        _, _, closed, rep, _ = _closure(ctx.p, ctx.lat, first)
        if not closed or not np.allclose(np.asarray(rep, dtype=complex),
                                         np.asarray(first, dtype=complex)):
            return _fail(i + 1, {"sample": i})
    return _ok(count)


def orbits_face_orbit_bijection(ctx: _Context) -> PropertyResult:
    simple = not ctx.lat.singular_faces()
    if not (simple and _is_standard_lattice(ctx.p)):
        return _ok(0,
                   note="inapplicable: needs a rational simple instance")
    reached = set()
    for f in ctx.lat.faces:
        z = ctx.sampler.point_for_face(f)
        oc = classify_orbit(ctx.p, ctx.lat, z, ctx.cfg)
        if not oc.closed or oc.face_E.index_set != f.index_set:
            return _fail(1, {"face": list(f.index_set)})
        reached.add(oc.face_E.index_set)
    if reached != {f.index_set for f in ctx.lat.faces}:
        return _fail(len(ctx.lat.faces), {"missing": "faces unreached"})
    charts = chart_index_sets(ctx.p)
    if (bad := _det_order_mismatch(ctx, charts)) is not None:
        return _fail(len(charts), {"I": list(bad[0])})
    return _ok(len(ctx.lat.faces) + len(charts))


# -- strata suites ---------------------------------------------------------


def _strata_context(ctx: _Context):
    if not ctx.lat.singular_faces():
        return None
    if ctx.report is None:
        ctx.report = build_stratification(ctx.p)
    return ctx.report


def strata_kernel_dims(ctx: _Context) -> PropertyResult:
    report = _strata_context(ctx)
    if report is None:
        return _ok(0, note="inapplicable: no singular faces")
    for s in report.strata:
        f = s.face
        if s.link.n_f_dim != f.r - ctx.p.n + f.dim \
                or s.link.n_f0_dim != s.link.n_f_dim + 1:
            return _fail(1, {"face": list(f.index_set)})
    return _ok(len(report.strata))


def strata_kernel_split(ctx: _Context) -> PropertyResult:
    report = _strata_context(ctx)
    if report is None:
        return _ok(0, note="inapplicable: no singular faces")
    field = ctx.p.field
    for s in report.strata:
        link = s.link
        r = len(link.facet_labels)
        combined = [list(v) for v in link.cone_kernel] + [[field.one()] * r]
        if linalg.rank(combined, r) != link.n_f0_dim:
            return _fail(1, {"face": list(s.face.index_set)})
        dseq = kernel_data(link.delta_F)
        for v in combined:
            if any(not c.is_zero() for c in dseq.pi(v)):
                return _fail(1, {"face": list(s.face.index_set)})
    return _ok(len(report.strata))


def strata_face_bijection(ctx: _Context) -> PropertyResult:
    """Each top-level link's face lattice, read off the parent's, against a
    fresh vertex enumeration of the link polytope."""
    report = _strata_context(ctx)
    if report is None:
        return _ok(0, note="inapplicable: no singular faces")
    for s in report.strata:
        d, witness = s.link.delta_F, {"face": list(s.face.index_set)}
        fresh = {f.index_set: f for f in Polytope(
            d.field, d.normals, d.offsets, d.quasilattice).face_lattice().faces}
        inherited = d.face_lattice().faces
        if sorted(f.index_set for f in inherited) != sorted(fresh):
            return _fail(1, witness)
        bad = [f.index_set for f in inherited if f != fresh[f.index_set]]
        if bad:
            return _fail(1, dict(witness, sub=list(bad[0])))
    return _ok(len(report.strata))


def strata_depth_decrease(ctx: _Context) -> PropertyResult:
    report = _strata_context(ctx)
    if report is None:
        return _ok(0, note="inapplicable: no singular faces")
    for s in report.strata:
        link_depth = s.link.recursive_report.polytope_depth
        # the link recursion drops the depth by exactly one, which forces
        # strict decrease of the polytope depth at every level
        if link_depth != s.face.depth - 1 or link_depth >= report.polytope_depth:
            return _fail(1, {"face": list(s.face.index_set),
                             "link_depth": link_depth})
    return _ok(len(report.strata))


def strata_poset_axioms(ctx: _Context) -> PropertyResult:
    report = _strata_context(ctx)
    if report is None:
        return _ok(0, note="inapplicable: no singular faces")
    if report.poset_nodes.count("max") != 1:
        return _fail(1, {"reason": "maximal element missing"})
    from .strata import node_key
    key_to_face = {node_key(s.face): s.face for s in report.strata}
    for a, b in report.poset_edges:
        if b == "max":
            continue
        fa, fb = key_to_face[a], key_to_face[b]
        if not ctx.lat.lt(fa, fb):
            return _fail(1, {"edge": [a, b]})
    return _ok(len(report.poset_edges))


# -- io suites ---------------------------------------------------------


def io_roundtrip(ctx: _Context) -> PropertyResult:
    from . import serialize
    blob = serialize.dumps(serialize.instance_to_json(ctx.instance))
    parsed = serialize.instance_from_json(json.loads(blob))
    blob2 = serialize.dumps(serialize.instance_to_json(parsed))
    if blob != blob2:
        return _fail(1, {"reason": "instance JSON not stable"})
    pj = serialize.dumps(serialize.polytope_to_json(ctx.p))
    pj2 = serialize.dumps(serialize.polytope_to_json(
        serialize.polytope_from_json(json.loads(pj))))
    if pj != pj2:
        return _fail(1, {"reason": "polytope JSON not stable"})
    return _ok(2)


def io_determinism(ctx: _Context) -> PropertyResult:
    from . import serialize
    from .cli import analyze_report
    a = serialize.dumps(analyze_report(ctx.instance))
    b = serialize.dumps(analyze_report(ctx.instance))
    if a != b:
        return _fail(1, {"reason": "analyze report not deterministic"})
    r1 = serialize.dumps(serialize.report_to_json(
        build_stratification(ctx.p)))
    r2 = serialize.dumps(serialize.report_to_json(
        build_stratification(ctx.p)))
    if r1 != r2:
        return _fail(1, {"reason": "strata report not deterministic"})
    return _ok(2)


ALL_SUITES = [
    scalars_field_axioms, scalars_sign_multiplicative, scalars_shadow_monotone,
    polytope_rank_regularity, polytope_order_duality, polytope_facet_count,
    polytope_active_set_idempotent, polytope_singular_codim,
    groups_pi_iota_zero, groups_det_orders, groups_gamma_check_divides,
    groups_polar_decomposition,
    moment_shadow_consistency, moment_gradient_fd, moment_hessian_pd,
    moment_retraction_unique, moment_a_invariance, moment_phi_in_delta,
    moment_zero_level_per_face,
    orbits_equivalence_axioms, orbits_p_invariance, orbits_flow_nonclosed,
    orbits_canonical_idempotent, orbits_face_orbit_bijection,
    strata_kernel_dims, strata_kernel_split, strata_face_bijection,
    strata_depth_decrease, strata_poset_axioms,
    io_roundtrip, io_determinism,
]


def run_verification(instance, samples: int = 200,
                     seed: int | None = None) -> VerificationRun:
    """Run every property suite against the instance; reproducible by
    (instance, seed)."""
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    seed = instance.seed if seed is None else seed
    ctx = _Context(instance, samples, seed)
    run = VerificationRun(seed=seed, samples=samples)
    for suite in ALL_SUITES:
        try:
            result = suite(ctx)
        except ToricQError as exc:
            result = _fail(0, {"error": type(exc).__name__, "message": str(exc)})
        # each suite reports under its own name: scalars_field_axioms
        # reports as scalars.field_axioms
        result.name = suite.__name__.replace("_", ".", 1)
        run.results.append(result)
    return run
