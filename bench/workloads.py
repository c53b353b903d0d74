"""The benchmark's workloads: seeded inputs and checked operations.

A workload is built once in set-up into one *round*: a fixed list of
operations that the closed loop in ``run.py`` repeats.  Every input (instance
files, points, subgroup elements, pairs) is generated here, never inside a
timed call.  Each operation carries a check that runs after its timer stops.

Every workload runs all six user-facing operations on its own instances, so
that every end-to-end metric is measured on every workload:

* ``analyze``, ``faces``, ``strata``: the CLI command, in-process through
  ``toricq.cli.main`` with stdout captured; each call loads its instance
  file fresh, as at the shell.
* ``classify``, ``equiv``: one ``classify_orbit`` / ``equivalent`` call.
* ``verify``: one ``run_verification(samples=200)`` call.

No operation of a round is known to fail.  Float ``equivalent`` verdicts on
an instance whose quasilattice is not a lattice come from a rounding
heuristic (``_phase_shift_in_n_float``, flagged "approximate") that judges
many subgroup-moved pairs inequivalent.  On such instances the rounds ask
subgroup-moved pairs as ``ExactVector`` pairs only; the float pairs form
the workload's ``defect_probes``, asked once per run outside the timing
and reported in the context record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import checks
import families

COMMANDS = ("analyze", "faces", "strata")
HEAVY = COMMANDS + ("verify",)     # seconds each; classify/equiv take ms
DEFECT_PROBES = 40                  # float pairs per dense-image instance


def derive(seed: int, label: str) -> int:
    """A seed for one input stream, stable across processes."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Failure:
    reason: str


@dataclass
class Op:
    kind: str
    instance: str
    call: Callable[[], object]
    check: Callable[[object], Failure | None]


@dataclass
class Workload:
    ops: list[Op]                  # one round
    lattice_instances: list[str]   # instances the CLI commands run on
    orbit_instances: list[str]     # instances of classify / equiv / verify
    defect_probes: list[Op]        # known to fail; asked once, untimed


# -- CLI commands ---------------------------------------------------------


def _cli_ops(cli, name: str, family: str, path: str) -> list[Op]:
    seen: dict[str, str] = {}

    def make(command):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main([command, path])
            return rc, out.getvalue()

        def check(result):
            rc, text = result
            if rc != 0:
                return Failure(f"{command} {name}: exit code {rc}")
            digest = hashlib.sha256(text.encode()).hexdigest()
            if command in seen:    # later passes must repeat the first
                if seen[command] != digest:
                    return Failure(f"{command} {name}: report differs "
                                   "between passes")
                return None
            seen[command] = digest
            why = checks.check_lattice_report(command, family, text)
            return Failure(why) if why else None

        return Op(command, name, call, check)

    return [make(c) for c in COMMANDS]


# -- orbit operations -------------------------------------------------------


def _closure_face(lat, zeros: tuple[int, ...]):
    """The face whose index set is the intersection of all face index sets
    containing the zero labels: the closure face of the orbit."""
    common = None
    for f in lat.faces:
        if set(zeros) <= set(f.index_set):
            common = set(f.index_set) if common is None else common & set(f.index_set)
    return lat.face_by_index_set(common)


def _zeros(z) -> tuple[int, ...]:
    return tuple(int(j) + 1 for j in np.flatnonzero(np.asarray(z) == 0))


def _orbit_ops(tq, name: str, inst, seed: int, n_classify: int,
               n_pairs: int) -> tuple[list[Op], list[Op]]:
    """Checked classify_orbit and equivalent calls on one instance, and one
    run_verification; every point is drawn here, in set-up, with the
    library's seeded Sampler.  Also returns the defect probes: on an
    instance with a dense image group, DEFECT_PROBES float subgroup-moved
    pairs (see the module docstring)."""
    p = inst.polytope
    lat = p.face_lattice()
    cfg = inst.solver
    sampler = tq.Sampler(p, seed)
    rng = sampler.rng
    dense = not p.quasilattice.is_lattice
    ops: list[Op] = []

    def residuals_ok(*orbits):
        return all(o.retracted.residual <= cfg.tolerance for o in orbits)

    for i in range(n_classify):
        if i % 2:
            z = sampler.point_biased_nonclosed()
        else:
            z = sampler.point_for_face(rng.choice(lat.faces))
        zeros = _zeros(z)
        face = _closure_face(lat, zeros)

        def check(oc, face=face, zeros=zeros):
            if face is None or oc.face_E.index_set != face.index_set \
                    or oc.closed != (zeros == face.index_set):
                return Failure(f"classify {name}: wrong closure face")
            if not residuals_ok(oc):
                return Failure(f"classify {name}: residual "
                               f"{oc.retracted.residual:.3g} above tolerance")
            return None

        ops.append(Op("classify", name,
                      lambda z=z: tq.classify_orbit(p, lat, z, cfg), check))

    # (face, j) with j off the face and X_j outside the span of the face's
    # normals: scaling |z_j| then moves the orbit.  A few faces suffice.
    movable = []
    for f in rng.sample(lat.faces, min(8, len(lat.faces))):
        base = [p.normals[k - 1] for k in f.index_set]
        r = tq.linalg.rank(base, p.n) if base else 0
        movable += [(f, j) for j in range(1, p.d + 1) if j not in f.index_set
                    and tq.linalg.rank(base + [p.normals[j - 1]], p.n) > r]
    # exact subgroup elements are costly to draw, so pairs share a pool
    thetas = [sampler.n_element() for _ in range(16)]

    def pair(exact, mode):
        f = rng.choice(lat.faces)
        if mode == "moduli":
            f, j = rng.choice(movable)
        theta = rng.choice(thetas)
        if exact:
            z = sampler.exact_point_for_face(f)
            w = z.with_phase_shift(theta)
        else:
            z = sampler.point_for_face(f) if mode != "same" \
                else sampler.random_admissible_point()
            w = sampler.apply(z, theta, sampler.a_element())
        if mode == "face":
            g = rng.choice([h for h in lat.faces if h is not f])
            w = sampler.exact_point_for_face(g) if exact \
                else sampler.point_for_face(g)
        elif mode == "moduli":
            if exact:
                mod2 = list(w.mod2)
                mod2[j - 1] = mod2[j - 1] * Fraction(9, 4)
                w = tq.ExactVector(p.field, mod2, w.phase)
            else:
                w = np.array(w)
                w[j - 1] *= 1.5
        expect = mode == "same"

        def check(res):
            if not residuals_ok(res.orbit_z, res.orbit_w):
                return Failure(f"equiv {name}: residual above tolerance")
            if res.equivalent == expect:
                return None
            return Failure(f"equiv {name}: {'exact' if exact else 'float'} "
                           f"{mode} pair judged {res.equivalent} ({res.reason})")

        return Op("equiv", name, lambda: tq.equivalent(p, z, w, lat, cfg), check)

    for i in range(n_pairs):
        mode = ("same", "same", "face", "moduli")[(i // 2) % 4]
        ops.append(pair(i % 2 == 1 or (dense and mode == "same"), mode))

    verify_seed = rng.randrange(2 ** 31)

    def check_verify(run):
        if run.passed:
            return None
        bad = [r.name for r in run.results if not r.passed]
        return Failure(f"verify {name}: suites failed {bad}")

    ops.append(Op("verify", name,
                  lambda: tq.run_verification(inst, samples=200, seed=verify_seed),
                  check_verify))
    probes = [pair(False, "same") for _ in range(DEFECT_PROBES)] if dense else []
    return ops, probes


# -- workloads ----------------------------------------------------------------


def _round(seed: int, ops: list[Op]) -> list[Op]:
    """Interleave: the cheap classify/equiv calls are shuffled and spread
    evenly between the heavy operations, so that their latencies sample the
    whole round rather than one stretch of it."""
    heavy = [op for op in ops if op.kind in HEAVY]
    light = [op for op in ops if op.kind in ("classify", "equiv")]
    random.Random(derive(seed, "round")).shuffle(light)
    out = []
    for i, op in enumerate(heavy):
        out.append(op)
        out += light[i * len(light) // len(heavy):(i + 1) * len(light) // len(heavy)]
    return out


def _write(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as handle:
        json.dump(data, handle)
    return path


def _generated(tq, seed, root, workdir, lattice, orbit, n_classify, n_pairs):
    """CLI operations on seeded variants of the lattice families, and orbit
    operations on one shipped instance.  A family given with count c
    contributes c independent variants, named <family>#<i>; averaging
    several variants damps how much one facet order sways a run.  The orbit
    instance is not shuffled: `run_verification` time moves by about 10%
    with the facet order alone."""
    ops, lattice_names = [], []
    for fam, gen, k, count in lattice:
        for i in range(count):
            var = f"{fam}#{i}"
            path = _write(workdir, var, gen(k, derive(seed, var), (i, count)))
            ops += _cli_ops(tq.cli, var, fam, path)
            lattice_names.append(var)
    inst = tq.serialize.load_instance(os.path.join(root, "instances", orbit + ".json"))
    orbit_ops, probes = _orbit_ops(tq, orbit, inst, derive(seed, orbit),
                                   n_classify, n_pairs)
    return Workload(_round(seed, ops + orbit_ops), lattice_names, [orbit], probes)


def lattice_qq(tq, seed: int, root: str, workdir: str) -> Workload:
    return _generated(
        tq, seed, root, workdir,
        lattice=[("pyr-cross_3", families.pyramid_cross, 3, 1),
                 ("pyr-cube_4", families.pyramid_cube, 4, 1),
                 ("cube_5", families.cube, 5, 1)],
        orbit="square_pyramid",
        n_classify=400, n_pairs=400)


def lattice_sqrt2(tq, seed: int, root: str, workdir: str) -> Workload:
    return _generated(
        tq, seed, root, workdir,
        lattice=[("pyr-cube_4-sqrt2", families.pyramid_cube_sqrt2, 4, 1),
                 ("cross_3-sqrt2", families.cross_sqrt2, 3, 2)],
        orbit="pyramid_sqrt2",
        n_classify=400, n_pairs=400)


SHIPPED = ("interval", "interval_sqrt2", "octahedron", "pyramid4",
           "pyramid_sqrt2", "square_pyramid", "weighted_triangle")


def orbit(tq, seed: int, root: str, workdir: str) -> Workload:
    ops, probes = [], []
    for name in SHIPPED:
        path = os.path.join(root, "instances", name + ".json")
        ops += _cli_ops(tq.cli, name, name, path)
        inst = tq.serialize.load_instance(path)
        orbit_ops, inst_probes = _orbit_ops(tq, name, inst, derive(seed, name),
                                            n_classify=80, n_pairs=80)
        ops += orbit_ops
        probes += inst_probes
    return Workload(_round(seed, ops), list(SHIPPED), list(SHIPPED), probes)


WORKLOADS = {"lattice-qq": lattice_qq, "lattice-sqrt2": lattice_sqrt2,
             "orbit": orbit}


def scalar_operands(tq, seed: int, degree: int, count: int):
    """Seeded field elements for the scalar microtimings."""
    field = (tq.NumberField.rationals() if degree == 1 else
             tq.NumberField([-2, 0, 1], (Fraction(1), Fraction(2))))
    rng = random.Random(derive(seed, f"scalars/{degree}"))

    def draw():
        while True:
            s = field.scalar([Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                              for _ in range(degree)])
            if not s.is_zero():
                return s

    return [(draw(), draw()) for _ in range(count)]
