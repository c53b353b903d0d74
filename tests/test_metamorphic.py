"""Metamorphic checks: relabelling a polytope changes none of its intrinsic
combinatorics.

Each input is rebuilt under one seeded composite of four changes that fix
the face lattice and every chart group up to the renaming of facets:

- a permutation of the facets;
- a reordering of the quasilattice generators;
- a matrix A in GL_n(Q) with entries in -2..2, applied to the normals and
  the generators: the polytope becomes A^-T P, and since chart coordinates
  are coefficients in the basis X_I, every generator image is unchanged;
- a translation t, lambda_j -> lambda_j + <X_j, t>: the polytope becomes
  P + t.

After the facets are renamed back, the face lattice (index sets, dims,
regularity, depths) and the chart table (keys, and per chart the group's
finiteness, order, invariant factors and set of images read as
{label: value} on its coordinates) must be equal, and so must ``gamma_check``
on every chart that meets a singular face properly.  A stratum's chosen
chart is the first in label order, so it depends on the labels by design
and is not compared (Chen, Cheung & Yiu 1998, HKUST-CS98-01; Segura et al.
2016, IEEE TSE 42).
"""

import json
import random
from pathlib import Path

import pytest
import sympy

from toricq import linalg, serialize
from toricq.groups import Quasilattice, chart_index_sets, gamma_check, gamma_group
from toricq.polytope import Polytope

from test_groups import seed_one_families

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
FAMILIES = seed_one_families()
NAMES = sorted(path.stem for path in INSTANCES.glob("*.json")) + sorted(FAMILIES)


def _polytope(name: str) -> Polytope:
    data = FAMILIES.get(name) or json.loads((INSTANCES / f"{name}.json").read_text())
    return serialize.instance_from_json(data).polytope


def relabelled(p: Polytope, seed: int):
    """The transformed polytope and the renaming old label -> new label."""
    rng = random.Random(seed)
    field, n = p.field, p.n
    identity = sympy.eye(n)
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if sympy.Matrix(a).det() != 0 and sympy.Matrix(a) != identity:
            break
    a = [linalg.vec(field, row) for row in a]
    t = linalg.vec(field, [rng.randint(-3, 3) for _ in range(n)])
    order = list(range(p.d))        # new facet k is old facet order[k]
    while order == sorted(order):
        rng.shuffle(order)
    normals = [linalg.mat_vec(a, p.normals[j]) for j in order]
    offsets = [p.offsets[j] + linalg.dot(x, t) for j, x in zip(order, normals)]
    generators = [linalg.mat_vec(a, g) for g in p.quasilattice.generators]
    rng.shuffle(generators)
    label = {old + 1: new + 1 for new, old in enumerate(order)}
    return Polytope(field, normals, offsets, Quasilattice(field, generators)), label


def _renamed(index_set, label) -> tuple[int, ...]:
    return tuple(sorted(label[j] for j in index_set))


def _group_data(g, label):
    images = frozenset(frozenset((label[j], (s.num, s.den))
                                 for j, s in zip(g.coords, image))
                       for image in g.generator_images)
    return g.finite, g.order, g.invariant_factors, images


def intrinsic(p: Polytope, label) -> tuple[dict, dict]:
    """The face lattice and the chart table, on renamed labels."""
    lat = p.face_lattice()
    faces = {_renamed(f.index_set, label): (f.dim, f.regular, f.depth)
             for f in lat.faces}
    charts = {}
    for I in chart_index_sets(p):
        key = _renamed(I, label)
        charts[key] = _group_data(gamma_group(p, I), label)
        for f in lat.singular_faces():
            if len(set(I) & set(f.index_set)) == p.n - f.dim:
                charts[key, _renamed(f.index_set, label)] = \
                    _group_data(gamma_check(p, I, f), label)
    return faces, charts


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_relabelling_keeps_lattice_and_chart_groups(name, seed):
    p = _polytope(name)
    q, label = relabelled(p, seed)
    faces, charts = intrinsic(p, label)
    faces2, charts2 = intrinsic(q, {j: j for j in range(1, q.d + 1)})
    assert faces2 == faces
    assert charts2 == charts
