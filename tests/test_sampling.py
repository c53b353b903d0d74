"""Contraction rates of nonclosed orbits against a subset-scan oracle."""

import random
from itertools import combinations

import pytest

from toricq import linalg
from toricq.errors import InternalConsistencyError
from toricq.polytope import cone_rays
from toricq.sampling import _positive_decay_rates

from test_polytope import oracle_cone_rays, random_polytope


def oracle_decay_rates(p, decay, zero):
    """The rates from the vertices of {c >= 0, sum c = 1, A c = 0}, found by
    solving the system on every subset of the decay columns (2^t subsets);
    the vertex barycenter, scaled so the slowest rate is 1."""
    field = p.field
    ann = linalg.nullspace([p.normals[k - 1] for k in zero], p.n, field)
    t = len(decay)
    rows = [[linalg.dot(f, p.normals[j - 1]) for j in decay] for f in ann]
    rows.append([field.one()] * t)
    rhs = [field.zero()] * len(ann) + [field.one()]
    vertices, seen = [], set()
    for size in range(t):
        for off in combinations(range(t), size):
            cols = [c for c in range(t) if c not in off]
            sub = [[row[c] for c in cols] for row in rows]
            if linalg.rank(sub, len(cols)) != len(cols):
                continue
            sol = linalg.solve(sub, rhs, len(cols), field)
            if sol is None or any(s.sign() < 0 for s in sol):
                continue
            full = [field.zero()] * t
            for c, s in zip(cols, sol):
                full[c] = s
            key = tuple(s.coeffs for s in full)
            if key not in seen:
                seen.add(key)
                vertices.append(full)
    acc = vertices[0]
    for v in vertices[1:]:
        acc = linalg.vec_add(acc, v)
    bary = [s / len(vertices) for s in acc]
    cmin = min(bary)
    return [c / cmin for c in bary]


def nonclosed_cases(rng, p, draws=3, per_t=8):
    """Seeded (decay, zero) pairs of nonclosed orbits: a zero set Z whose
    closure face E has a strictly larger index set, decay = I_E minus Z.
    Z is drawn inside I_E for each decay count t <= 10, and at most
    ``per_t`` distinct pairs of each t are kept, so large t are not crowded
    out by the many small ones."""
    lat = p.face_lattice()
    found = {}
    for face in lat.faces:
        labels = face.index_set
        for t in range(1, min(10, len(labels)) + 1):
            for _ in range(draws):
                zero = tuple(sorted(rng.sample(labels, len(labels) - t)))
                if lat.face_of_active_set(zero) is face:
                    decay = tuple(j for j in labels if j not in zero)
                    found.setdefault(t, {})[decay, zero] = None
    return [(list(decay), list(zero)) for t in sorted(found)
            for decay, zero in list(found[t])[:per_t]]


# (dimension, cross-polytope base, cuts) per generated polytope
RATE_SHAPES = [(3, True, 2), (3, False, 3), (4, False, 3), (4, True, 0),
               (5, True, 0)]
RATE_SHAPES_SQRT2 = [(3, True, 2), (4, True, 0), (5, True, 0)]


def test_decay_rates_match_the_subset_scan(qq, q_sqrt2):
    rng = random.Random(20261018)
    polytopes = ([random_polytope(rng, qq, *s) for s in RATE_SHAPES]
                 + [random_polytope(rng, q_sqrt2, *s) for s in RATE_SHAPES_SQRT2])
    checked = {}
    nonsimple = 0
    for p in polytopes:
        nonsimple += any(len(a) > p.n for a in p.face_lattice().vertex_active)
        for decay, zero in nonclosed_cases(rng, p):
            assert _positive_decay_rates(p, decay, zero) \
                == oracle_decay_rates(p, decay, zero)
            key = (p.field.degree, len(decay))
            checked[key] = checked.get(key, 0) + 1
    assert nonsimple >= 6
    assert max(t for degree, t in checked if degree == 1) >= 8
    assert max(t for degree, t in checked if degree == 2) >= 5


def test_kernel_cones_match_the_scalar_double_description(qq, q_sqrt2):
    """The cones {u : K u >= 0} of ``_positive_decay_rates``, many of whose
    rays end in 0, give over Q the rays, order and zero masks of the
    scalar double description."""
    rng = random.Random(20261018)
    polytopes = ([random_polytope(rng, qq, *s) for s in RATE_SHAPES]
                 + [random_polytope(rng, q_sqrt2, *s) for s in RATE_SHAPES_SQRT2])
    cones = last_zero = 0
    for p in polytopes:
        for decay, zero in nonclosed_cases(rng, p):
            ann = linalg.nullspace([p.normals[k - 1] for k in zero], p.n, p.field)
            rows = [[linalg.dot(f, p.normals[j - 1]) for j in decay] for f in ann]
            K = linalg.transpose(linalg.nullspace(rows, len(decay), p.field))
            want = oracle_cone_rays(K)
            assert cone_rays(K) == want
            if p.field.degree == 1:
                cones += 1
                last_zero += sum(r[-1].is_zero() for r in want[0])
    assert cones >= 100 and last_zero >= 100


def test_decay_rates_need_a_nonzero_kernel(pyramid):
    # with no zeros, no positive multiple of the base normal X_5 is 0
    with pytest.raises(InternalConsistencyError,
                       match="^no positive contraction rates exist$"):
        _positive_decay_rates(pyramid, [5], [])
