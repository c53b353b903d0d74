"""Seeded polytope families, written in the instance JSON schema.

Every generator returns a plain ``dict`` that ``toricq.serialize`` loads
like a shipped instance file.  A variant is fixed by its seed: the facet
order is shuffled and one signed coordinate permutation is applied to the
normals and the quasilattice generators alike.  Neither changes the
combinatorics, so the expected face counts, depths, chart counts and chart
group orders in ``checks.py`` hold for every seed.

Elimination cost depends on where the family's last coordinate (the apex
axis, the sqrt2 axis) lands, so the seed does not pick that position:
variant i of c puts it at position i*n//c, and a workload that runs c
variants of a family carries the same mix of positions in every run.

Scalars are kept as pairs (a, b) meaning a + b*sqrt2 over Q(sqrt2), and as
the single rational a over Q.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

RATIONAL_FIELD = {"minpoly": [0, 1], "root_interval": ["0", "0"],
                  "irreducibility_checked": True}
# A deliberately coarse isolating interval for sqrt2: every irrational sign
# decided by the library then has to refine it.
SQRT2_FIELD = {"minpoly": [-2, 0, 1], "root_interval": ["1", "2"],
               "irreducibility_checked": True}
SOLVER = {"tolerance": 1e-9, "max_iterations": 100, "line_search_shrink": 0.5,
          "precision_bits": 53}


def _scalar(value, degree):
    if degree == 1:
        return [str(Fraction(value))]
    a, b = value if isinstance(value, tuple) else (value, 0)
    return [str(Fraction(a)), str(Fraction(b))]


def _signed_permutation(rng: random.Random, n: int, axis: int):
    """Random signed permutation taking the last coordinate to ``axis``."""
    perm = list(range(n - 1))
    rng.shuffle(perm)
    perm.insert(axis, n - 1)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return perm, signs


def _apply(perm, signs, v):
    """Coordinate i of the image is signs[i] * v[perm[i]]."""
    out = []
    for i in range(len(v)):
        x = v[perm[i]]
        if signs[i] == 1:
            out.append(x)
        elif isinstance(x, tuple):
            out.append((-x[0], -x[1]))
        else:
            out.append(-x)
    return out


def _instance(normals, offsets, generators, degree, seed, variant):
    """Shuffle facets, apply a signed coordinate permutation, emit JSON."""
    rng = random.Random(seed)
    n = len(normals[0])
    i, count = variant
    perm, signs = _signed_permutation(rng, n, i * n // count)
    facets = list(zip(normals, offsets))
    rng.shuffle(facets)
    field = RATIONAL_FIELD if degree == 1 else SQRT2_FIELD
    return {
        "field": dict(field), "n": n,
        "normals": [[_scalar(x, degree) for x in _apply(perm, signs, v)]
                    for v, _ in facets],
        "offsets": [_scalar(lam, degree) for _, lam in facets],
        "quasilattice": [[_scalar(x, degree) for x in _apply(perm, signs, g)]
                         for g in generators],
        "solver": dict(SOLVER), "seed": seed}


def _unit(n, i, value=1):
    return [value if k == i else 0 for k in range(n)]


def cube(n: int, seed: int, variant=(0, 1)) -> dict:
    """Unit cube [0, 1]^n over Z^n (simple: no singular face)."""
    normals = [_unit(n, i) for i in range(n)] + [_unit(n, i, -1) for i in range(n)]
    return _instance(normals, [0] * n + [-1] * n,
                     [_unit(n, i) for i in range(n)], 1, seed, variant)


def _pyramid(base_normals, seed, variant) -> dict:
    """Pyramid with apex (0, .., 0, 1) over the base {<a, x> >= -1} in
    x_(k+1) = 0, over Z^(k+1): each base facet a gives the slanted facet
    <a, x> - x_(k+1) >= -1, and the base facet is x_(k+1) >= 0.  The apex
    lies on every slanted facet."""
    k = len(base_normals[0])
    normals = [list(a) + [-1] for a in base_normals] + [_unit(k + 1, k)]
    offsets = [-1] * len(base_normals) + [0]
    return _instance(normals, offsets, [_unit(k + 1, i) for i in range(k + 1)],
                     1, seed, variant)


def pyramid_cube(k: int, seed: int, variant=(0, 1)) -> dict:
    """Pyramid over the cube [-1, 1]^k: the apex is the one singular face."""
    base = [_unit(k, i, s) for i in range(k) for s in (-1, 1)]
    return _pyramid(base, seed, variant)


def pyramid_cross(k: int, seed: int, variant=(0, 1)) -> dict:
    """Pyramid over the k-dimensional cross-polytope.  For k = 3 the apex's
    link is the octahedron, whose vertices are singular again: link depth 2."""
    base = [list(s) for s in itertools.product((1, -1), repeat=k)]
    return _pyramid(base, seed, variant)


# Q(sqrt2) families.  Scaling a whole coordinate by sqrt2 is a linear image
# of a rational polytope: every slack stays rational and no sign is ever
# refined.  Both families therefore scale only one side of an axis, which
# puts sqrt2 into an affine invariant (a ratio of collinear segments).

R2 = (0, 1)


def _neg(x):
    return (-x[0], -x[1]) if isinstance(x, tuple) else -x


def pyramid_cube_sqrt2(k: int, seed: int, variant=(0, 1)) -> dict:
    """Pyramid over the box [-1, sqrt2]^k with apex (0, .., 0, 1).

    Facets -x_i + x_(k+1) <= 1 and x_i + sqrt2*x_(k+1) <= sqrt2 (so the
    apex stays on all 2k slanted facets) and the base x_(k+1) >= 0.  The
    quasilattice Z^(k+1) + sqrt2*e_(k+1)*Z has rank n + 1.
    """
    n = k + 1
    normals, offsets = [], []
    for i in range(k):
        v = _unit(n, i, 1)
        v[k] = -1
        normals.append(v)
        offsets.append(-1)
        v = _unit(n, i, -1)
        v[k] = _neg(R2)
        normals.append(v)
        offsets.append(_neg(R2))
    normals.append(_unit(n, k))
    offsets.append(0)
    gens = [_unit(n, i) for i in range(n)] + [_unit(n, k, R2)]
    return _instance(normals, offsets, gens, 2, seed, variant)


def cross_sqrt2(n: int, seed: int, variant=(0, 1)) -> dict:
    """Cross-polytope with vertex +e_n moved to (sqrt2/2)*e_n.

    Facets with s_n = +1 get last normal coordinate sqrt2 instead of 1.
    The quasilattice Z^n + sqrt2*e_n*Z has rank n + 1.
    """
    normals = []
    for s in itertools.product((1, -1), repeat=n):
        v = [-x for x in s[:-1]] + [_neg(R2) if s[-1] == 1 else 1]
        normals.append(v)
    gens = [_unit(n, i) for i in range(n)] + [_unit(n, n - 1, R2)]
    return _instance(normals, [-1] * len(normals), gens, 2, seed, variant)
