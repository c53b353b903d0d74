from fractions import Fraction

import pytest

from toricq.field import NumberField
from toricq.groups import Quasilattice
from toricq.polytope import Polytope


@pytest.fixture(scope="session")
def qq():
    return NumberField.rationals()


@pytest.fixture(scope="session")
def q_sqrt2():
    return NumberField([-2, 0, 1], (Fraction(141, 100), Fraction(142, 100)))


def _std_lattice(field, n):
    gens = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    return Quasilattice(field, gens)


@pytest.fixture(scope="session")
def interval(qq):
    """[0, 1] with normals (1), (-1) and Q = Z."""
    return Polytope(qq, [[1], [-1]], [0, -1], _std_lattice(qq, 1))


@pytest.fixture(scope="session")
def interval_sqrt2(q_sqrt2):
    """[0, 1] over Q(sqrt2) with Q = Z + sqrt2 Z."""
    q = Quasilattice(q_sqrt2, [[q_sqrt2.one()], [q_sqrt2.generator()]])
    return Polytope(q_sqrt2, [[1], [-1]], [0, -1], q)


@pytest.fixture(scope="session")
def unit_square(qq):
    return Polytope(qq, [[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, -1, -1],
                    _std_lattice(qq, 2))


@pytest.fixture(scope="session")
def triangle(qq):
    """Standard triangle (projective plane data)."""
    return Polytope(qq, [[1, 0], [0, 1], [-1, -1]], [0, 0, -1],
                    _std_lattice(qq, 2))


@pytest.fixture(scope="session")
def weighted_triangle(qq):
    """Triangle with normals (1,0), (0,1), (-1,-2): one chart group Z/2."""
    return Polytope(qq, [[1, 0], [0, 1], [-1, -2]], [0, 0, -2],
                    _std_lattice(qq, 2))


PYRAMID_NORMALS = [[-1, 0, -1], [1, 0, -1], [0, -1, -1], [0, 1, -1], [0, 0, 1]]
PYRAMID_OFFSETS = [-1, -1, -1, -1, 0]


@pytest.fixture(scope="session")
def pyramid(qq):
    """Square pyramid conv{(+-1,+-1,0),(0,0,1)}: slanted facets 1-4, base 5.

    The apex sits on all four slanted facets, so it is the one singular
    face.
    """
    return Polytope(qq, PYRAMID_NORMALS, PYRAMID_OFFSETS, _std_lattice(qq, 3))


@pytest.fixture(scope="session")
def pyramid4(qq):
    """Pyramid over the square pyramid: depth-2 recursion in dimension 4."""
    normals = [[-1, 0, -1, -1], [1, 0, -1, -1], [0, -1, -1, -1], [0, 1, -1, -1],
               [0, 0, 1, 0], [0, 0, 0, 1]]
    offsets = [-1, -1, -1, -1, 0, 0]
    return Polytope(qq, normals, offsets, _std_lattice(qq, 4))


@pytest.fixture(scope="session")
def octahedron(qq):
    normals = [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    return Polytope(qq, normals, [-1] * 8, _std_lattice(qq, 3))


@pytest.fixture(scope="session")
def cube(qq):
    return Polytope(qq, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                         [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                    [0, 0, 0, -1, -1, -1], _std_lattice(qq, 3))


@pytest.fixture(scope="session")
def pyramid_sqrt2(q_sqrt2):
    """Nonrational pyramid: fourth slant normal (0,1,-sqrt2), apex singular."""
    t = q_sqrt2.generator()
    normals = [[-1, 0, -1], [1, 0, -1], [0, -1, -1],
               [q_sqrt2.zero(), q_sqrt2.one(), -t], [0, 0, 1]]
    offsets = [q_sqrt2.from_rational(-1), q_sqrt2.from_rational(-1),
               q_sqrt2.from_rational(-1), -t, q_sqrt2.zero()]
    q = Quasilattice(q_sqrt2, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                               [q_sqrt2.zero(), q_sqrt2.zero(), t]])
    return Polytope(q_sqrt2, normals, offsets, q)
