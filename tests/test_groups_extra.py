"""Chart groups over finer-than-standard lattices, plus covolume oracles."""

from fractions import Fraction

import pytest

from toricq import linalg
from toricq.groups import Quasilattice, chart_index_sets, gamma_check, gamma_group
from toricq.polytope import Polytope


def half_lattice_triangle(qq):
    """Standard triangle over Q = (1/2)Z^2."""
    half = Fraction(1, 2)
    q = Quasilattice(qq, [[half, 0], [0, half]])
    return Polytope(qq, [[1, 0], [0, 1], [-1, -1]], [0, 0, -1], q)


def mixed_denominator_square(qq):
    """The unit square over Q = Z x (1/3)Z."""
    q = Quasilattice(qq, [[1, 0], [0, Fraction(1, 3)]])
    return Polytope(qq, [[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, -1, -1], q)


def half_lattice_pyramid(qq):
    """A square pyramid with a singular apex over Q = (1/2)Z^3."""
    half = Fraction(1, 2)
    q = Quasilattice(qq, [[half, 0, 0], [0, half, 0], [0, 0, half]])
    return Polytope(qq, [[-1, 0, -1], [1, 0, -1], [0, -1, -1], [0, 1, -1],
                         [0, 0, 1]], [-1, -1, -1, -1, 0], q)


@pytest.fixture(scope="module")
def triangle_half_lattice(qq):
    return half_lattice_triangle(qq)


def test_half_lattice_orders(triangle_half_lattice):
    """order = |det X_I| / covol(Q): all three charts are unimodular, so
    each group is the quarter-translation group (Z/2)^2."""
    p = triangle_half_lattice
    for I in chart_index_sets(p):
        g = gamma_group(p, I)
        det = abs(linalg.det([p.normals[j - 1] for j in I], p.field).as_fraction())
        covol = Fraction(1, 4)
        assert g.finite
        assert g.order == det / covol == 4
        assert g.invariant_factors == [2, 2]


def test_half_lattice_generator_images(triangle_half_lattice):
    p = triangle_half_lattice
    g = gamma_group(p, (1, 2))
    # images are embedded d-vectors supported on the chart coordinates
    assert all(img[2].is_zero() for img in g.generator_images)
    images = {(img[0].as_fraction(), img[1].as_fraction())
              for img in g.generator_images}
    assert images == {(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))}


def test_mixed_denominator_lattice(qq):
    """Q = Z x (1/3)Z on the unit square: orders follow the covolume."""
    square = mixed_denominator_square(qq)
    for I in chart_index_sets(square):
        g = gamma_group(square, I)
        assert g.finite and g.order == 3
        assert g.invariant_factors == [3]


def test_gamma_check_quotient_on_half_lattice(qq):
    """A singular apex over a refined lattice: the chart quotient group
    divides the full chart group."""
    pyramid = half_lattice_pyramid(qq)
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    charts = [I for I in chart_index_sets(pyramid)
              if len(set(I) & set(apex.index_set)) == 3]
    assert charts
    for I in charts:
        gi = gamma_group(pyramid, I)
        gc = gamma_check(pyramid, I, apex)
        assert gi.finite and gc.finite
        assert gc.order == 1  # all chart coordinates lie in the face
        assert gi.order % gc.order == 0
        assert gi.order == 16  # |det| = 2 over covolume 1/8
