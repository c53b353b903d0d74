from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from toricq import linalg
from toricq.errors import PreconditionError, ValidationError
from toricq.groups import (Quasilattice, chart_index_sets, gamma_check,
                           gamma_group, kernel_data, n_membership)


def test_rank_standard_lattice(qq):
    q = Quasilattice(qq, [[1, 0], [0, 1]])
    rank, basis = q.rank_certificate()
    assert rank == 2 and q.is_lattice
    assert len(basis) == 2


def test_rank_sqrt2(q_sqrt2):
    q = Quasilattice(q_sqrt2, [[q_sqrt2.one()], [q_sqrt2.generator()]])
    rank, _ = q.rank_certificate()
    assert rank == 2
    assert not q.is_lattice


def test_rank_halves(qq):
    q = Quasilattice(qq, [[1], [Fraction(1, 2)]])
    rank, basis = q.rank_certificate()
    assert rank == 1 and q.is_lattice
    # the basis certificate generates both generators
    assert basis[0][0].as_fraction() in (Fraction(1, 2), Fraction(-1, 2))


def test_membership(qq, q_sqrt2):
    q = Quasilattice(q_sqrt2, [[q_sqrt2.one()], [q_sqrt2.generator()]])
    assert q.contains([q_sqrt2.zero()])
    v = q_sqrt2.scalar([3, -2])  # 3 - 2 sqrt2
    assert q.contains([v])
    q2 = Quasilattice(q_sqrt2, [[q_sqrt2.from_rational(2)],
                                [q_sqrt2.generator() * 2]])
    assert not q2.contains([q_sqrt2.one()])


def test_non_spanning_rejected(qq):
    with pytest.raises(ValidationError):
        Quasilattice(qq, [[1, 0], [2, 0]])


def test_kernel_data_interval(interval):
    seq = kernel_data(interval)
    assert len(seq.kernel_basis) == 1
    v = seq.kernel_basis[0]
    ratio = v[1] / v[0]
    assert ratio.as_fraction() == 1  # kernel spanned by (1, 1)


def test_kernel_data_square(unit_square):
    seq = kernel_data(unit_square)
    assert len(seq.kernel_basis) == 2
    for v in seq.kernel_basis:
        assert all(s.is_zero() for s in seq.pi(v))
    # (1,0,1,0) and (0,1,0,1) span the kernel
    span = [[x.as_fraction() for x in v] for v in seq.kernel_basis]
    mat = sympy.Matrix(span)
    for target in ([1, 0, 1, 0], [0, 1, 0, 1]):
        sol = mat.T.solve_least_squares(sympy.Matrix(target))
        assert list(mat.T * sol) == target


def test_kernel_data_simplex_corank_one(triangle):
    seq = kernel_data(triangle)
    assert len(seq.kernel_basis) == 1


def test_chart_sets_simple(triangle):
    lat = triangle.face_lattice()
    charts = chart_index_sets(triangle, lat)
    assert charts == [(1, 2), (1, 3), (2, 3)]


def test_chart_sets_pyramid(pyramid):
    lat = pyramid.face_lattice()
    charts = chart_index_sets(pyramid, lat)
    apex_subsets = [c for c in charts if set(c) <= {1, 2, 3, 4}]
    # all four triples of slanted facets are independent: (1,2) opposite
    # pair is rank 2 only with another independent one; check via oracle
    for c in charts:
        rows = [pyramid.normals[j - 1] for j in c]
        assert linalg.rank(rows, 3) == 3
    # subsets of the apex active set of size 3 whose normals are independent
    from itertools import combinations
    oracle = [s for s in combinations((1, 2, 3, 4), 3)
              if linalg.rank([pyramid.normals[j - 1] for j in s], 3) == 3]
    assert apex_subsets == oracle and len(oracle) == 4


def test_gamma_trivial_on_unimodular(triangle):
    lat = triangle.face_lattice()
    for I in chart_index_sets(triangle, lat):
        g = gamma_group(triangle, I, lat)
        assert g.finite and g.order == 1 and g.invariant_factors == []
        assert g.generator_images == []


def test_gamma_weighted_triangle(weighted_triangle):
    lat = weighted_triangle.face_lattice()
    g = gamma_group(weighted_triangle, (1, 3), lat)
    assert g.finite and g.order == 2 and g.invariant_factors == [2]
    for I in ((1, 2), (2, 3)):
        assert gamma_group(weighted_triangle, I, lat).order == 1
    # Smith-normal-form oracle on the chart matrix
    mat = sympy.Matrix([[1, -1], [0, -2]])
    snf = smith_normal_form(mat)
    assert abs(snf[1, 1]) == 2


def test_gamma_orders_match_determinants(pyramid, cube, triangle, weighted_triangle):
    for p in (pyramid, cube, triangle, weighted_triangle):
        lat = p.face_lattice()
        for I in chart_index_sets(p, lat):
            g = gamma_group(p, I, lat)
            d = linalg.det([p.normals[j - 1] for j in I], p.field)
            assert g.finite
            assert g.order == abs(d.as_fraction())


def test_gamma_infinite_nonrational(interval_sqrt2):
    lat = interval_sqrt2.face_lattice()
    g = gamma_group(interval_sqrt2, (1,), lat)
    assert not g.finite and g.order is None
    assert g.order_text == "infinite"
    # the image of the sqrt2 generator survives mod Z
    assert any(not s.is_zero() for img in g.generator_images for s in img)


def test_gamma_precondition(triangle):
    lat = triangle.face_lattice()
    with pytest.raises(PreconditionError):
        gamma_group(triangle, (1,), lat)
    with pytest.raises(PreconditionError):
        gamma_group(triangle, (1, 2, 3), lat)


def test_gamma_check_vertex_trivial(weighted_triangle):
    lat = weighted_triangle.face_lattice()
    vertex = lat.face_of_active_set((1, 3))
    g = gamma_check(weighted_triangle, (1, 3), vertex, lat)
    assert g.finite and g.order == 1
    assert g.coords == ()


def test_gamma_check_divides_gamma(pyramid):
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    for I in chart_index_sets(pyramid, lat):
        if len(set(I) & set(apex.index_set)) != pyramid.n - apex.dim:
            continue
        gi = gamma_group(pyramid, I, lat)
        gc = gamma_check(pyramid, I, apex, lat)
        assert gc.finite and gi.finite
        assert gi.order % gc.order == 0


def test_gamma_check_infinite_nonrational(pyramid_sqrt2):
    lat = pyramid_sqrt2.face_lattice()
    # an edge of the nonrational pyramid whose transverse data is irrational
    found_infinite = False
    for f in lat.faces:
        if f.dim != 1:
            continue
        for I in chart_index_sets(pyramid_sqrt2, lat):
            if len(set(I) & set(f.index_set)) == pyramid_sqrt2.n - f.dim:
                g = gamma_check(pyramid_sqrt2, I, f, lat)
                if not g.finite:
                    found_infinite = True
    assert found_infinite


def test_gamma_check_cardinality_precondition(pyramid):
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    base = lat.face_of_active_set((5,))
    with pytest.raises(PreconditionError):
        gamma_check(pyramid, (1, 2, 5), apex, lat)  # overlap 2 != 3
    assert base is not None


def test_n_membership_interval(interval):
    seq = kernel_data(interval)
    q = interval.quasilattice
    f = interval.field
    assert n_membership(seq, q, [f.from_rational(1), f.from_rational(2)])
    assert n_membership(seq, q, [f.from_rational(Fraction(1, 2)),
                                 f.from_rational(Fraction(1, 2))])
    assert not n_membership(seq, q, [f.from_rational(Fraction(1, 2)), f.zero()])
