"""Output checks for the benchmark's operations.

Lattice reports are checked against closed forms (f-vectors and the
Euler-Poincare relation) and against values recorded per family: singular
face count, depth, chart count and the multiset of finite chart-group
orders.  None of them depends on the facet shuffle or the signed coordinate
permutation that make a seeded variant, so one table serves every seed.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb


def cube_fvector(k: int) -> list[int]:
    """Faces of the k-cube by dimension 0..k (the cube itself last)."""
    return [comb(k, j) * 2 ** (k - j) for j in range(k + 1)]


def cross_fvector(n: int) -> list[int]:
    """Faces of the n-dimensional cross-polytope by dimension 0..n."""
    return [2 ** (j + 1) * comb(n, j + 1) for j in range(n)] + [1]


def pyramid_fvector(base: list[int]) -> list[int]:
    """Faces of a pyramid by dimension, from those of its base."""
    shifted = [1] + base          # the apex, then cones over base faces
    return [a + b for a, b in zip(base + [0], shifted)]


def _family(fvector, singular, depth, charts, orders):
    return {"fvector": fvector, "singular": singular, "depth": depth,
            "charts": charts, "orders": orders}


# Finite chart-group orders as {order: number of charts}; the Q(sqrt2)
# families have rank n+1 quasilattices, so none of their groups is finite.
FAMILIES = {
    "cube_5": _family(cube_fvector(5), 0, 0, 32, {1: 32}),
    # apex, the 6 base vertices and the 6 apex edges lie on too many facets
    "pyr-cross_3": _family(pyramid_fvector(cross_fvector(3)), 13, 2, 82,
                           {4: 24, 8: 56, 16: 2}),
    "pyr-cube_4": _family(pyramid_fvector(cube_fvector(4)), 1, 1, 48,
                          {1: 16, 2: 32}),
    "pyr-cube_4-sqrt2": _family(pyramid_fvector(cube_fvector(4)), 1, 1, 48, {}),
    "cross_3-sqrt2": _family(cross_fvector(3), 6, 1, 24, {}),
    # the shipped instances/, under their file names
    "interval": _family([2, 1], 0, 0, 2, {1: 2}),
    "interval_sqrt2": _family([2, 1], 0, 0, 2, {}),
    "octahedron": _family(cross_fvector(3), 6, 1, 24, {4: 24}),
    "pyramid4": _family([6, 13, 13, 6, 1], 3, 2, 12, {1: 4, 2: 8}),
    "pyramid_sqrt2": _family(pyramid_fvector([4, 4, 1]), 1, 1, 8, {}),
    "square_pyramid": _family(pyramid_fvector([4, 4, 1]), 1, 1, 8, {1: 4, 2: 4}),
    "weighted_triangle": _family([3, 3, 1], 0, 0, 3, {1: 2, 2: 1}),
}


def _euler_ok(fvector: list[int]) -> bool:
    """Euler-Poincare: the alternating sum over proper faces is 1-(-1)^n."""
    n = len(fvector) - 1
    return sum((-1) ** j * f for j, f in enumerate(fvector[:-1])) == 1 - (-1) ** n


def _fvector_of(dims) -> list[int]:
    counts = Counter(dims)
    return [counts.get(j, 0) for j in range(max(counts) + 1)]


def check_lattice_report(command: str, family: str, text: str) -> str | None:
    """None when the report of ``command`` matches ``family``, else why not."""
    want = FAMILIES[family]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if "error" in report:
        return f"command failed: {report['error']}"
    if command == "analyze":
        table = report["gamma_table"]
        orders = Counter(g["order"] for g in table if g["finite"])
        got = {"faces": report["face_count"],
               "vertices": report["vertex_count"],
               "singular": report["singular_faces"], "depth": report["depth"],
               "charts": report["chart_count"], "orders": dict(orders)}
        expect = {"faces": sum(want["fvector"]), "vertices": want["fvector"][0],
                  "singular": want["singular"], "depth": want["depth"],
                  "charts": want["charts"], "orders": want["orders"]}
    elif command == "faces":
        faces = report["faces"].values()
        fvector = _fvector_of(f["dim"] for f in faces)
        if not _euler_ok(fvector):
            return f"f-vector {fvector} breaks Euler-Poincare"
        got = {"fvector": fvector,
               "singular": sum(1 for f in faces if not f["regular"]),
               "depth": report["polytope_depth"]}
        expect = {k: want[k] for k in got}
    else:
        got = {"singular": len(report["strata"]),
               "depth": report["polytope_depth"],
               "charts": report["maximal_piece"]["chart_count"],
               "link_depth": _link_depth(report)}
        expect = {"singular": want["singular"], "depth": want["depth"],
                  "charts": want["charts"], "link_depth": want["depth"]}
    if got != expect:
        return f"{command} {family}: got {got}, expected {expect}"
    return None


def _link_depth(report: dict) -> int:
    """Levels of the link recursion that carry at least one stratum."""
    if not report["strata"]:
        return 0
    return 1 + max(_link_depth(s["link"]["report"]) for s in report["strata"])
