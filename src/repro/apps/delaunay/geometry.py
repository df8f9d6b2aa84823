"""Planar geometry predicates for Delaunay triangulation.

Float-based predicates with a relative epsilon guard — adequate for the
random (general-position) point sets the applications generate.  All
triangles are kept counter-clockwise so the in-circle test's sign is
meaningful.
"""

from __future__ import annotations

import math
from typing import Tuple

Point = Tuple[float, float]


def orient2d(a: Point, b: Point, c: Point) -> float:
    """Twice the signed area of triangle abc (>0 iff CCW)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def is_ccw(a: Point, b: Point, c: Point) -> bool:
    """Whether abc is counter-clockwise."""
    return orient2d(a, b, c) > 0.0


def in_circle(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether ``d`` lies strictly inside the circumcircle of CCW abc."""
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    det = (adx * (bdy * cd2 - cdy * bd2)
           - ady * (bdx * cd2 - cdx * bd2)
           + ad2 * (bdx * cdy - cdx * bdy))
    return det > 1e-12


def circumcenter(a: Point, b: Point, c: Point) -> Point:
    """Circumcentre of triangle abc."""
    d = 2.0 * orient2d(a, b, c)
    if d == 0.0:
        raise ZeroDivisionError("degenerate triangle")
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    return (ux, uy)


def triangle_angles(a: Point, b: Point, c: Point) -> Tuple[float, float, float]:
    """Interior angles (degrees) at vertices a, b, c."""
    def side(p: Point, q: Point) -> float:
        return math.hypot(p[0] - q[0], p[1] - q[1])

    la = side(b, c)
    lb = side(a, c)
    lc = side(a, b)

    def angle(opposite: float, s1: float, s2: float) -> float:
        cosv = (s1 * s1 + s2 * s2 - opposite * opposite) / (2 * s1 * s2)
        return math.degrees(math.acos(max(-1.0, min(1.0, cosv))))

    return (angle(la, lb, lc), angle(lb, la, lc), angle(lc, la, lb))


def min_angle(a: Point, b: Point, c: Point) -> float:
    """Smallest interior angle (degrees)."""
    return min(triangle_angles(a, b, c))


def point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """Whether ``p`` lies inside or on CCW triangle abc."""
    eps = -1e-12
    return (orient2d(a, b, p) >= eps and orient2d(b, c, p) >= eps
            and orient2d(c, a, p) >= eps)

