"""Barnes-Hut quadtree over 2-D bodies.

A plain, well-tested quadtree: leaves hold up to ``leaf_capacity`` bodies;
internal nodes carry mass and centre-of-mass aggregates.  The
:func:`force_on` traversal applies the standard θ (opening-angle)
criterion and also returns the number of interactions it evaluated, which
the n-body application uses both as the simulated-work measure and as the
irregularity signal (dense regions ⇒ deeper traversals ⇒ costlier tasks).

:func:`force_on` is the n-body app's hot loop, so it runs on plain Python
floats: per-body coordinates and masses are read from lists, and
``math.sqrt`` replaces ``np.sqrt`` on ``np.float64`` scalars.  The stack
order, the node visit order and the order and association of every
``+``, ``*``, ``/`` and ``sqrt`` are those of the numpy-scalar loop it
replaced, and IEEE arithmetic on C doubles rounds the same either way,
so every force and interaction count is bit-identical to it.
``tests/apps/reference_app_kernels.py`` keeps that loop as the oracle.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import AppError

#: Gravitational softening to avoid singularities.
SOFTENING2 = 1e-4


class QuadNode:
    """One node of the quadtree."""

    __slots__ = ("cx", "cy", "half", "mass", "com_x", "com_y",
                 "children", "bodies")

    def __init__(self, cx: float, cy: float, half: float) -> None:
        self.cx = cx
        self.cy = cy
        self.half = half
        self.mass = 0.0
        self.com_x = 0.0
        self.com_y = 0.0
        self.children: Optional[List[Optional["QuadNode"]]] = None
        self.bodies: List[int] = []

    @property
    def is_leaf(self) -> bool:
        """Whether this node still stores bodies directly."""
        return self.children is None

    def quadrant_of(self, x: float, y: float) -> int:
        """Quadrant index (0..3) of a position inside this node."""
        return (1 if x >= self.cx else 0) + (2 if y >= self.cy else 0)

    def child_center(self, q: int) -> Tuple[float, float]:
        """Centre coordinates of child quadrant ``q``."""
        h = self.half / 2
        dx = h if q & 1 else -h
        dy = h if q & 2 else -h
        return (self.cx + dx, self.cy + dy)


class QuadTree:
    """Barnes-Hut quadtree with mass aggregates.

    The tree is a snapshot of the bodies at construction: it copies
    ``positions`` and ``masses``, and both the aggregates and
    :meth:`force_on` read only that copy.  A caller may therefore
    update its own arrays in place (as n-body's integration step does)
    without changing what an existing tree answers.
    """

    def __init__(self, positions: np.ndarray, masses: np.ndarray,
                 leaf_capacity: int = 8, max_depth: int = 48) -> None:
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise AppError("QuadTree expects (n, 2) positions")
        if len(positions) != len(masses):
            raise AppError("positions and masses must align")
        if len(positions) == 0:
            raise AppError("QuadTree needs at least one body")
        self.positions = positions.copy()
        self.masses = masses.copy()
        self._xs: List[float] = self.positions[:, 0].tolist()
        self._ys: List[float] = self.positions[:, 1].tolist()
        self._ms: List[float] = self.masses.tolist()
        self.leaf_capacity = leaf_capacity
        self.max_depth = max_depth
        lo = positions.min(axis=0)
        hi = positions.max(axis=0)
        center = (lo + hi) / 2
        half = float(max(hi[0] - lo[0], hi[1] - lo[1]) / 2) * 1.001 + 1e-9
        self.root = QuadNode(float(center[0]), float(center[1]), half)
        self.n_nodes = 1
        for i in range(len(positions)):
            self._insert(self.root, i, 0)
        self._aggregate(self.root)

    # -- construction ------------------------------------------------------
    def _insert(self, node: QuadNode, i: int, depth: int) -> None:
        if node.is_leaf:
            node.bodies.append(i)
            if (len(node.bodies) > self.leaf_capacity
                    and depth < self.max_depth):
                self._split(node, depth)
            return
        q = node.quadrant_of(*self.positions[i])
        child = node.children[q]
        if child is None:
            cx, cy = node.child_center(q)
            child = QuadNode(cx, cy, node.half / 2)
            node.children[q] = child
            self.n_nodes += 1
        self._insert(child, i, depth + 1)

    def _split(self, node: QuadNode, depth: int) -> None:
        bodies, node.bodies = node.bodies, []
        node.children = [None, None, None, None]
        for i in bodies:
            self._insert(node, i, depth)

    def _aggregate(self, node: QuadNode) -> None:
        if node.is_leaf:
            ms = self.masses[node.bodies]
            node.mass = float(ms.sum())
            if node.mass > 0:
                ps = self.positions[node.bodies]
                node.com_x = float((ps[:, 0] * ms).sum() / node.mass)
                node.com_y = float((ps[:, 1] * ms).sum() / node.mass)
            return
        mass = 0.0
        mx = my = 0.0
        for child in node.children:
            if child is None:
                continue
            self._aggregate(child)
            mass += child.mass
            mx += child.com_x * child.mass
            my += child.com_y * child.mass
        node.mass = mass
        if mass > 0:
            node.com_x = mx / mass
            node.com_y = my / mass

    # -- queries ------------------------------------------------------------
    def force_on(self, i: int, theta: float = 0.5) -> Tuple[float, float, int]:
        """Force on body ``i`` and the number of interactions evaluated."""
        xs, ys, ms = self._xs, self._ys, self._ms
        sqrt = math.sqrt
        px = xs[i]
        py = ys[i]
        fx = fy = 0.0
        interactions = 0
        open2 = theta * theta
        stack = [self.root]
        pop = stack.pop
        push = stack.append
        while stack:
            node = pop()
            if node.mass <= 0.0:
                continue
            dx = node.com_x - px
            dy = node.com_y - py
            dist2 = dx * dx + dy * dy + SOFTENING2
            children = node.children
            if children is None:
                for j in node.bodies:
                    if j == i:
                        continue
                    bx = xs[j] - px
                    by = ys[j] - py
                    d2 = bx * bx + by * by + SOFTENING2
                    inv = ms[j] / (d2 * sqrt(d2))
                    fx += bx * inv
                    fy += by * inv
                    interactions += 1
                continue
            if (2 * node.half) ** 2 < open2 * dist2:
                inv = node.mass / (dist2 * sqrt(dist2))
                fx += dx * inv
                fy += dy * inv
                interactions += 1
            else:
                for child in children:
                    if child is not None:
                        push(child)
        return fx, fy, interactions


def direct_forces(positions: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """O(n^2) reference forces (vectorised)."""
    delta = positions[None, :, :] - positions[:, None, :]
    d2 = (delta ** 2).sum(axis=2) + SOFTENING2
    np.fill_diagonal(d2, np.inf)
    inv = masses[None, :] / (d2 * np.sqrt(d2))
    return (delta * inv[:, :, None]).sum(axis=1)
