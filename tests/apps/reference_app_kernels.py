"""Reference app kernels: the Barnes-Hut traversal and the agglomerative
merge loop as they were before their fast rewrites, kept for tests.

The library never imports this module.  It is the oracle that pins
:meth:`repro.apps.bh_tree.QuadTree.force_on` and
:func:`repro.apps.agglomerative.agglomerate` bit for bit: an app's own
``validate()`` cannot catch a drift in these kernels, because its
``sequential()`` oracle calls the same kernel as the parallel program.

- :func:`force_on` is the numpy-scalar traversal (``np.sqrt`` on
  ``np.float64``, the ``is_leaf`` property, ``tree.positions`` and
  ``tree.masses`` indexed per interaction).  It is the old method body
  with ``self`` renamed ``tree``.
- :func:`agglomerate` rebuilds the full n×n distance matrix on every
  merge.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.apps.bh_tree import SOFTENING2


def force_on(tree, i: int, theta: float = 0.5) -> Tuple[float, float, int]:
    """Force on body ``i`` and the number of interactions evaluated."""
    px, py = tree.positions[i]
    fx = fy = 0.0
    interactions = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.mass <= 0.0:
            continue
        dx = node.com_x - px
        dy = node.com_y - py
        dist2 = dx * dx + dy * dy + SOFTENING2
        if node.is_leaf:
            for j in node.bodies:
                if j == i:
                    continue
                bx = tree.positions[j, 0] - px
                by = tree.positions[j, 1] - py
                d2 = bx * bx + by * by + SOFTENING2
                inv = tree.masses[j] / (d2 * np.sqrt(d2))
                fx += bx * inv
                fy += by * inv
                interactions += 1
            continue
        if (2 * node.half) ** 2 < theta * theta * dist2:
            inv = node.mass / (dist2 * np.sqrt(dist2))
            fx += dx * inv
            fy += dy * inv
            interactions += 1
        else:
            for child in node.children:
                if child is not None:
                    stack.append(child)
    return fx, fy, interactions


def agglomerate(centroids: np.ndarray, weights: np.ndarray,
                until: int) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Merge nearest pairs (centroid linkage) until ``until`` clusters.

    Deterministic: ties break on the lexicographically smallest index
    pair.  Returns (centroids, weights, merge_distances).
    """
    cents = [c.astype(float).copy() for c in centroids]
    ws = [float(w) for w in weights]
    merges: List[float] = []
    while len(cents) > until:
        arr = np.array(cents)
        d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        flat = int(np.argmin(d2))
        i, j = divmod(flat, len(cents))
        if i > j:
            i, j = j, i
        merges.append(float(np.sqrt(d2[i, j])))
        wi, wj = ws[i], ws[j]
        merged = (cents[i] * wi + cents[j] * wj) / (wi + wj)
        cents[i] = merged
        ws[i] = wi + wj
        del cents[j]
        del ws[j]
    return np.array(cents), np.array(ws), merges
