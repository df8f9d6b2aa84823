"""Unbalanced Tree Search (UTS) — the §X comparison workload.

A geometric UTS tree: each node's child count is drawn from a
binomial whose mean decays with depth, derived deterministically from a
SHA-256 hash of the node id (as in the real UTS benchmark, where the tree
shape comes from SHA-1 chains).  The tree is therefore identical no
matter which worker expands which node.

Every node expansion is an ``@AnyPlaceTask`` — UTS is the paper's example
of "problems where all tasks are locality-flexible" — and the work per
node is tiny, which is exactly why lifeline-based balancing beats plain
random stealing here, with DistWS in between (§X: DistWS ≈ +9% over
randomized stealing once lifelines are disabled, no overhead vs X10WS's
baseline when everything is flexible).

Validation: the number of nodes visited equals the sequential count of
the same tree.
"""

from __future__ import annotations

import hashlib
from math import comb
from typing import List, Optional

from repro.apgas.api import Apgas
from repro.apps.base import Application
from repro.errors import AppError


#: Per-(b0, decay, depth) binomial CDF partial sums.  The thresholds
#: depend only on the tree parameters and the depth — never on the node —
#: so each depth's CDF walk happens once per process instead of once per
#: node.  The cached values are the *same floats* the inline loop
#: produced (same accumulation order), so every ``u <= cdf`` comparison
#: — and therefore the tree shape — is bit-identical.
_CDF_CACHE: dict = {}


def _cdf_thresholds(b0: int, decay: float, depth: int) -> List[float]:
    key = (b0, decay, depth)
    thresholds = _CDF_CACHE.get(key)
    if thresholds is None:
        mean = b0 * (decay ** depth)
        n_trials = b0 * 2
        p = min(0.99, mean / n_trials)
        cdf = 0.0
        thresholds = []
        for k in range(n_trials + 1):
            cdf += comb(n_trials, k) * (p ** k) * ((1 - p) ** (n_trials - k))
            thresholds.append(cdf)
        _CDF_CACHE[key] = thresholds
    return thresholds


def _child_count(tree_seed: int, node_id: str, depth: int,
                 b0: int, decay: float, max_depth: int) -> int:
    """Deterministic child count from a hash of the node id."""
    if depth >= max_depth:
        return 0
    digest = hashlib.sha256(
        f"{tree_seed}/{node_id}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2 ** 64
    # Inverse-binomial-ish draw: thresholds of a binomial(b0*2, p),
    # walked deterministically (precomputed per depth).
    for k, cdf in enumerate(_cdf_thresholds(b0, decay, depth)):
        if u <= cdf:
            return k
    return b0 * 2


class UTSApp(Application):
    """Unbalanced tree search over a hash-derived geometric tree."""

    name = "uts"
    suite = "uts"

    #: Simulated cost per node expansion (SHA chain evaluation).
    CYCLES_PER_NODE = 40_000.0

    def __init__(self, b0: int = 4, decay: float = 0.88,
                 max_depth: int = 18, seed: int = 12345) -> None:
        super().__init__(seed)
        if b0 < 1 or not (0.0 < decay <= 1.0) or max_depth < 1:
            raise AppError("uts: invalid parameters")
        self.b0 = b0
        self.decay = decay
        self.max_depth = max_depth
        self.nodes_visited = 0
        self._ran_parallel = False

    def _children_of(self, node_id: str, depth: int) -> int:
        return _child_count(self.seed, node_id, depth, self.b0,
                            self.decay, self.max_depth)

    # -- oracle -------------------------------------------------------------
    def sequential(self) -> int:
        """Count the tree's nodes without the runtime."""
        count = 0
        stack: List[tuple[str, int]] = [("root", 0)]
        while stack:
            node_id, depth = stack.pop()
            count += 1
            for c in range(self._children_of(node_id, depth)):
                stack.append((f"{node_id}.{c}", depth + 1))
        return count

    # -- parallel program -----------------------------------------------------
    def build(self, apgas: Apgas) -> None:
        ap = apgas
        self.nodes_visited = 0
        self._ran_parallel = True

        def expand(node_id: str, depth: int):
            def body(ctx) -> None:
                self.nodes_visited += 1
                kids = self._children_of(node_id, depth)
                for c in range(kids):
                    ctx.spawn(expand(f"{node_id}.{c}", depth + 1),
                              work=self.CYCLES_PER_NODE,
                              flexible=True, closure_bytes=96,
                              label="uts-node")
            return body

        scope = ap.finish("uts")
        ap.async_at(0, expand("root", 0), work=self.CYCLES_PER_NODE,
                    flexible=True, closure_bytes=96, label="uts-node",
                    finish=scope)
        scope.close()

    # -- results -------------------------------------------------------------
    def result(self) -> int:
        if not self._ran_parallel:
            raise AppError("uts: run() has not been called")
        return self.nodes_visited

    def validate(self) -> None:
        got = self.result()
        want = self.sequential()
        self.check(got == want,
                   f"visited {got} nodes, sequential tree has {want}")
