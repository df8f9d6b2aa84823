"""The five small applications of the §VIII.2 granularity study.

"A separate experimental study used smaller applications, namely: merge
sort, skyline matrix multiplication, Monte-Carlo estimation of π, matrix
chain multiplication, and random access with task granularities of
0.12 ms, 0.93 ms, 0.005 ms, 0.09 ms and 0.006 ms, respectively."

Each app generates a burst of fine-grained, locality-flexible tasks
spread evenly across the places (these kernels are regular — there is no
inter-node imbalance for distributed stealing to repair), with real
(small) computations and per-task granularities matching the paper's
list.  The study's claim — "The DistWS algorithm performed worse on
these smaller applications" — reproduces directly: with nothing to
balance, DistWS's status checks, shared-deque traffic, and opportunistic
steals of sub-steal-cost tasks are pure overhead.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.apgas.api import Apgas
from repro.apps.base import Application
from repro.errors import AppError
from repro.runtime.task import FLEXIBLE

#: ms -> cycles at the default 2 GHz model.
_MS = 2_000_000.0


class _MicroApp(Application):
    """Shared machinery: a flat burst of small flexible tasks at place 0."""

    suite = "micro"
    #: Paper-reported task granularity in ms (per subclass).
    granularity_ms: float = 0.1
    #: Number of tasks to spawn.
    n_tasks: int = 600

    def __init__(self, n_tasks: Optional[int] = None,
                 seed: int = 12345) -> None:
        super().__init__(seed)
        if n_tasks is not None:
            if n_tasks < 1:
                raise AppError(f"{self.name}: n_tasks must be >= 1")
            self.n_tasks = n_tasks
        self._outputs: dict = {}

    # subclasses implement _task(i) -> value  and  _expected(i) -> value
    def _task_value(self, i: int):
        raise NotImplementedError

    def build(self, apgas: Apgas) -> None:
        ap = apgas
        P = ap.n_places
        work = self.granularity_ms * _MS
        scope = ap.finish(self.name)

        def leaf(i: int):
            def body(ctx) -> None:
                self._outputs[i] = self._task_value(i)
            return body

        def driver(p: int):
            def body(ctx) -> None:
                for i in range(self.n_tasks):
                    if i % P == p:
                        ctx.spawn(leaf(i), place=p, work=work,
                                  locality=FLEXIBLE, closure_bytes=256,
                                  label=f"{self.name}-task")
            return body

        per_place = -(-self.n_tasks // P)
        for p in range(P):
            if any(i % P == p for i in range(self.n_tasks)):
                ap.async_at(p, driver(p), work=2_000.0 * per_place,
                            label=f"{self.name}-driver", finish=scope)
        scope.close()

    def result(self) -> dict:
        if len(self._outputs) != self.n_tasks:
            raise AppError(f"{self.name}: run() has not been called")
        return self._outputs

    def sequential(self) -> dict:
        return {i: self._task_value(i) for i in range(self.n_tasks)}

    def validate(self) -> None:
        got = self.result()
        want = self.sequential()
        for i in range(self.n_tasks):
            ok = np.allclose(got[i], want[i]) if isinstance(
                got[i], np.ndarray) else got[i] == want[i]
            self.check(bool(ok), f"task {i} output mismatch")


class MergeSortMicro(_MicroApp):
    """Merge sort in 0.12 ms tasks: each task sorts one small run."""

    name = "mergesort"
    granularity_ms = 0.12

    def _task_value(self, i: int):
        rng = np.random.default_rng(self.seed + i)
        return np.sort(rng.integers(0, 10_000, size=256))


class SkylineMatMulMicro(_MicroApp):
    """Skyline (banded) matrix multiplication, 0.93 ms tasks."""

    name = "skyline"
    granularity_ms = 0.93

    def _task_value(self, i: int):
        rng = np.random.default_rng(self.seed + i)
        a = np.tril(rng.normal(size=(24, 24)))
        b = np.tril(rng.normal(size=(24, 24)))
        return a @ b


class MonteCarloPiMicro(_MicroApp):
    """Monte-Carlo estimation of π, 0.005 ms tasks."""

    name = "mcpi"
    granularity_ms = 0.005
    n_tasks = 2_000

    def _task_value(self, i: int):
        rng = np.random.default_rng(self.seed + i)
        xy = rng.uniform(size=(64, 2))
        return int(((xy ** 2).sum(axis=1) <= 1.0).sum())


class MatrixChainMicro(_MicroApp):
    """Matrix chain multiplication (DP table blocks), 0.09 ms tasks."""

    name = "matchain"
    granularity_ms = 0.09

    def _task_value(self, i: int):
        rng = np.random.default_rng(self.seed + i)
        dims = rng.integers(4, 40, size=8)
        n = len(dims) - 1
        dp = np.zeros((n, n))
        for length in range(2, n + 1):
            for a in range(n - length + 1):
                b = a + length - 1
                dp[a, b] = min(
                    dp[a, k] + dp[k + 1, b]
                    + dims[a] * dims[k + 1] * dims[b + 1]
                    for k in range(a, b))
        return dp[0, n - 1]


class RandomAccessMicro(_MicroApp):
    """GUPS-style random table updates, 0.006 ms tasks."""

    name = "randomaccess"
    granularity_ms = 0.006
    n_tasks = 2_000

    def _task_value(self, i: int):
        rng = np.random.default_rng(self.seed + i)
        table = np.zeros(128, dtype=np.int64)
        idx = rng.integers(0, 128, size=64)
        np.add.at(table, idx, 1)
        return int((table * np.arange(128)).sum())


#: The five §VIII.2 study applications, in the paper's order.
MICRO_APPS = [MergeSortMicro, SkylineMatMulMicro, MonteCarloPiMicro,
              MatrixChainMicro, RandomAccessMicro]
