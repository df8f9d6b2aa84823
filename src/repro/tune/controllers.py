"""Online feedback controllers for distributed work-stealing knobs.

The offline half of ``repro.tune`` finds good *static* knob values; the
controllers here adjust knobs *during* a run from the same signals the
``repro.obs`` metrics derive — distributed steal success/latency and
failed-probe streaks.  They plug into any distributed scheduler via the
``controller=`` kwarg (see :class:`repro.sched.base.Scheduler`); with
``controller=None`` (the default) no hook fires and runs are
byte-identical to a build without this module.

Two control laws are provided:

- :class:`AIMDChunkController` — additive-increase /
  multiplicative-decrease on ``remote_chunk_size``.  Each successful
  remote steal reports its request→arrival latency; when the latency
  *per stolen task* exceeds the amortisation target (by default the cost
  model's fixed per-steal overhead: closure creation + one network round
  trip + victim service), the fixed costs dominate and the chunk grows
  additively.  When the EWMA steal-success rate drops below a floor —
  thieves mostly probing empty victims — the chunk shrinks
  multiplicatively so scarce work is not concentrated on one thief.
  Under a latency-spike :class:`~repro.faults.plan.FaultPlan` the
  per-task latency rises and the controller settles on a larger chunk
  than in a fault-free run (asserted in ``tests/tune``).

- :class:`IdleThresholdController` — per-place control of how many
  failed steal rounds mark a place idle.  A streak of failed probes well
  past the current threshold halves it (give up faster, park workers,
  advertise inactivity on the status board); a successful steal restores
  it additively toward the static default.

Both reuse :class:`repro.obs.metrics.Histogram` for their latency /
streak distributions and emit ``knob_update`` events on the obs bus (a
no-op when no bus is attached), so Chrome traces show every adjustment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.metrics import Histogram
from repro.sched.base import REMOTE_CHUNK_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import SimRuntime
    from repro.runtime.worker import Worker
    from repro.sched.base import Scheduler
    from repro.sched.knobs import Knob

#: Pseudo place id for cluster-wide (non-per-place) knob updates.
GLOBAL_PLACE = -1


class Controller:
    """Base class: scheduler-invoked hooks, all optional.

    Hooks are called synchronously from the scheduler's steal path, so
    implementations must stay allocation-light and deterministic (no
    wall-clock, no unseeded randomness).
    """

    @staticmethod
    def check_host(scheduler: str, knobs: Tuple["Knob", ...]) -> None:
        """ConfigError when a policy with ``knobs`` cannot host this
        controller: ``repro run`` asks before a run, :meth:`bind` at one."""

    def bind(self, runtime: "SimRuntime", scheduler: "Scheduler") -> None:
        self.check_host(scheduler.name, scheduler.knobs)
        self.rt = runtime
        self.sched = scheduler

    def on_steal_result(self, worker: "Worker", hit: bool,
                        latency_cycles: float, tasks: int) -> None:
        """One distributed steal attempt resolved (hit or miss)."""

    def on_failed_round(self, worker: "Worker") -> None:
        """A worker finished a full steal round without finding work."""

    def snapshot(self) -> Dict[str, object]:
        """Deterministic JSON-safe view of the controller's state."""
        return {}

    def _emit_knob(self, name: str, place: int, value: float) -> None:
        obs = self.rt.obs
        if obs is not None and not obs.tally("knob_update", self.rt.env.now):
            obs.emit_at(self.rt.env.now, "knob_update", {
                "name": name, "place": place, "value": float(value)})


class AIMDChunkController(Controller):
    """AIMD control of ``remote_chunk_size`` from steal feedback."""

    def __init__(self, min_chunk: int = 1, max_chunk: int = 8,
                 increase: int = 1, decrease: float = 0.5,
                 target_latency_per_task: Optional[float] = None,
                 success_floor: float = 0.25, ewma_alpha: float = 0.125,
                 settle_every: int = 4) -> None:
        if not 1 <= min_chunk <= max_chunk:
            raise ConfigError(
                f"need 1 <= min_chunk <= max_chunk, got "
                f"{min_chunk}..{max_chunk}")
        if not 0.0 < decrease < 1.0:
            raise ConfigError(f"decrease must be in (0, 1), got {decrease}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if settle_every < 1:
            raise ConfigError(
                f"settle_every must be >= 1, got {settle_every}")
        self.min_chunk = min_chunk
        self.max_chunk = max_chunk
        self.increase = increase
        self.decrease = decrease
        self.target_latency_per_task = target_latency_per_task
        self.success_floor = success_floor
        self.ewma_alpha = ewma_alpha
        self.settle_every = settle_every
        self.chunk = 0  # set at bind from the scheduler's static value
        self.success_rate = 1.0
        self.latency_per_task = Histogram()
        self.adjustments: List[float] = []
        self._results = 0

    @staticmethod
    def check_host(scheduler: str, knobs: Tuple["Knob", ...]) -> None:
        if REMOTE_CHUNK_SIZE not in knobs:
            raise ConfigError(
                f"controller 'aimd-chunk' adjusts remote_chunk_size, which "
                f"scheduler {scheduler!r} fixes (not one of its knobs)")

    def bind(self, runtime: "SimRuntime", scheduler: "Scheduler") -> None:
        super().bind(runtime, scheduler)
        self.chunk = int(scheduler.remote_chunk_size)
        if self.target_latency_per_task is None:
            c = runtime.costs
            # Fixed overhead a steal pays regardless of chunk size: the
            # thief's closure + request/reply latency + victim service.
            self.target_latency_per_task = (
                c.closure_create + 2.0 * c.net_latency
                + c.remote_steal_service)

    def on_steal_result(self, worker: "Worker", hit: bool,
                        latency_cycles: float, tasks: int) -> None:
        a = self.ewma_alpha
        self.success_rate += a * ((1.0 if hit else 0.0) - self.success_rate)
        if hit and tasks > 0:
            self.latency_per_task.record(latency_cycles / tasks)
        self._results += 1
        if self._results % self.settle_every:
            return
        old = self.chunk
        if (hit and tasks > 0
                and latency_cycles / tasks > self.target_latency_per_task):
            # Fixed steal costs dominate: amortise over a bigger chunk.
            self.chunk = min(self.max_chunk, self.chunk + self.increase)
        elif self.success_rate < self.success_floor:
            # Mostly empty victims: shrink so scarce work spreads out.
            self.chunk = max(self.min_chunk,
                             int(self.chunk * self.decrease) or 1)
        if self.chunk != old:
            self.sched.remote_chunk_size = self.chunk
            self.adjustments.append(float(self.chunk))
            self._emit_knob("remote_chunk_size", GLOBAL_PLACE, self.chunk)

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": "aimd_chunk",
            "chunk": self.chunk,
            "success_rate": round(self.success_rate, 6),
            "adjustments": list(self.adjustments),
            "latency_per_task": self.latency_per_task.snapshot(),
        }


class IdleThresholdController(Controller):
    """Per-place adaptation of the failed-steal idle threshold."""

    def __init__(self, min_threshold: int = 1,
                 streak_factor: int = 2) -> None:
        if min_threshold < 1:
            raise ConfigError(
                f"min_threshold must be >= 1, got {min_threshold}")
        if streak_factor < 1:
            raise ConfigError(
                f"streak_factor must be >= 1, got {streak_factor}")
        self.min_threshold = min_threshold
        self.streak_factor = streak_factor
        self.streaks: Dict[int, int] = {}
        self.defaults: Dict[int, int] = {}
        self.streak_hist = Histogram()

    def bind(self, runtime: "SimRuntime", scheduler: "Scheduler") -> None:
        super().bind(runtime, scheduler)
        for place in runtime.places:
            self.defaults[place.place_id] = place.idle_round_threshold()
            self.streaks[place.place_id] = 0

    def on_failed_round(self, worker: "Worker") -> None:
        place = worker.place
        pid = place.place_id
        streak = self.streaks.get(pid, 0) + 1
        self.streaks[pid] = streak
        threshold = place.idle_round_threshold()
        if streak >= self.streak_factor * threshold \
                and threshold > self.min_threshold:
            new = max(self.min_threshold, threshold // 2)
            place.idle_threshold = new
            self.streaks[pid] = 0
            self._emit_knob("idle_threshold", pid, new)

    def on_steal_result(self, worker: "Worker", hit: bool,
                        latency_cycles: float, tasks: int) -> None:
        if not hit:
            return
        place = worker.place
        pid = place.place_id
        self.streak_hist.record(self.streaks.get(pid, 0))
        self.streaks[pid] = 0
        threshold = place.idle_round_threshold()
        default = self.defaults.get(pid, threshold)
        if threshold < default:
            place.idle_threshold = threshold + 1
            self._emit_knob("idle_threshold", pid, threshold + 1)

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": "idle_threshold",
            "thresholds": {str(p.place_id): p.idle_round_threshold()
                           for p in self.rt.places},
            "streak_at_hit": self.streak_hist.snapshot(),
        }


CONTROLLERS = {
    "aimd-chunk": AIMDChunkController,
    "idle-threshold": IdleThresholdController,
}


def make_controller(name: str) -> Controller:
    """CLI-facing factory (``--controller aimd-chunk``)."""
    try:
        return CONTROLLERS[name]()
    except KeyError:
        known = ", ".join(sorted(CONTROLLERS))
        raise ConfigError(
            f"unknown controller {name!r} (known: {known})") from None
