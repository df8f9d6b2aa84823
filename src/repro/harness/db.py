"""Crash-resilient experiment store: a SQLite-backed multi-worker job queue.

The paper's evaluation is a grid of independent deterministic cells, and
million-cell parameter studies (schedulers x apps x cluster shapes x
fault plans x tune trials) need the grid itself to survive the same
failures the simulator injects: worker crashes, kills mid-write, and
restarts.  Following the py_experimenter pattern — experiments as
status-tracked rows in SQLite that independent workers pull, fill, and
survive crashes on — this module is the *job-level* mirror of the PR-1
task-level exactly-once ``TaskLedger``.

Three layers:

- :class:`ExperimentStore` — one WAL-mode SQLite file, one row per
  :class:`~repro.harness.parallel.RunSpec` keyed by its SHA-256
  ``cache_key()``.  Status machine ``pending -> leased -> done |
  failed``; a ``done`` row holds its pickled ``RunResult``, so the
  store is also the sweep's memo of finished cells.  Every write is one
  transaction, retried with exponential backoff on ``database is
  locked`` so any number of processes on one host can share the file
  safely.
- **Leases + heartbeats** — :meth:`ExperimentStore.claim` atomically
  moves one pending row to ``leased`` under a time-bounded lease;
  :func:`drain` heartbeats the lease from a daemon thread while the
  simulation runs.  A worker that is SIGKILLed mid-cell simply stops
  heartbeating.
- **Reaper + quarantine** — :meth:`ExperimentStore.reap` re-opens rows
  whose lease expired without a heartbeat, bumping a per-row attempt
  count; a row that has burned ``max_attempts`` leases (a *poison cell*
  that crashes every worker that touches it) is quarantined as
  ``failed`` with its captured traceback instead of wedging the queue.

Exactly-once writes: :meth:`ExperimentStore.complete` is fenced by the
lease owner — a worker that lost its lease to the reaper (and whose row
may already be leased or done elsewhere) has its late result discarded,
so ``done`` rows are written exactly once and never re-simulated by a
restarted sweep.  Because cells are deterministic, either writer's
result would carry identical simulated statistics; the fence keeps the
bookkeeping (attempts, events) single-writer.

Store lifecycle events (``store_lease``, ``store_heartbeat_miss``,
``store_reclaim``, ``store_quarantine``) publish on the
:class:`~repro.obs.bus.EventBus` when one is attached via ``bus=``
(standalone mode: wall-clock timestamps, no runtime required).

Fleet observability (PR 7, ``repro.obs.fleet``): two more tables ride
in the same file.  ``worker_status`` keeps one row per worker identity —
state machine ``running -> idle | stopped | dead``, lifetime counters
(cells done/failed, leases taken, heartbeat misses / reclaims /
quarantines suffered) — updated inside the *same transactions* as the
lease operations that cause them, so ``repro top`` reads a consistent
live picture.  ``telemetry`` keeps one row per *completed* cell (obs
metrics snapshot, fault stats, wall time, trace shard path), inserted
by :meth:`ExperimentStore.complete` inside the lease-fenced ``done``
transaction — a cell that completes exactly once ships telemetry
exactly once, under any SIGKILL/restart schedule.

Scope: one host, many processes.  SQLite's WAL journal keeps its write
index in host-local shared memory (the ``-shm`` file ``mmap``-ed by
every connection), so two *machines* mounting one store over NFS/SMB
bypass each other's locking — the lease fence and exactly-once
guarantees no longer hold and the database itself can be corrupted.
Do not share a store file across hosts over a network filesystem;
run one store per host, or front a shared store with a single host's
``repro workers`` processes.  True multi-machine draining needs a
server-backed queue (future work, see ROADMAP).
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import socket
import sqlite3
import threading
import time
import traceback
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigError, ReproError

#: Row status machine.  ``pending`` and ``leased`` are *open*;
#: ``done`` and ``failed`` are terminal.
STATUSES = ("pending", "leased", "done", "failed")

#: Bump when the experiments table layout changes incompatibly.
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS experiments (
    key            TEXT PRIMARY KEY,
    payload        TEXT NOT NULL,
    spec           BLOB NOT NULL,
    status         TEXT NOT NULL DEFAULT 'pending'
                   CHECK (status IN ('pending','leased','done','failed')),
    attempts       INTEGER NOT NULL DEFAULT 0,
    lease_owner    TEXT,
    lease_deadline REAL,
    heartbeat_at   REAL,
    result         BLOB,
    error          TEXT,
    created_at     REAL NOT NULL,
    finished_at    REAL
);
CREATE INDEX IF NOT EXISTS experiments_status
    ON experiments (status, created_at);
CREATE TABLE IF NOT EXISTS telemetry (
    key          TEXT PRIMARY KEY,
    owner        TEXT NOT NULL,
    attempt      INTEGER NOT NULL,
    wall_seconds REAL NOT NULL,
    finished_at  REAL NOT NULL,
    trace_path   TEXT,
    data         TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS worker_status (
    owner            TEXT PRIMARY KEY,
    host             TEXT,
    pid              INTEGER,
    state            TEXT NOT NULL DEFAULT 'idle'
                     CHECK (state IN ('running','idle','stopped','dead')),
    current_key      TEXT,
    started_at       REAL NOT NULL,
    last_seen        REAL NOT NULL,
    cells_done       INTEGER NOT NULL DEFAULT 0,
    cells_failed     INTEGER NOT NULL DEFAULT 0,
    leases           INTEGER NOT NULL DEFAULT 0,
    heartbeat_misses INTEGER NOT NULL DEFAULT 0,
    reclaims         INTEGER NOT NULL DEFAULT 0,
    quarantines      INTEGER NOT NULL DEFAULT 0
);
"""


class StoreError(ReproError):
    """The experiment store reached an unrecoverable state."""


class QuarantinedError(StoreError):
    """A sweep contains quarantined (poison) cells; carries their errors."""

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = dict(failures)
        keys = ", ".join(k[:12] for k in sorted(failures))
        first = next(iter(failures.values())) or ""
        tail = first.strip().splitlines()[-1] if first.strip() else "?"
        super().__init__(
            f"{len(failures)} cell(s) quarantined after exhausting "
            f"max_attempts [{keys}]; first error: {tail}")


def _locked(exc: sqlite3.OperationalError) -> bool:
    """Whether ``exc`` is SQLite's transient cross-process contention."""
    msg = str(exc).lower()
    return "locked" in msg or "busy" in msg


def default_owner() -> str:
    """A globally unique worker identity: host, pid, and a random tag."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class ClaimedRow:
    """One leased row: the work a :func:`drain` iteration must do."""

    key: str
    spec: object  # the unpickled RunSpec
    attempt: int  # 1-based attempt number this lease represents


@dataclass(frozen=True)
class StoreRow:
    """Read-only row view for :meth:`ExperimentStore.rows` / ``repro query``."""

    key: str
    payload: Dict[str, object]
    status: str
    attempts: int
    lease_owner: Optional[str]
    error: Optional[str]
    created_at: float
    finished_at: Optional[float]


@dataclass(frozen=True)
class TelemetryRow:
    """One shipped per-cell telemetry record (``repro query --rollup``)."""

    key: str
    owner: str
    attempt: int
    wall_seconds: float
    finished_at: float
    trace_path: Optional[str]
    data: Dict[str, object]


@dataclass(frozen=True)
class WorkerRow:
    """One worker identity's live status and lifetime counters."""

    owner: str
    host: Optional[str]
    pid: Optional[int]
    state: str
    current_key: Optional[str]
    started_at: float
    last_seen: float
    cells_done: int
    cells_failed: int
    leases: int
    heartbeat_misses: int
    reclaims: int
    quarantines: int


def _owner_host_pid(owner: str):
    """Best-effort ``(host, pid)`` split of a ``default_owner`` identity."""
    parts = owner.split(":")
    if len(parts) >= 2 and parts[1].isdigit():
        return parts[0], int(parts[1])
    return None, None


class ExperimentStore:
    """A durable, concurrently-drainable queue of experiment cells.

    ``clock`` is injectable (tests drive lease expiry with a fake clock);
    everything else defaults to production behaviour.  The connection is
    shared across threads behind an internal mutex, so the heartbeat
    thread of :func:`drain` can extend leases while the main thread
    simulates.
    """

    def __init__(self, path: str, max_attempts: int = 3,
                 clock: Callable[[], float] = time.time,
                 bus=None, busy_retries: int = 8,
                 busy_base_sleep: float = 0.05,
                 timeout: float = 5.0) -> None:
        if max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.path = path
        self.max_attempts = max_attempts
        self.clock = clock
        self.bus = bus
        self.busy_retries = busy_retries
        self.busy_base_sleep = busy_base_sleep
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        # check_same_thread=False + self._lock: the drain heartbeat
        # thread shares this connection with the claiming thread.
        self._conn = sqlite3.connect(path, timeout=timeout,
                                     check_same_thread=False,
                                     isolation_level=None)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            # WAL survives kill -9 mid-commit (the journal replays or
            # rolls back atomically) and lets readers run during writes.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(STORE_SCHEMA_VERSION)))
        version = self._meta("schema_version")
        if version != str(STORE_SCHEMA_VERSION):
            raise StoreError(
                f"store {path} has schema version {version}, this "
                f"library expects {STORE_SCHEMA_VERSION}")

    # -- plumbing ----------------------------------------------------------
    def _meta(self, key: str) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else row["value"]

    def _txn(self, fn):
        """Run ``fn(conn)`` in one IMMEDIATE transaction, retrying
        ``database is locked`` with capped exponential backoff."""
        delay = self.busy_base_sleep
        for attempt in range(self.busy_retries + 1):
            try:
                with self._lock:
                    self._conn.execute("BEGIN IMMEDIATE")
                    try:
                        out = fn(self._conn)
                        self._conn.execute("COMMIT")
                    except BaseException:
                        # COMMIT itself can raise a transient busy error;
                        # always reset transaction state here or the
                        # retry's BEGIN IMMEDIATE dies with "cannot start
                        # a transaction within a transaction".
                        try:
                            self._conn.execute("ROLLBACK")
                        except sqlite3.OperationalError:
                            pass
                        raise
                    return out
            except sqlite3.OperationalError as exc:
                if not _locked(exc) or attempt == self.busy_retries:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _emit(self, kind: str, **fields) -> None:
        bus = self.bus
        if bus is not None:
            t = bus.clock()
            if not bus.tally(kind, t):
                bus.emit_at(t, kind, fields)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- enqueue -----------------------------------------------------------
    def add_specs(self, specs: Sequence[object]) -> int:
        """Insert ``specs`` as pending rows; existing keys (including
        finished ones) are left untouched.  Returns the number added."""
        import json

        rows = []
        now = self.clock()
        for spec in specs:
            payload = json.dumps(spec.payload(), sort_keys=True,
                                 separators=(",", ":"))
            rows.append((spec.cache_key(), payload,
                         pickle.dumps(spec,
                                      protocol=pickle.HIGHEST_PROTOCOL),
                         now))

        def txn(conn) -> int:
            added = 0
            for row in rows:
                cur = conn.execute(
                    "INSERT OR IGNORE INTO experiments "
                    "(key, payload, spec, status, created_at) "
                    "VALUES (?, ?, ?, 'pending', ?)", row)
                added += cur.rowcount
            return added

        return self._txn(txn)

    # -- lease lifecycle ---------------------------------------------------
    def claim(self, owner: str, lease_seconds: float) -> Optional[ClaimedRow]:
        """Atomically lease the oldest pending row to ``owner``.

        Returns ``None`` when nothing is pending (other rows may still
        be leased elsewhere — check :meth:`open_count`).
        """
        now = self.clock()

        def txn(conn):
            row = conn.execute(
                "SELECT key, spec, attempts FROM experiments "
                "WHERE status = 'pending' "
                "ORDER BY created_at, key LIMIT 1").fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE experiments SET status = 'leased', "
                "lease_owner = ?, lease_deadline = ?, heartbeat_at = ?, "
                "attempts = attempts + 1 WHERE key = ?",
                (owner, now + lease_seconds, now, row["key"]))
            host, pid = _owner_host_pid(owner)
            conn.execute(
                "INSERT INTO worker_status (owner, host, pid, state, "
                "current_key, started_at, last_seen, leases) "
                "VALUES (?, ?, ?, 'running', ?, ?, ?, 1) "
                "ON CONFLICT(owner) DO UPDATE SET state = 'running', "
                "current_key = excluded.current_key, "
                "last_seen = excluded.last_seen, "
                "leases = worker_status.leases + 1",
                (owner, host, pid, row["key"], now, now))
            return ClaimedRow(key=row["key"],
                              spec=pickle.loads(row["spec"]),
                              attempt=row["attempts"] + 1)

        claimed = self._txn(txn)
        if claimed is not None:
            self._emit("store_lease", key=claimed.key, owner=owner,
                       attempt=claimed.attempt)
        return claimed

    def heartbeat(self, key: str, owner: str,
                  lease_seconds: float) -> bool:
        """Extend ``owner``'s lease on ``key``.  ``False`` means the
        lease was lost (reaped) — the worker should abandon the cell."""
        now = self.clock()

        def txn(conn) -> bool:
            cur = conn.execute(
                "UPDATE experiments SET lease_deadline = ?, "
                "heartbeat_at = ? WHERE key = ? AND status = 'leased' "
                "AND lease_owner = ?",
                (now + lease_seconds, now, key, owner))
            if cur.rowcount == 1:
                conn.execute(
                    "UPDATE worker_status SET last_seen = ? "
                    "WHERE owner = ?", (now, owner))
            return cur.rowcount == 1

        return self._txn(txn)

    def complete(self, key: str, owner: str, result: object,
                 telemetry: Optional[Dict[str, object]] = None,
                 trace_path: Optional[str] = None) -> bool:
        """Transactionally store ``result`` and mark the row ``done``.

        Fenced by the lease: a worker whose lease was reclaimed gets
        ``False`` and its result is discarded (the row is someone
        else's now), keeping ``done`` exactly-once.

        ``telemetry`` (a JSON-safe dict, see
        :func:`repro.obs.fleet.observe_run`) rides in the same fenced
        transaction as the status flip, so the ``telemetry`` table gets
        exactly one row per completed cell — a loser's telemetry is
        discarded along with its result.
        """
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        tel_json = (None if telemetry is None else
                    json.dumps(telemetry, sort_keys=True,
                               separators=(",", ":")))
        wall = (float(telemetry.get("wall_seconds", 0.0))
                if telemetry else 0.0)
        now = self.clock()

        def txn(conn) -> bool:
            row = conn.execute(
                "SELECT attempts FROM experiments WHERE key = ? "
                "AND status = 'leased' AND lease_owner = ?",
                (key, owner)).fetchone()
            if row is None:
                return False
            conn.execute(
                "UPDATE experiments SET status = 'done', result = ?, "
                "error = NULL, lease_owner = NULL, lease_deadline = NULL, "
                "finished_at = ? WHERE key = ?", (blob, now, key))
            conn.execute(
                "UPDATE worker_status SET state = 'idle', "
                "current_key = NULL, last_seen = ?, "
                "cells_done = cells_done + 1 WHERE owner = ?",
                (now, owner))
            if tel_json is not None:
                conn.execute(
                    "INSERT OR REPLACE INTO telemetry (key, owner, "
                    "attempt, wall_seconds, finished_at, trace_path, "
                    "data) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (key, owner, row["attempts"], wall, now, trace_path,
                     tel_json))
            return True

        return self._txn(txn)

    def fail(self, key: str, owner: str, error: str) -> str:
        """Record a worker-side crash of ``key`` (captured traceback).

        Returns the row's new status: ``pending`` (will be retried),
        ``failed`` (quarantined after ``max_attempts``), or ``lost``
        (the lease had already been reclaimed; nothing recorded).
        """
        now = self.clock()

        def txn(conn) -> str:
            row = conn.execute(
                "SELECT attempts FROM experiments WHERE key = ? "
                "AND status = 'leased' AND lease_owner = ?",
                (key, owner)).fetchone()
            if row is None:
                return "lost"
            status = ("failed" if row["attempts"] >= self.max_attempts
                      else "pending")
            conn.execute(
                "UPDATE experiments SET status = ?, error = ?, "
                "lease_owner = NULL, lease_deadline = NULL, "
                "finished_at = ? WHERE key = ?",
                (status, error, now if status == "failed" else None, key))
            conn.execute(
                "UPDATE worker_status SET state = 'idle', "
                "current_key = NULL, last_seen = ?, "
                "cells_failed = cells_failed + 1, "
                "quarantines = quarantines + ? WHERE owner = ?",
                (now, 1 if status == "failed" else 0, owner))
            return status

        status = self._txn(txn)
        if status == "failed":
            self._emit("store_quarantine", key=key,
                       attempts=self.max_attempts, error=_last_line(error))
        return status

    def release(self, key: str, owner: str) -> bool:
        """Voluntarily return a leased row to ``pending`` (graceful
        shutdown).  The attempt is refunded — an interrupt is not a
        strike against the cell."""

        now = self.clock()

        def txn(conn) -> bool:
            cur = conn.execute(
                "UPDATE experiments SET status = 'pending', "
                "lease_owner = NULL, lease_deadline = NULL, "
                "attempts = MAX(attempts - 1, 0) "
                "WHERE key = ? AND status = 'leased' AND lease_owner = ?",
                (key, owner))
            if cur.rowcount == 1:
                conn.execute(
                    "UPDATE worker_status SET state = 'stopped', "
                    "current_key = NULL, last_seen = ?, "
                    "leases = MAX(leases - 1, 0) WHERE owner = ?",
                    (now, owner))
            return cur.rowcount == 1

        return self._txn(txn)

    def reap(self, now: Optional[float] = None) -> List[str]:
        """Reclaim every leased row whose lease expired without a
        heartbeat (crashed / SIGKILLed worker).

        Rows with attempts left go back to ``pending``; rows that have
        burned ``max_attempts`` leases are quarantined as ``failed``.
        Returns the reclaimed (re-opened) keys.
        """
        now = self.clock() if now is None else now

        def txn(conn):
            rows = conn.execute(
                "SELECT key, lease_owner, lease_deadline, attempts "
                "FROM experiments WHERE status = 'leased' "
                "AND lease_deadline < ?", (now,)).fetchall()
            reclaimed, quarantined, events = [], [], []
            for row in rows:
                overdue = now - row["lease_deadline"]
                events.append(("store_heartbeat_miss",
                               dict(key=row["key"],
                                    owner=row["lease_owner"],
                                    overdue=round(overdue, 3))))
                poisoned = row["attempts"] >= self.max_attempts
                conn.execute(
                    "UPDATE worker_status SET state = 'dead', "
                    "current_key = NULL, "
                    "heartbeat_misses = heartbeat_misses + 1, "
                    "reclaims = reclaims + ?, "
                    "quarantines = quarantines + ? WHERE owner = ?",
                    (0 if poisoned else 1, 1 if poisoned else 0,
                     row["lease_owner"]))
                if poisoned:
                    error = (f"lease expired after attempt "
                             f"{row['attempts']}/{self.max_attempts} "
                             f"(owner {row['lease_owner']} presumed dead)")
                    conn.execute(
                        "UPDATE experiments SET status = 'failed', "
                        "error = COALESCE(error, ?), lease_owner = NULL, "
                        "lease_deadline = NULL, finished_at = ? "
                        "WHERE key = ?", (error, now, row["key"]))
                    quarantined.append(row["key"])
                    events.append(("store_quarantine",
                                   dict(key=row["key"],
                                        attempts=row["attempts"],
                                        error=error)))
                else:
                    conn.execute(
                        "UPDATE experiments SET status = 'pending', "
                        "lease_owner = NULL, lease_deadline = NULL "
                        "WHERE key = ?", (row["key"],))
                    reclaimed.append(row["key"])
                    events.append(("store_reclaim",
                                   dict(key=row["key"],
                                        owner=row["lease_owner"],
                                        attempt=row["attempts"])))
            return reclaimed, events

        reclaimed, events = self._txn(txn)
        for kind, fields in events:
            self._emit(kind, **fields)
        return reclaimed

    # -- reads -------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Row count per status (every status present, zeros included)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM experiments "
                "GROUP BY status").fetchall()
        out = {status: 0 for status in STATUSES}
        for row in rows:
            out[row["status"]] = row["n"]
        return out

    def open_count(self) -> int:
        """Rows still in flight (``pending`` + ``leased``)."""
        counts = self.counts()
        return counts["pending"] + counts["leased"]

    def statuses(self, keys: Iterable[str]) -> Dict[str, str]:
        """Status per key, for the keys that exist in the store."""
        out: Dict[str, str] = {}
        keys = list(keys)
        with self._lock:
            for start in range(0, len(keys), 500):
                chunk = keys[start:start + 500]
                marks = ",".join("?" * len(chunk))
                for row in self._conn.execute(
                        f"SELECT key, status FROM experiments "
                        f"WHERE key IN ({marks})", chunk):
                    out[row["key"]] = row["status"]
        return out

    def get_result(self, key: str):
        """The stored ``RunResult`` of a ``done`` row, else ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT result FROM experiments WHERE key = ? "
                "AND status = 'done'", (key,)).fetchone()
        if row is None or row["result"] is None:
            return None
        return pickle.loads(row["result"])

    def get_error(self, key: str) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT error FROM experiments WHERE key = ?",
                (key,)).fetchone()
        return None if row is None else row["error"]

    def rows(self, status: Optional[str] = None) -> List[StoreRow]:
        """Every row (oldest first), optionally filtered by status."""
        import json

        if status is not None and status not in STATUSES:
            raise ConfigError(
                f"unknown status {status!r}; known: {list(STATUSES)}")
        query = ("SELECT key, payload, status, attempts, lease_owner, "
                 "error, created_at, finished_at FROM experiments")
        params: tuple = ()
        if status is not None:
            query += " WHERE status = ?"
            params = (status,)
        query += " ORDER BY created_at, key"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [StoreRow(key=r["key"], payload=json.loads(r["payload"]),
                         status=r["status"], attempts=r["attempts"],
                         lease_owner=r["lease_owner"], error=r["error"],
                         created_at=r["created_at"],
                         finished_at=r["finished_at"]) for r in rows]

    def telemetry_rows(self,
                       keys: Optional[Iterable[str]] = None
                       ) -> List[TelemetryRow]:
        """Shipped telemetry, completion-ordered; optionally filtered to
        ``keys`` (e.g. the cells matching a ``repro query`` filter)."""
        query = ("SELECT key, owner, attempt, wall_seconds, finished_at, "
                 "trace_path, data FROM telemetry")
        params: tuple = ()
        if keys is not None:
            keys = list(keys)
            if not keys:
                return []
            marks = ",".join("?" * len(keys))
            query += f" WHERE key IN ({marks})"
            params = tuple(keys)
        query += " ORDER BY finished_at, key"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [TelemetryRow(key=r["key"], owner=r["owner"],
                             attempt=r["attempt"],
                             wall_seconds=r["wall_seconds"],
                             finished_at=r["finished_at"],
                             trace_path=r["trace_path"],
                             data=json.loads(r["data"]))
                for r in rows]

    def worker_rows(self) -> List[WorkerRow]:
        """Every worker identity that ever touched this store."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM worker_status "
                "ORDER BY started_at, owner").fetchall()
        return [WorkerRow(owner=r["owner"], host=r["host"], pid=r["pid"],
                          state=r["state"], current_key=r["current_key"],
                          started_at=r["started_at"],
                          last_seen=r["last_seen"],
                          cells_done=r["cells_done"],
                          cells_failed=r["cells_failed"],
                          leases=r["leases"],
                          heartbeat_misses=r["heartbeat_misses"],
                          reclaims=r["reclaims"],
                          quarantines=r["quarantines"]) for r in rows]

    def retire(self, owner: str) -> None:
        """Mark ``owner`` cleanly exited (drain loop finished/stopped).

        Workers the reaper already declared ``dead`` stay dead — a
        zombie's late retire must not cosmetically resurrect it.
        """
        now = self.clock()

        def txn(conn) -> None:
            conn.execute(
                "UPDATE worker_status SET state = 'stopped', "
                "current_key = NULL, last_seen = ? "
                "WHERE owner = ? AND state != 'dead'", (now, owner))

        self._txn(txn)


def _last_line(text: str) -> str:
    lines = [ln for ln in (text or "").strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# The worker pull loop.

def _heartbeat_loop(store: ExperimentStore, key: str, owner: str,
                    heartbeat_seconds: float, lease_seconds: float,
                    stop: threading.Event) -> None:
    """Daemon-thread body: extend the lease until told to stop or the
    lease is lost (reaped under us)."""
    while not stop.wait(heartbeat_seconds):
        try:
            if not store.heartbeat(key, owner, lease_seconds):
                return  # lease reclaimed; the result write will be fenced
        except sqlite3.OperationalError:
            # Transient contention beyond the retry budget: keep trying
            # on the next beat; the lease outlives several misses.
            continue


def run_claimed(store: ExperimentStore, row: ClaimedRow, owner: str,
                heartbeat_seconds: float, lease_seconds: float,
                fleet: Optional["object"] = None) -> bool:
    """Simulate one claimed cell, heartbeating throughout.

    Returns ``True`` iff this worker's result landed (the lease was
    still ours at commit time).  A simulation error is recorded via
    :meth:`ExperimentStore.fail` (retried or quarantined).  An
    interrupt anywhere from here to the commit — the heartbeat start,
    the simulation, or the result's encoding inside
    :meth:`ExperimentStore.complete` — releases the lease and
    re-raises; a release after a committed ``complete`` or ``fail`` is
    a no-op (its ``status = 'leased'`` fence).

    With a :class:`repro.obs.fleet.FleetTelemetry` config the run is
    observed (metrics registry, optional trace shard) and the snapshot
    ships in the *same* transaction as the done flip, so telemetry is
    exactly-once alongside the result.
    """
    from repro.harness.parallel import simulate

    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(store, row.key, owner, heartbeat_seconds, lease_seconds,
              stop),
        name=f"store-heartbeat-{row.key[:8]}", daemon=True)
    telemetry = trace_path = error = None
    try:
        beat.start()
        try:
            if fleet is not None and getattr(fleet, "enabled", False):
                from repro.obs.fleet import observe_run
                result, telemetry, trace_path = observe_run(
                    row.spec, row.key, owner, row.attempt, fleet)
            else:
                result = simulate(row.spec)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException:
            error = traceback.format_exc()
        stop.set()
        beat.join()
        if error is not None:
            store.fail(row.key, owner, error)
            return False
        return store.complete(row.key, owner, result, telemetry=telemetry,
                              trace_path=trace_path)
    except (KeyboardInterrupt, SystemExit):
        stop.set()
        if beat.is_alive():
            beat.join()
        store.release(row.key, owner)
        raise


def drain(store: ExperimentStore, owner: Optional[str] = None,
          heartbeat_seconds: float = 2.0,
          lease_seconds: Optional[float] = None,
          poll_seconds: float = 0.2,
          stop: Optional[threading.Event] = None,
          on_cell: Optional[Callable[[ClaimedRow, bool], None]] = None,
          fleet: Optional["object"] = None) -> int:
    """Pull-loop: claim, simulate, commit until the store has no open
    rows (or ``stop`` is set).  Any number of processes on the store's
    host may drain it concurrently (WAL does not span machines — see
    the module docstring).

    The loop doubles as the reaper: whenever it finds nothing pending it
    reclaims expired leases, so a sweep whose workers all died resumes
    the moment any one worker restarts.  Returns the number of cells
    this call completed.

    Telemetry ships by default (``fleet=None`` means a default-on
    :class:`repro.obs.fleet.FleetTelemetry`); pass
    ``FleetTelemetry(enabled=False)`` to opt out entirely.
    """
    owner = owner or default_owner()
    if fleet is None:
        from repro.obs.fleet import FleetTelemetry
        fleet = FleetTelemetry()
    lease = (lease_seconds if lease_seconds is not None
             else max(heartbeat_seconds * 5.0, 1.0))
    if lease <= heartbeat_seconds:
        raise ConfigError(
            f"lease_seconds ({lease}) must exceed heartbeat_seconds "
            f"({heartbeat_seconds}) or every live lease expires")
    stop = stop or threading.Event()
    # Load numpy.random before the first claim: its Cython modules
    # initialise with a bare ``except: pass`` that swallows a signal
    # handled inside them, which the check below then catches at once.
    import numpy.random  # noqa: F401
    completed = 0
    while not stop.is_set():
        if _signalled:
            raise KeyboardInterrupt("a signal whose raise was swallowed")
        row = store.claim(owner, lease)
        if row is None:
            store.reap()
            if store.open_count() == 0:
                break
            stop.wait(poll_seconds)
            continue
        landed = run_claimed(store, row, owner, heartbeat_seconds, lease,
                             fleet=fleet)
        completed += landed
        if on_cell is not None:
            on_cell(row, landed)
    store.retire(owner)
    return completed


def drain_with_helpers(store: ExperimentStore, helpers: int,
                       fleet: Optional["object"] = None,
                       **lease_kwargs) -> int:
    """Drain ``store`` here while ``helpers`` processes drain it too.

    Each helper is a :func:`run_worker` process on ``store.path`` with
    ``store.max_attempts``, ``fleet`` and the same ``lease_kwargs``
    (``heartbeat_seconds``, ``lease_seconds``, ``poll_seconds``; those
    not given keep :func:`drain`'s defaults).  The calling process
    drains alongside them, then joins them.  On any exception or
    interrupt here (a SIGTERM under :func:`graceful_signals` included)
    every helper is terminated first, so each releases its held lease
    and exits instead of draining the rest of the store before the join
    returns.  With ``helpers=0`` this is exactly :func:`drain`.
    Returns the number of cells this process completed.
    """
    import multiprocessing

    mp = multiprocessing.get_context()
    procs = []
    try:
        for _ in range(helpers):
            proc = mp.Process(
                target=run_worker, args=(store.path,),
                kwargs={"max_attempts": store.max_attempts,
                        "fleet": fleet, **lease_kwargs},
                daemon=True)
            proc.start()
            procs.append(proc)
        return drain(store, fleet=fleet, **lease_kwargs)
    except BaseException:
        for proc in procs:
            proc.terminate()  # SIGTERM: the helper releases its lease
        raise
    finally:
        for proc in procs:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join()


#: Set by :func:`graceful_signals`' handler until its block exits.
_signalled = False


@contextmanager
def graceful_signals():
    """Convert ``SIGTERM`` into :class:`KeyboardInterrupt` for the block.

    ``repro``'s ``main`` wraps every command in this, and each
    :func:`run_worker` helper its drain, so a ``kill`` (or a SIGINT)
    unwinds through the normal interrupt path instead of dying with a
    bare traceback mid-write: :func:`run_claimed` releases the held
    lease, and :func:`drain_with_helpers` terminates and joins its
    helpers.  The signal is sticky: code that swallows the raise cannot
    lose it, because :func:`drain` raises again before its next claim.
    A no-op off the main thread (signal handlers can only be installed
    there).
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _to_interrupt(signum, frame):
        global _signalled
        _signalled = True
        raise KeyboardInterrupt(f"signal {signum}")

    global _signalled
    previous = signal.signal(signal.SIGTERM, _to_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
        _signalled = False


def run_worker(path: str, owner: Optional[str] = None,
               heartbeat_seconds: float = 2.0,
               lease_seconds: Optional[float] = None,
               poll_seconds: float = 0.2,
               max_attempts: int = 3,
               fleet: Optional["object"] = None) -> int:
    """Process entry point: open ``path`` and :func:`drain` it.

    Picklable by construction so it works as a ``multiprocessing``
    target (:func:`drain_with_helpers` spawns it).  SIGTERM/SIGINT
    release the held lease and exit cleanly instead of stranding it
    until lease expiry.
    """
    store = ExperimentStore(path, max_attempts=max_attempts)
    try:
        with graceful_signals():
            return drain(store, owner=owner,
                         heartbeat_seconds=heartbeat_seconds,
                         lease_seconds=lease_seconds,
                         poll_seconds=poll_seconds,
                         fleet=fleet)
    except KeyboardInterrupt:
        # run_claimed released the lease it held; a row claimed but not
        # yet handed to it is reclaimed by the reaper at lease expiry.
        return 0
    finally:
        store.close()
