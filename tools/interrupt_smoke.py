#!/usr/bin/env python
"""Interrupt probe for a ``--parallel`` sweep (CI parallel-smoke job).

Starts ``repro reproduce fig3 --scale bench --parallel N --store PATH``
in a subprocess and waits until each of its N processes (the
coordinator and its helpers) holds a lease, so cells are in flight and
more are pending.  Then it sends the coordinator SIGTERM and checks how
the sweep unwinds:

- the coordinator exits with the interrupt code 130 within 2 s, far
  inside the 30 s a helper join may wait;
- no helper process is still alive;
- no store row is left ``leased``.

Exit 1 on any violation.

Usage:
    python tools/interrupt_smoke.py --parallel 4
"""

from __future__ import annotations

import argparse
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MAX_EXIT_SECONDS = 2.0


def _leased_pids(store_path: str) -> list:
    """The pids of the lease owners of the store's ``leased`` rows."""
    if not os.path.exists(store_path):
        return []
    conn = sqlite3.connect(store_path, timeout=5.0)
    try:
        rows = conn.execute("SELECT lease_owner FROM experiments "
                            "WHERE status = 'leased'").fetchall()
    except sqlite3.OperationalError:  # schema not created yet
        return []
    finally:
        conn.close()
    # Owners are ``host:pid:tag`` (repro.harness.db.default_owner).
    return [int(owner.split(":")[1]) for (owner,) in rows]


def _status_counts(store_path: str) -> dict:
    """Row count per status in the store (empty before the schema)."""
    if not os.path.exists(store_path):
        return {}
    conn = sqlite3.connect(store_path, timeout=5.0)
    try:
        rows = conn.execute("SELECT status, COUNT(*) FROM experiments "
                            "GROUP BY status").fetchall()
    except sqlite3.OperationalError:  # schema not created yet
        return {}
    finally:
        conn.close()
    return dict(sorted(rows))


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie nobody has reaped yet counts as
    dead."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: ask the kernel instead
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def interrupt_sweep(store_path: str, parallel: int,
                    start_timeout: float = 120.0,
                    exit_timeout: float = 60.0) -> dict:
    """SIGTERM a sweep's coordinator mid-drain; report how it unwound.

    Returns ``exit_code`` (``None`` if it outlived ``exit_timeout``),
    ``seconds`` from the signal to its exit, the ``helpers``' pids,
    those still ``alive`` afterwards, the number of rows still
    ``leased``, the store's row count per status just before the
    signal (``at_signal``) and after the exit (``at_exit``), and the
    coordinator's ``stderr``.  An exit code of 0 with no open row at
    exit means the sweep finished before the signal could stop it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        # Fig. 3's seven 128-worker bench-scale cells each simulate for
        # seconds, so every process is mid-cell when the signal lands.
        [sys.executable, "-m", "repro", "reproduce", "fig3",
         "--scale", "bench", "--parallel", str(parallel),
         "--store", store_path],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.monotonic() + start_timeout
        while len(set(pids := _leased_pids(store_path))) < parallel:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"the sweep never had {parallel} cells in flight "
                    f"(exit code {proc.poll()})")
            time.sleep(0.05)
        at_signal = _status_counts(store_path)
        t0 = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        try:
            _, err = proc.communicate(timeout=exit_timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            err, code = "", None
        seconds = time.monotonic() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    helpers = sorted(set(pids) - {proc.pid})
    return {"exit_code": code, "seconds": seconds, "helpers": helpers,
            "alive": [pid for pid in helpers if _alive(pid)],
            "leased": len(_leased_pids(store_path)),
            "at_signal": at_signal, "at_exit": _status_counts(store_path),
            "stderr": err}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parallel", type=int, default=4)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="interrupt-smoke-") as tmp:
        probe = interrupt_sweep(os.path.join(tmp, "sweep.db"),
                                args.parallel)
    print(f"coordinator exit code {probe['exit_code']} after "
          f"{probe['seconds']:.2f} s; helpers {probe['helpers']}, "
          f"alive {probe['alive']}; rows leased {probe['leased']}")
    problems = []
    if probe["exit_code"] != 130:
        problems.append(f"exit code {probe['exit_code']}, expected 130")
    if probe["seconds"] > MAX_EXIT_SECONDS:
        problems.append(f"took {probe['seconds']:.2f} s to exit "
                        f"(bound {MAX_EXIT_SECONDS:g} s)")
    if len(probe["helpers"]) != args.parallel - 1:
        problems.append(f"{len(probe['helpers'])} helpers held leases, "
                        f"expected {args.parallel - 1}")
    if probe["alive"]:
        problems.append(f"helpers still alive: {probe['alive']}")
    if probe["leased"]:
        problems.append(f"{probe['leased']} row(s) left leased")
    for line in problems:
        print(f"FAIL: {line}", file=sys.stderr)
    if problems:
        print(f"store rows at the signal {probe['at_signal']}, "
              f"at exit {probe['at_exit']}", file=sys.stderr)
        print(probe["stderr"], file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
