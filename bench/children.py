"""Run one child process at a time and account for it with ``os.wait4``.

``os.wait4`` returns the resource usage of exactly the reaped child, so the
peak RSS and CPU time below belong to one command, unlike
``RUSAGE_CHILDREN``, which is a running maximum over every child so far.
A pidfd gives a race-free timeout: the child is killed through its own
descriptor, never through a pid that may have been reused.
"""

from __future__ import annotations

import os
import select
import signal
import time
from dataclasses import dataclass
from pathlib import Path

# What the installed ``conformal-gate`` console script runs.
LAUNCHER = "import sys; from conformal_gate.cli import main; sys.exit(main())"

# A fixed pure-interpreter loop, timed right before and after each child.
# On a shared host the machine's speed drifts by tens of percent within
# minutes; scaling each child's time by this probe's speed removes most of
# that drift.  Of the probes tried (parsing floats into tuples, best-of-n
# and median-of-n timings), one run of this loop tracked the children best.
PROBE_REFERENCE_S = 0.0055  # the probe's time at the reference speed
# When the host slowed down, the CLI's children slowed more than the probe:
# on a shared 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6), over 20 runs per
# workload in a calm and a busy phase, an exponent of 1.25
# on the probe's speed ratio removed most of the shift between the phases
# (1.1 to 1.5 fitted the single workloads).
PROBE_ELASTICITY = 1.25


def probe_s() -> float:
    start = time.perf_counter()
    sum(range(300_000))
    return time.perf_counter() - start


@dataclass(frozen=True)
class ChildRun:
    """Wall time and resource usage of one finished child process."""

    exit_code: int | None  # None when the child was killed on timeout
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    stdout: str
    stderr: str
    speed: float  # (reference probe time / probe time around the child) ** elasticity

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference speed."""
        return self.wall_s * self.speed

    @property
    def offcpu_s(self) -> float:
        return self.wall_s - self.cpu_s


def child_env(src: Path) -> dict[str, str]:
    """The environment every child gets: one thread per library, fixed hashing."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        CONFORMAL_GATE_LOG="WARNING",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(argv: list[str], env: dict[str, str], out_dir: Path, timeout_s: float) -> ChildRun:
    """Spawn argv with stdout and stderr captured in out_dir, wait, account."""
    stdout, stderr = out_dir / "child.stdout", out_dir / "child.stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    before = probe_s()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], timeout_s)
        if not exited:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    finally:
        # Reap even when interrupted, so no child outlives the benchmark.
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
    wall = time.perf_counter() - start
    speed = (2 * PROBE_REFERENCE_S / (before + probe_s())) ** PROBE_ELASTICITY
    return ChildRun(
        exit_code=os.waitstatus_to_exitcode(status) if exited else None,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=stdout.read_text(encoding="utf-8", errors="replace"),
        stderr=stderr.read_text(encoding="utf-8", errors="replace"),
        speed=speed,
    )
