"""Paths, private cache roots, the program launch and the warm state.

Every launch of the program gets its own cache roots under a temp dir
inside the checkout (``.bench_build/perfbench/tmp``): ``XDG_CACHE_HOME``,
``REPRO_CACHE_DIR``, ``REPRO_NATIVE_CACHE_DIR``, the serve registry and,
for the corpus sweep, the checkpoint dir.  Inherited ``REPRO_*`` variables are dropped, so the
settings in effect are exactly the ones :func:`program_env` sets and the
snapshot records.  Nothing is read from or written to ``~/.cache``.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
LAUNCHER = os.path.join(BENCH_DIR, "launcher.py")

#: Worker processes per sweep and driver threads for the suite
#: scheduler.  Passed explicitly on every command line; 1 keeps every
#: layer in the traced process and is never above ``nproc``.
WORKERS = 1
JOBS = 1

#: Environment pinned for every launch and recorded in the snapshot.
#: A fixed hash seed makes set and dict orders the same in every launch.
#: BLAS thread pools get one thread.  At the default, one per CPU, the
#: pool's threads spin while they wait for each other, which turns any
#: loss of a CPU into a stall: on a 2-vCPU host a paper-warm launch took
#: 1.5 s idle and 13-16 s next to two busy processes, against 1.3 s and
#: 2.0 s with one thread.  The threads each launch's BLAS libraries
#: report are recorded.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "experiments", "__main__.py"))


def source_digest() -> str:
    """Content hash of the program sources (the checkout is no git repo)."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def cc_version() -> str:
    try:
        out = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.splitlines()[0] if out else "unavailable"


@dataclass
class Dirs:
    """One launch's private cache roots."""

    root: str
    env: dict = field(default_factory=dict)

    @classmethod
    def make(cls, *, checkpoint: bool = False) -> "Dirs":
        os.makedirs(os.path.join(STATE_DIR, "tmp"), exist_ok=True)
        root = tempfile.mkdtemp(prefix="run-", dir=os.path.join(STATE_DIR, "tmp"))
        env = {
            "XDG_CACHE_HOME": os.path.join(root, "xdg"),
            "REPRO_CACHE_DIR": os.path.join(root, "cache"),
            "REPRO_NATIVE_CACHE_DIR": os.path.join(root, "native"),
            "REPRO_SERVE_REGISTRY": os.path.join(root, "registry"),
        }
        if checkpoint:
            # Setting the checkpoint dir also switches sweep journaling on.
            env["REPRO_CHECKPOINT_DIR"] = os.path.join(root, "checkpoints")
        for key in ("XDG_CACHE_HOME", "REPRO_CACHE_DIR", "REPRO_NATIVE_CACHE_DIR"):
            os.makedirs(env[key], exist_ok=True)
        return cls(root, env)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def program_env(dirs: Dirs) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(dirs.env)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


def repro_settings(dirs: Dirs) -> dict:
    """The ``REPRO_*`` variables in effect, with the temp root elided."""
    return {
        k: v.replace(dirs.root, "<tmp>")
        for k, v in sorted(dirs.env.items())
        if k.startswith("REPRO_")
    }


def count_files(root: str, suffix: str) -> int:
    n = 0
    for _, _, files in os.walk(root):
        n += sum(1 for f in files if f.endswith(suffix))
    return n


#: Every program process started and not yet reaped.
CHILDREN: set = set()


def stop_children() -> None:
    """Kill and reap every program process still running."""
    for proc in list(CHILDREN):
        if proc.returncode is None:
            proc.kill()
            try:
                proc.wait(timeout=30)
            except Exception:
                pass
        CHILDREN.discard(proc)


#: Fixed pure-Python work per host-speed sample, the pause between
#: samples, and the processor seconds one sample takes on the idle host
#: (2-vCPU KVM guest, Xeon at 2.1 GHz, python 3.11.7): the unit of the
#: adjusted times.
SPEED_SAMPLE_ITERS = 10_000
SPEED_SAMPLE_PERIOD_S = 0.05
SPEED_SAMPLE_IDLE_S = 0.0013


def _speed_sample() -> float:
    t0 = time.thread_time()
    counts: dict = {}
    acc = 0
    for i in range(SPEED_SAMPLE_ITERS):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        acc += i & 7
    return time.thread_time() - t0


class HostSpeed:
    """How slow the host runs while the caller waits for a launch.

    On a shared VM the speed of the same fixed work drifts by up to 2x
    within minutes, with no steal time reported, so processor time
    drifts as much as wall time.  A thread of this (otherwise waiting)
    process times a small fixed piece of work every 50 ms, in its own
    processor time, on the CPU the program leaves free.  Over 30
    ``advise-batch`` launches the median sample tracked the launch's
    wall time with correlation 0.9, and dividing by it cut the spread
    of launch walls from 0.12 to 0.05 of their median.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.samples.append(_speed_sample())
            self._stop.wait(SPEED_SAMPLE_PERIOD_S)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        """Median sample over its idle time: 1.0 on the idle host."""
        return statistics.median(self.samples) / SPEED_SAMPLE_IDLE_S


@dataclass
class Launch:
    """One finished program process."""

    status: int
    spawn: float  # monotonic, just before the fork
    exit: float  # monotonic, just after the wait returned
    rss_mb: float
    stdout: str
    stderr: str
    report: Optional[dict]
    #: How slow the host ran during the launch (``HostSpeed``).
    slowdown: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.exit - self.spawn

    @property
    def setup_s(self) -> Optional[float]:
        if not self.report or self.report.get("first_call") is None:
            return None
        return self.report["first_call"] - self.spawn


def launcher_cmd(out: str, trace: bool, hook: str, argv: list) -> list:
    return [sys.executable, LAUNCHER, out, "1" if trace else "0", hook, "--", *argv]


def run_program(
    dirs: Dirs, hook: str, argv: list, *, trace: bool = False, timeout: float = 170.0
) -> Launch:
    """Launch the program once to completion, timing it from spawn.

    Dirty pages left by earlier launches, their clean-up and the copy of
    the warm state are written back first, so that the disk writes of
    one launch are not timed in the next."""
    os.sync()
    out = dirs.path("launch.json")
    stdout_path, stderr_path = dirs.path("stdout.txt"), dirs.path("stderr.txt")
    with open(stdout_path, "w") as so, open(stderr_path, "w") as se, HostSpeed() as speed:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            launcher_cmd(out, trace, hook, argv),
            cwd=ROOT,
            env=program_env(dirs),
            stdout=so,
            stderr=se,
        )
        CHILDREN.add(proc)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        CHILDREN.discard(proc)
    report = None
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
    with open(stdout_path) as fh:
        stdout = fh.read()
    with open(stderr_path) as fh:
        stderr = fh.read()
    return Launch(
        proc.returncode, spawn, end, usage.ru_maxrss / 1024.0, stdout, stderr, report,
        speed.slowdown(),
    )


@contextmanager
def locked(name: str):
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(os.path.join(STATE_DIR, name + ".lock"), "w") as lk:
        fcntl.flock(lk.fileno(), fcntl.LOCK_EX)
        yield


def paper_argv() -> list:
    return ["all", "--no-scatter", "--workers", str(WORKERS), "--jobs", str(JOBS)]


def warm_dir(name: str, prepare) -> str:
    """A warm measurement cache and ``.so`` cache, under ``name``.

    Prepared once per checkout and source state by ``prepare(dirs)``,
    an untimed run from empty caches, and saved; later launches copy
    from it.
    """
    key = f"{source_digest()}-{hashlib.sha256((sys.version + cc_version()).encode()).hexdigest()[:8]}"
    warm = os.path.join(STATE_DIR, "warm", key, name)
    with locked("warm"):
        if os.path.isdir(warm):
            return warm
        dirs = Dirs.make()
        try:
            prepare(dirs)
            staging = warm + ".partial"
            shutil.rmtree(staging, ignore_errors=True)
            os.makedirs(staging)
            shutil.copytree(dirs.env["REPRO_CACHE_DIR"], os.path.join(staging, "cache"))
            shutil.copytree(dirs.env["REPRO_NATIVE_CACHE_DIR"], os.path.join(staging, "native"))
            os.replace(staging, warm)
        finally:
            dirs.remove()
    return warm


def _run_paper(dirs: Dirs) -> None:
    launch = run_program(dirs, "paper", paper_argv())
    if launch.status != 0:
        raise RuntimeError("warm-up run of the paper command failed:\n" + launch.stderr[-2000:])


def warm_state() -> str:
    """Caches left by one run of the paper command."""
    return warm_dir("paper", _run_paper)


def settings_snapshot(seed: int, dirs_env: dict, extra: dict) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "unavailable"

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "git_rev": rev or "not a git checkout",
        "source_digest": source_digest(),
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cc": cc_version(),
        "repro_env": dirs_env,
        "seed": seed,
        "workers": WORKERS,
        "jobs": JOBS,
        "pinned_env": PINNED_ENV,
        **extra,
    }
