"""Bounded admission, per-request deadlines, supervised workers.

The pool is the service's load shedder and fault boundary:

* **admission** — a bounded queue; a full queue answers 429 with a
  ``Retry-After`` hint *immediately* instead of letting latency
  collapse under overload;
* **deadlines** — every request carries an absolute deadline
  (``REPRO_SERVE_TIMEOUT`` seconds from admission); the dispatcher
  waits on the ticket only that long and answers 503 the instant it
  expires, so no caller ever outlives its deadline waiting on us;
* **supervision** — Python threads cannot be killed, so a worker that
  crashes (its loop dies) or hangs past a ticket's deadline is
  *replaced*: a supervisor thread detects the loss and spawns a fresh
  worker, while the stuck thread is detached as a zombie whose late
  result is discarded (the ticket was already abandoned);
* **chaos hooks** — a :class:`~repro.pipeline.faultinject.FaultPlan`
  fires request-scoped faults (``slow_handler``, ``worker_crash``,
  ``corrupt_registry``) deterministically by
  ``sha256(seed:kind:request:attempt)``; retries are new attempts, so
  faults drain exactly like the measurement sweep's.

Rejections (429/503) are *retryable*: the chaos harness and the HTTP
client drive them through ``pipeline.resilience.RetryPolicy`` until a
final verdict lands — that, plus deterministic advising, is what makes
"no request lost, verdicts bit-identical" provable.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from ..pipeline.faultinject import (
    FaultPlan,
    InjectedWorkerCrash,
    serve_plan_from_env,
)
from .advisor import Advisor, AdvisorError

#: Grace added to a deadline before a worker is declared hung.
HANG_GRACE_S = 0.25

#: How often the supervisor sweeps for dead/hung workers.
SUPERVISOR_TICK_S = 0.05


def resolve_timeout() -> float:
    env = os.environ.get("REPRO_SERVE_TIMEOUT")
    try:
        value = float(env) if env else 10.0
    except ValueError:
        value = 10.0
    return max(value, 0.05)


def resolve_queue_size() -> int:
    env = os.environ.get("REPRO_SERVE_QUEUE")
    try:
        value = int(env) if env else 64
    except ValueError:
        value = 64
    return max(value, 1)


def resolve_workers() -> int:
    env = os.environ.get("REPRO_SERVE_WORKERS")
    try:
        value = int(env) if env else 0
    except ValueError:
        value = 0
    if value > 0:
        return value
    return min(4, max(2, (os.cpu_count() or 2)))


@dataclass
class Ticket:
    """One admitted request on its way through the pool."""

    request_id: str
    payload: dict
    attempt: int
    deadline: float  # absolute, on the pool's clock
    done: threading.Event = field(default_factory=threading.Event)
    status: int = 500
    body: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _abandoned: bool = False

    def abandon(self) -> bool:
        """Dispatcher gave up; a late worker result must be discarded."""
        with self._lock:
            if self.done.is_set():
                return False
            self._abandoned = True
            return True

    @property
    def abandoned(self) -> bool:
        with self._lock:
            return self._abandoned

    def complete(self, status: int, body: dict) -> bool:
        """Deliver the result unless the dispatcher already gave up."""
        with self._lock:
            if self._abandoned or self.done.is_set():
                return False
            self.status = status
            self.body = body
            self.done.set()
            return True


class PoolStats:
    def __init__(self):
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected_queue_full = 0
        self.rejected_deadline = 0
        self.completed = 0
        self.worker_crashes = 0
        self.workers_replaced = 0
        self.zombied = 0
        self.faults_injected = 0

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                k: v
                for k, v in self.__dict__.items()
                if not k.startswith("_")
            }


class WorkerPool:
    """Fixed-size supervised worker pool over a bounded queue."""

    def __init__(
        self,
        advisor: Advisor,
        *,
        workers: Optional[int] = None,
        queue_size: Optional[int] = None,
        timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        hang_s: Optional[float] = None,
        clock=None,
    ):
        self.advisor = advisor
        self.workers = workers if workers is not None else resolve_workers()
        self.timeout = timeout if timeout is not None else resolve_timeout()
        self.queue_size = (
            queue_size if queue_size is not None else resolve_queue_size()
        )
        if fault_plan is None:
            fault_plan = serve_plan_from_env()
        self.fault_plan = fault_plan
        if hang_s is None:
            hang_s = (
                fault_plan.hang_seconds if fault_plan is not None else 30.0
            )
        self.hang_s = hang_s
        self._clock = clock or time.monotonic
        self._queue: "queue.Queue[Optional[Ticket]]" = queue.Queue(
            maxsize=self.queue_size
        )
        self._threads: dict[int, threading.Thread] = {}
        #: worker thread ident → (ticket, started-at) while busy.
        self._busy: dict[int, tuple[Ticket, float]] = {}
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._next_worker = 0
        self.stats = PoolStats()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerPool":
        self._stopping.clear()
        with self._lock:
            for _ in range(self.workers):
                self._spawn_locked()
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def _spawn_locked(self) -> None:
        self._next_worker += 1
        t = threading.Thread(
            target=self._worker_loop,
            name=f"serve-worker-{self._next_worker}",
            daemon=True,
        )
        self._threads[self._next_worker] = t
        t.start()

    def stop(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Shut down; with ``drain``, in-flight work completes first."""
        if drain:
            end = self._clock() + timeout
            while not self._queue.empty() and self._clock() < end:
                time.sleep(0.01)
            with self._lock:
                busy = bool(self._busy)
            while busy and self._clock() < end:
                time.sleep(0.01)
                with self._lock:
                    busy = bool(self._busy)
        self._stopping.set()
        with self._lock:
            n = len(self._threads)
        for _ in range(n):
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                break
        with self._lock:
            threads = list(self._threads.values())
        for t in threads:
            t.join(timeout=0.5)

    # -- admission ----------------------------------------------------------

    def submit(
        self,
        payload: dict,
        *,
        request_id: str,
        attempt: int = 0,
        timeout: Optional[float] = None,
    ) -> tuple[int, dict]:
        """Admit, wait, answer — always within the request's deadline.

        Returns ``(status, body)``: 200 a verdict, 400 a client error,
        429 shed at admission (queue full), 503 deadline expired or a
        retryable in-flight fault.  429/503 carry ``retry_after``.
        """
        budget = timeout if timeout is not None else self.timeout
        deadline = self._clock() + budget
        ticket = Ticket(
            request_id=request_id,
            payload=payload,
            attempt=attempt,
            deadline=deadline,
        )
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            self.stats.bump("rejected_queue_full")
            return 429, {
                "error": "admission queue full",
                "retry_after": round(budget / 4, 3),
            }
        self.stats.bump("admitted")
        remaining = deadline - self._clock()
        if ticket.done.wait(timeout=max(remaining, 0.0)):
            self.stats.bump("completed")
            return ticket.status, ticket.body
        # Deadline expired with the ticket queued or in flight: answer
        # now.  If a worker is holding it, the supervisor will replace
        # that worker once it overstays the grace period.
        ticket.abandon()
        self.stats.bump("rejected_deadline")
        return 503, {
            "error": f"deadline of {budget:.3g}s exceeded",
            "retry_after": round(budget / 2, 3),
        }

    # -- worker -------------------------------------------------------------

    def _worker_loop(self) -> None:
        ident = threading.get_ident()
        while not self._stopping.is_set():
            try:
                ticket = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if ticket is None:
                break
            if ticket.abandoned:
                continue
            with self._lock:
                self._busy[ident] = (ticket, self._clock())
            try:
                self._handle(ticket)
            except InjectedWorkerCrash:
                # Exit the loop so the thread dies (without spamming
                # the thread excepthook); the supervisor notices the
                # dead worker and spawns a replacement.
                self.stats.bump("worker_crashes")
                return
            finally:
                with self._lock:
                    self._busy.pop(ident, None)

    def _handle(self, ticket: Ticket) -> None:
        inject = self._decide_faults(ticket)
        if "slow_handler" in inject:
            # A hang: sleep in small slices so an abandoned ticket
            # releases the worker (a genuinely blocked worker is
            # replaced by the supervisor instead).
            wake = self._clock() + self.hang_s
            while self._clock() < wake:
                if ticket.abandoned or self._stopping.is_set():
                    return
                time.sleep(0.02)
        if "worker_crash" in inject:
            ticket.complete(
                503,
                {
                    "error": "worker crashed mid-request",
                    "retry_after": 0.05,
                },
            )
            raise InjectedWorkerCrash(
                f"injected worker crash on {ticket.request_id}"
            )
        if "corrupt_registry" in inject:
            # Poison the active on-disk entry, then force the reload a
            # poisoned deployment would trigger: the registry must
            # detect the bad sha, evict, and heal from last-good.
            self._corrupt_registry()
        if ticket.abandoned:
            return
        try:
            body = self.advisor.advise(ticket.payload)
            ticket.complete(200, body)
        except AdvisorError as exc:
            ticket.complete(exc.status, {"error": str(exc)})
        except Exception as exc:  # unexpected: a 500, not a crash
            ticket.complete(
                500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
            )

    def _decide_faults(self, ticket: Ticket) -> set[str]:
        plan = self.fault_plan
        if plan is None:
            return set()
        fired = {
            kind
            for kind in plan.rates
            if plan.decide(kind, ticket.request_id, ticket.attempt)
        }
        if fired:
            self.stats.bump("faults_injected", len(fired))
        return fired

    def _corrupt_registry(self) -> None:
        registry = self.advisor.registry
        root = registry.root
        try:
            for key_dir in root.iterdir():
                current = key_dir / "CURRENT"
                if not current.is_file():
                    continue
                version = current.read_text().strip()
                entry = key_dir / f"entry-{version}.json"
                if entry.is_file():
                    with open(entry, "r+b") as fh:
                        fh.write(b"\x00GARBAGE\x00")
        except OSError:
            pass
        registry.reload()

    # -- supervision --------------------------------------------------------

    def _supervise(self) -> None:
        while not self._stopping.is_set():
            time.sleep(SUPERVISOR_TICK_S)
            now = self._clock()
            with self._lock:
                # Dead workers (crashed loops) → replace.
                dead = [
                    wid
                    for wid, t in self._threads.items()
                    if not t.is_alive()
                ]
                for wid in dead:
                    del self._threads[wid]
                    self._spawn_locked()
                    self.stats.bump("workers_replaced")
                # Hung workers: busy on a ticket past deadline + grace.
                hung = [
                    (ident, ticket)
                    for ident, (ticket, _) in self._busy.items()
                    if now > ticket.deadline + HANG_GRACE_S
                ]
                for ident, ticket in hung:
                    ticket.abandon()
                    # Detach: the thread keeps running (unkillable) but
                    # is no longer counted; spawn a fresh worker so
                    # capacity is restored.
                    self._busy.pop(ident, None)
                    for wid, t in list(self._threads.items()):
                        if t.ident == ident:
                            del self._threads[wid]
                            self._spawn_locked()
                            self.stats.bump("workers_replaced")
                            self.stats.bump("zombied")
                            break

    # -- introspection ------------------------------------------------------

    def health(self) -> dict:
        with self._lock:
            alive = sum(1 for t in self._threads.values() if t.is_alive())
            busy = len(self._busy)
        return {
            "workers": self.workers,
            "alive": alive,
            "busy": busy,
            "queue_depth": self._queue.qsize(),
            "queue_size": self.queue_size,
            "timeout_s": self.timeout,
            "faults": sorted(self.fault_plan.rates)
            if self.fault_plan
            else [],
            **self.stats.as_dict(),
        }
