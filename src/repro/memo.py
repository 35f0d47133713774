"""One compute-once memo for every in-process result cache.

The dataset memo (:mod:`repro.experiments.dataset`), the experiment
engine's fit/LOOCV memo (:mod:`repro.experiments.base`) and the DSE
search memo (:mod:`repro.dse.engine`) are all instances of
:class:`Memo`: get-or-compute with *single flight* per key.
Concurrent callers of one key block on that key's lock and share one
computation; distinct keys never serialize against each other.  A
compute that raises stores nothing, so the next caller retries it.

Entries live until :meth:`Memo.clear`; every key a caller builds must
cover everything its value depends on.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")


class Memo:
    """Process-wide get-or-compute memo with per-key locks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict = {}
        self._key_locks: dict[Hashable, threading.Lock] = {}
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The value for ``key``, running ``compute`` once if absent."""
        with self._lock:
            if key in self._values:
                self._hits += 1
                return self._values[key]
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                if key in self._values:
                    self._hits += 1
                    return self._values[key]
            value = compute()
            with self._lock:
                self._misses += 1
                self._values[key] = value
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._values.clear()
            self._key_locks.clear()
            self._hits = 0
            self._misses = 0

    def info(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._values),
                "hits": self._hits,
                "misses": self._misses,
            }
