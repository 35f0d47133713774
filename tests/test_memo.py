"""The shared single-flight memo (repro.memo)."""

import sys
import threading

import pytest

from repro.memo import Memo


def test_concurrent_callers_of_one_key_compute_once():
    memo = Memo()
    calls = []
    start = threading.Barrier(8)
    release = threading.Event()

    def compute():
        calls.append(1)
        release.wait(5.0)  # hold the key while every other caller queues
        return object()

    results = [None] * 8

    def caller(i):
        start.wait(5.0)
        results[i] = memo.get("k", compute)

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    release.set()
    for t in threads:
        t.join(5.0)
        assert not t.is_alive()
    assert len(calls) == 1
    assert all(r is results[0] for r in results)
    assert memo.info() == {"entries": 1, "hits": 7, "misses": 1}


def test_distinct_keys_do_not_serialize():
    memo = Memo()
    inside_a = threading.Event()
    b_done = threading.Event()

    def compute_a():
        inside_a.set()
        # Only returns once key "b" was computed while "a" is in flight.
        assert b_done.wait(5.0), "key b blocked behind key a"
        return "a"

    t = threading.Thread(target=lambda: memo.get("a", compute_a))
    t.start()
    assert inside_a.wait(5.0)
    assert memo.get("b", lambda: "b") == "b"
    b_done.set()
    t.join(5.0)
    assert not t.is_alive()
    assert memo.get("a", lambda: "recomputed") == "a"


def test_stress_many_threads_many_keys():
    """Every key computed exactly once; no hit or miss lost."""
    memo = Memo()
    computed = []
    lock = threading.Lock()
    n_threads, n_keys, rounds = 16, 8, 50

    def compute(key):
        with lock:
            computed.append(key)
        return key * 10

    def worker(seed):
        for r in range(rounds):
            key = (seed + r) % n_keys
            assert memo.get(key, lambda: compute(key)) == key * 10

    prior = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(prior)
    assert sorted(computed) == list(range(n_keys))
    info = memo.info()
    assert info["misses"] == n_keys
    assert info["hits"] + info["misses"] == n_threads * rounds


def test_failed_compute_stores_nothing_and_is_retried():
    memo = Memo()

    def boom():
        raise RuntimeError("transient")

    with pytest.raises(RuntimeError):
        memo.get("k", boom)
    assert memo.info()["entries"] == 0
    assert memo.get("k", lambda: 42) == 42
    assert memo.get("k", boom) == 42  # now served, compute not called


def test_clear_resets_entries_and_counters():
    memo = Memo()
    memo.get("k", lambda: 1)
    memo.get("k", lambda: 2)
    assert memo.info() == {"entries": 1, "hits": 1, "misses": 1}
    memo.clear()
    assert memo.info() == {"entries": 0, "hits": 0, "misses": 0}
    assert memo.get("k", lambda: 3) == 3
