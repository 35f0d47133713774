"""Persistent, content-addressed measurement cache.

One entry per (kernel, target, vectorizer, jitter, seed) cell, keyed
by :func:`~repro.pipeline.fingerprint.measurement_fingerprint` and
stored as a pickle under ``<root>/<fp[:2]>/<fp>.pkl``.  The cache is
strictly an accelerator: a corrupt, truncated, or mismatched entry is
deleted and recomputed, never raised, so deleting files (or the whole
directory) at any time is always safe.

Configuration:

* ``REPRO_CACHE_DIR`` — cache root (default ``~/.cache/repro-vec``,
  honoring ``XDG_CACHE_HOME``);
* ``--no-cache`` (``configure(cache_enabled=False)``) — bypass
  entirely: no reads, no writes, no stat counting.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .fingerprint import PIPELINE_SCHEMA_VERSION

#: Sentinel returned by :meth:`MeasurementCache.get` on a miss —
#: distinguishes "not cached" from a legitimately-``None`` payload.
MISS = object()


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    base = Path(os.environ.get("XDG_CACHE_HOME") or "~/.cache").expanduser()
    return base / "repro-vec"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    write_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "write_errors": self.write_errors,
        }

    def __str__(self) -> str:
        return (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.corrupt} corrupt, "
            f"{self.write_errors} write errors"
        )


@dataclass
class MeasurementCache:
    """On-disk cache of per-kernel measurement results."""

    root: Path = field(default_factory=default_cache_dir)
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- paths ---------------------------------------------------------------

    def _path(self, fp: str) -> Path:
        return self.root / fp[:2] / f"{fp}.pkl"

    # -- operations ----------------------------------------------------------

    def get(self, fp: str):
        """Payload for ``fp``, or the :data:`MISS` sentinel.

        Any load problem — unreadable file, truncated pickle, schema or
        fingerprint mismatch — deletes the entry and reports a miss.
        """
        if not self.enabled:
            return MISS
        path = self._path(fp)
        try:
            with open(path, "rb") as f:
                entry = pickle.load(f)
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != PIPELINE_SCHEMA_VERSION
                or entry.get("fingerprint") != fp
            ):
                raise ValueError("cache entry does not match its key")
            payload = entry["payload"]
        except OSError:
            # Missing entry or unreachable cache dir: a plain miss, not
            # a corrupt entry.
            self.stats.misses += 1
            return MISS
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return MISS
        self.stats.hits += 1
        return payload

    def put(self, fp: str, payload) -> None:
        """Store ``payload`` atomically (unique tmp file + rename).

        A failed write — unwritable directory, full disk, a rename
        that loses a race with a permission change — degrades to a
        cold build and counts in ``stats.write_errors``; the temp file
        is unlinked on every failure path so no orphan accumulates.
        """
        if not self.enabled:
            return
        path = self._path(fp)
        entry = {
            "schema": PIPELINE_SCHEMA_VERSION,
            "fingerprint": fp,
            "payload": payload,
        }
        tmp_name: Optional[str] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tempfile.NamedTemporaryFile(
                mode="wb",
                dir=path.parent,
                prefix=f".{path.name}.",
                suffix=".tmp",
                delete=False,
            ) as f:
                tmp_name = f.name
                pickle.dump(entry, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
            tmp_name = None  # renamed away: nothing to clean up
        except OSError:
            self.stats.write_errors += 1
            return
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))


_DEFAULT: Optional[MeasurementCache] = None


def default_cache() -> MeasurementCache:
    """Process-wide cache rooted at :func:`default_cache_dir`."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MeasurementCache(root=default_cache_dir())
    return _DEFAULT


def set_default_cache(cache: Optional[MeasurementCache]) -> None:
    """Override (or with ``None``, reset) the process-wide cache."""
    global _DEFAULT
    _DEFAULT = cache
