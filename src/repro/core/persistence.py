"""Cache-state snapshots: save and restore a simulated cache.

The paper's experiments all start cold ("all experiments are initiated
with an empty cache").  Snapshots enable the complementary studies: warm
starts (how much of the hit-rate curve is cold-start transient?),
checkpoint/restore of long simulations, and transplanting one workload's
cache state under another workload.

The snapshot format is plain JSON: a header (capacity, policy name,
counters) plus one record per entry with every field a removal policy can
consult.  Restoring rebuilds the eviction index from scratch, so snapshots
are portable across index implementations.

On-disk envelope (format 2): snapshots are written atomically via
:mod:`repro.durability` and wrapped with a checksum, so a crash mid-save
never leaves a half-written file and silent corruption is detected at
load time.  :func:`load_cache` reads nothing else: a file without the
envelope has no checksum to verify and is rejected.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.core.cache import SimCache
from repro.core.entry import CacheEntry
from repro.core.policy import RemovalPolicy
from repro.durability import atomic_write_text, checksum
from repro.trace.record import DocumentType

__all__ = ["snapshot_cache", "save_cache", "restore_cache", "load_cache"]

_FORMAT_VERSION = 1

#: On-disk envelope version: a checksummed wrapper around the format-1
#: snapshot dict, written atomically.
_FILE_FORMAT_VERSION = 2


def snapshot_cache(cache: SimCache) -> dict:
    """Capture a cache's state as a JSON-serialisable dict."""
    return {
        "format": _FORMAT_VERSION,
        "capacity": cache.capacity,
        "policy": cache.policy.name,
        "max_used_bytes": cache.max_used_bytes,
        "eviction_count": cache.eviction_count,
        "evicted_bytes": cache.evicted_bytes,
        "entries": [
            {
                "url": entry.url,
                "size": entry.size,
                "etime": entry.etime,
                "atime": entry.atime,
                "nref": entry.nref,
                "doc_type": entry.doc_type.value,
                "random_stamp": entry.random_stamp,
                "latency": entry.latency,
                "expires_at": entry.expires_at,
            }
            for entry in cache.entries()
        ],
    }


def save_cache(cache: SimCache, path: Union[str, Path]) -> Path:
    """Write a cache snapshot to a JSON file (atomic + checksummed)."""
    snapshot = snapshot_cache(cache)
    envelope = {
        "format": _FILE_FORMAT_VERSION,
        "checksum": checksum(snapshot),
        "snapshot": snapshot,
    }
    return atomic_write_text(
        path, json.dumps(envelope, sort_keys=True, indent=1) + "\n",
    )


def restore_cache(
    snapshot: dict,
    policy: Optional[RemovalPolicy] = None,
    seed: int = 0,
    use_heap_index: bool = True,
) -> SimCache:
    """Rebuild a cache from a snapshot.

    Args:
        snapshot: a dict produced by :func:`snapshot_cache`.
        policy: the removal policy for the restored cache; snapshots store
            only the policy *name*, so the object must be supplied when the
            restored cache should evict (optional for infinite caches).
        seed: tie-break seed for documents admitted after the restore
            (restored entries keep their recorded stamps).
        use_heap_index: eviction index choice for the restored cache.

    Raises:
        ValueError: on unknown snapshot format or inconsistent contents.
    """
    if snapshot.get("format") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot format {snapshot.get('format')!r}"
        )
    cache = SimCache(
        capacity=snapshot["capacity"],
        policy=policy,
        seed=seed,
        use_heap_index=use_heap_index,
    )
    total = 0
    for record in snapshot["entries"]:
        entry = CacheEntry(
            url=record["url"],
            size=record["size"],
            etime=record["etime"],
            atime=record["atime"],
            nref=record["nref"],
            doc_type=DocumentType(record["doc_type"]),
            random_stamp=record["random_stamp"],
            latency=record.get("latency", 0.0),
            expires_at=record.get("expires_at"),
        )
        if entry.url in cache._entries:
            raise ValueError(f"duplicate URL in snapshot: {entry.url}")
        cache._entries[entry.url] = entry
        total += entry.size
        if cache._index is not None:
            cache._index.add(entry)
    if cache.capacity is not None and total > cache.capacity:
        raise ValueError(
            f"snapshot holds {total} bytes, exceeding capacity "
            f"{cache.capacity}"
        )
    cache.used_bytes = total
    cache.max_used_bytes = max(snapshot.get("max_used_bytes", 0), total)
    cache.eviction_count = snapshot.get("eviction_count", 0)
    cache.evicted_bytes = snapshot.get("evicted_bytes", 0)
    return cache


def load_cache(
    path: Union[str, Path],
    policy: Optional[RemovalPolicy] = None,
    seed: int = 0,
) -> SimCache:
    """Read a snapshot file and rebuild the cache.

    The checksummed format-2 envelope is verified before restoring.

    Raises:
        ValueError: not a format-2 envelope, or a checksum mismatch
            (the file was torn or tampered with).
    """
    path = Path(path)
    document = json.loads(path.read_text(encoding="utf-8"))
    if (
        not isinstance(document, dict)
        or document.get("format") != _FILE_FORMAT_VERSION
    ):
        raise ValueError(f"{path}: not a checksummed snapshot envelope")
    snapshot = document.get("snapshot")
    if document.get("checksum") != checksum(snapshot):
        raise ValueError(f"{path}: snapshot checksum mismatch")
    return restore_cache(snapshot, policy=policy, seed=seed)
