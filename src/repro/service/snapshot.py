"""Immutable, content-hashed dataset snapshots for the serving engine.

A :class:`DatasetSnapshot` pins down *one version* of a user/facility
population: the wrapped :class:`~repro.entities.SpatialDataset`, whose
position arena is the CSR packing the batched verification kernel
reads.  The content hash covers every coordinate and id in the
dataset, so two snapshots with equal hashes are interchangeable for any
query — which is exactly the property the engine's caches key on: a
republished population gets a new hash, and entries computed under the
old one can never be served against it.

Supersession is explicit: when the engine publishes a successor, the old
snapshot is marked superseded and its cache entries are dropped.  The
:meth:`DatasetSnapshot.from_streaming` bridge turns a live
:class:`~repro.streaming.StreamingMC2LS` session into a publishable
version (the session's event counter becomes the snapshot version) and
drains the session's :class:`~repro.streaming.DeltaLog` into the
snapshot's ``delta`` attribute — the hook that lets the engine patch
cached :class:`~repro.service.PreparedInstance`\\ s instead of
re-resolving them when the population churns.
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..entities import SpatialDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..streaming import DeltaLog, StreamingMC2LS


#: Users packed per ``update`` of the content hash (a buffer of ~150 KB at
#: the C-like mean of ~38 positions per user; smaller chunks hashed
#: faster than 1024-user ones on a 2-core x86 host).
_HASH_CHUNK_USERS = 256


def dataset_content_hash(dataset: SpatialDataset) -> str:
    """Deterministic SHA-256 over every id and coordinate in the dataset.

    Users are hashed in dataset order with their full position history;
    facilities and candidates with their id and location.  Any mutation
    that could change an influence relationship changes the hash.

    The user part is the byte stream ``uid (int64) ‖ positions (float64,
    row-major)`` per user, in dataset order.  It is packed off the
    dataset's position arena in buffers of :data:`_HASH_CHUNK_USERS`
    users, one ``update`` per buffer.
    """
    h = hashlib.sha256()
    arena = dataset.arena
    uids = arena.uids.view(np.uint64)
    words = arena.positions.view(np.uint64)
    offsets = arena.offsets
    for a in range(0, len(arena), _HASH_CHUNK_USERS):
        b = min(a + _HASH_CHUNK_USERS, len(arena))
        lo, hi = int(offsets[a]), int(offsets[b])
        # Each user is one uid word followed by its 2·r coordinate words.
        uid_at = np.arange(b - a) + 2 * (offsets[a:b] - lo)
        buf = np.empty(b - a + 2 * (hi - lo), dtype=np.uint64)
        is_coord = np.ones(buf.size, dtype=bool)
        is_coord[uid_at] = False
        buf[uid_at] = uids[a:b]
        buf[is_coord] = words[lo:hi].reshape(-1)
        h.update(memoryview(buf))
    for tag, group in ((b"F", dataset.facilities), (b"C", dataset.candidates)):
        for v in group:
            h.update(tag)
            h.update(np.int64(v.fid).tobytes())
            h.update(np.float64(v.x).tobytes())
            h.update(np.float64(v.y).tobytes())
    return h.hexdigest()


class DatasetSnapshot:
    """One immutable, identifiable version of a serving population.

    Args:
        dataset: The wrapped problem instance.
        version: Monotone version number (assigned by the engine at
            publication when left at 0).
        label: Human-readable tag for logs and stats.

    The content hash is computed at construction, so its cost is paid
    once at publication rather than inside the first query.
    """

    def __init__(
        self, dataset: SpatialDataset, version: int = 0, label: str = ""
    ) -> None:
        self.dataset = dataset
        self.version = version
        self.label = label or dataset.name
        # The CSR position arena every resolve reads; the hash packs it too.
        self.arena = dataset.arena
        self.content_hash = dataset_content_hash(dataset)
        #: Churn relative to the previous snapshot of the same streaming
        #: session (set by :meth:`from_streaming`); ``None`` for batch
        #: snapshots and first publications.
        self.delta: Optional["DeltaLog"] = None
        self._superseded = threading.Event()

    # ------------------------------------------------------------------
    @property
    def superseded(self) -> bool:
        """Whether a newer snapshot has replaced this one."""
        return self._superseded.is_set()

    def supersede(self) -> None:
        """Mark this snapshot as replaced (idempotent, thread-safe)."""
        self._superseded.set()

    # ------------------------------------------------------------------
    @classmethod
    def from_streaming(
        cls,
        session: "StreamingMC2LS",
        version: Optional[int] = None,
        label: str = "",
    ) -> "DatasetSnapshot":
        """Publish the current state of a streaming session.

        The surviving population is materialised through
        ``session.current_dataset()``; the session's ``events_processed``
        counter supplies the version unless one is given, so successive
        publications from the same session are naturally ordered.  The
        session's delta log is drained against the new content hash and
        attached as ``snapshot.delta``, chaining successive snapshots for
        incremental prepared-instance maintenance.
        """
        snap = cls(
            session.current_dataset(),
            version=session.events_processed if version is None else version,
            label=label or "streaming",
        )
        snap.delta = session.drain_delta(snap.content_hash)
        return snap

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line summary used in engine stats and the CLI."""
        return (
            f"snapshot v{self.version} [{self.content_hash[:12]}] "
            f"{self.dataset.describe()}"
        )

    def __repr__(self) -> str:
        return (
            f"DatasetSnapshot(version={self.version}, "
            f"hash={self.content_hash[:12]}, label={self.label!r})"
        )
