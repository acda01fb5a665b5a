"""Immutable, content-hashed dataset snapshots for the serving engine.

A :class:`DatasetSnapshot` pins down *one version* of a user/facility
population (a :class:`~repro.entities.SpatialDataset`).  Its content
hash covers every coordinate and id, so two snapshots with equal hashes
are interchangeable for any query — the property the engine's caches key
on: a republished population gets a new hash, and entries computed under
the old one can never be served against it.  The hash reads the position
arena's per-user digests, so republishing a churned population re-hashes
only its churn.

Supersession is explicit: when the engine publishes a successor, the old
snapshot is marked superseded and its cache entries are dropped.
:meth:`DatasetSnapshot.from_streaming` publishes a live
:class:`~repro.streaming.StreamingMC2LS` session with its drained
:class:`~repro.streaming.DeltaLog` as ``delta``, which lets the engine
patch cached :class:`~repro.service.PreparedInstance`\\ s instead of
re-resolving them.
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..entities import SpatialDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..streaming import DeltaLog, StreamingMC2LS


#: Names the byte layout of :func:`dataset_content_hash` (stores key by it).
DIGEST_FORMAT = "row-sha256"


def dataset_content_hash(dataset: SpatialDataset) -> str:
    """Deterministic SHA-256 over every id and coordinate in the dataset.

    Any change to a uid, a position (including the sign of a zero) or a
    site changes the hash.  The hashed bytes are ``|Ω|, |F|, |C|`` (int64);
    the arena's per-user :attr:`~repro.influence.PositionArena.digests`
    (SHA-256 of ``uid (int64) ‖ positions (float64, row-major)``) in
    dataset order; then the facility ids (int64) and ``(x, y)`` (float64),
    then the candidates'.  Only a spliced arena's new users are hashed anew.
    """
    groups = (dataset.facilities, dataset.candidates)
    h = hashlib.sha256(np.array([len(dataset.arena)] + [len(g) for g in groups], dtype=np.int64))
    h.update(dataset.arena.digests)
    for group in groups:
        h.update(np.array([v.fid for v in group], dtype=np.int64))
        h.update(np.array([(v.x, v.y) for v in group], dtype=np.float64))
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
        # The CSR position arena every resolve reads (and the hash too).
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
