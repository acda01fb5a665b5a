"""Incremental MC²LS over a streaming user population.

Check-in populations are not static: users appear, accumulate positions
and churn away.  The session keeps one resolved influence table and
brings it up to date *lazily*:

* **population**: the position arena of the last ``current_dataset``
  (ascending uids) plus the events since (uid → new user, or removed);
  ``current_dataset`` splices only those rows, so a publish does no
  Python work for the untouched users;
* **events** (``add_user``, ``remove_user``, ``update_user``) only
  record the user and mark its uid — no influence work;
* **reads** (``table``, ``current_selection``) first bring the table up
  to date.  The first read resolves every user against every site in
  one :func:`~repro.pruning.prune_and_verify` call; later reads patch it
  with one :func:`~repro.solvers.patch_resolution` call over the uids
  marked since the last read.  Influence is decided per ``(facility,
  user)`` pair, so churn in one user changes only that user's row;
* **selection** runs the greedy on the patched table; it is the cheap
  phase (Fig. 14), so recomputing it per query keeps the ``(1 − 1/e)``
  guarantee at every instant.

The session is equivalent, after any event sequence, to solving the
batch problem on the surviving population — the invariant the test suite
checks, including under property-based random event streams.

For the serving engine the session additionally maintains a
:class:`DeltaLog`: the net set of users added, removed and re-positioned
since the last published snapshot.  ``snapshot()`` drains the log and
attaches it to the returned snapshot, which lets
:meth:`repro.service.PreparedInstance.patched` splice only the dirty
rows of a cached influence table instead of re-resolving every user.
Events that raise (duplicate or unknown uid) leave the log — like every
other piece of session state — untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..competition import InfluenceTable
from ..entities import AbstractFacility, MovingUser, SpatialDataset
from ..exceptions import SolverError
from ..influence import (
    BatchInfluenceEvaluator,
    PositionArena,
    ProbabilityFunction,
    paper_default_pf,
)
from ..pruning import prune_and_verify
from ..solvers import GreedyOutcome, ResolvedInstance, patch_resolution, run_selection
from ..solvers.base import pair_table, site_coords


@dataclass(frozen=True)
class DeltaLog:
    """Net user churn between two consecutive session snapshots.

    The three uid tuples are disjoint and describe the *net* effect of
    every event since the parent snapshot (add-then-remove collapses to
    nothing, remove-then-re-add to ``updated``, and so on):

    Attributes:
        parent_hash: Content hash of the snapshot this delta is relative
            to, or ``None`` when no snapshot preceded it (a patch is
            impossible; consumers must fall back to a full resolve).
        added: Uids present now that were absent at the parent.
        removed: Uids absent now that were present at the parent.
        updated: Uids present at both ends whose position history may
            have changed (re-verification decides their rows afresh).
    """

    parent_hash: Optional[str]
    added: Tuple[int, ...] = ()
    removed: Tuple[int, ...] = ()
    updated: Tuple[int, ...] = ()

    @property
    def dirty(self) -> Tuple[int, ...]:
        """Uids whose influence rows must be re-verified (added ∪ updated)."""
        return tuple(sorted(set(self.added) | set(self.updated)))

    @property
    def doomed(self) -> Tuple[int, ...]:
        """Uids whose old rows must be dropped (removed ∪ updated)."""
        return tuple(sorted(set(self.removed) | set(self.updated)))

    def __len__(self) -> int:
        return len(self.added) + len(self.removed) + len(self.updated)


class StreamingMC2LS:
    """A live MC²LS session over fixed facilities and a streaming user set.

    Args:
        facilities: Existing competitor facilities (fixed for the session).
        candidates: Candidate sites (fixed for the session).
        k: Selection budget.
        tau: Influence threshold.
        pf: Distance-decay probability function (paper default when
            ``None``).

    The session's first read resolves every user against every site
    through the prune-then-verify pipeline (full-scan counters); each
    later read after events re-resolves the touched users with the
    serving engine's patch (early-stop counter model).  A session that
    is only published (``current_dataset`` and the delta log) never
    resolves.
    """

    def __init__(
        self,
        facilities: Tuple[AbstractFacility, ...],
        candidates: Tuple[AbstractFacility, ...],
        k: int,
        tau: float = 0.7,
        pf: Optional[ProbabilityFunction] = None,
    ):
        if k < 1 or k > len(candidates):
            raise SolverError(f"k={k} infeasible for {len(candidates)} candidates")
        self.k = k
        self.tau = tau
        self.pf = pf or paper_default_pf()
        self.facilities = tuple(facilities)
        self.candidates = tuple(candidates)
        self.events_processed = 0
        # The last ``current_dataset`` (arena in ascending uid order), the
        # events since (uid -> new user, ``None`` when removed), and |Ω|.
        self._dataset: Optional[SpatialDataset] = None
        self._pending: Dict[int, Optional[MovingUser]] = {}
        self._count = 0
        # Net churn since the last drained snapshot: uid -> "added" |
        # "removed" | "updated" (collapsed per the DeltaLog semantics).
        self._dirty: Dict[int, str] = {}
        self._parent_hash: Optional[str] = None
        # The resolution as of the last read (``None`` before the first),
        # and the uids whose rows it may have wrong since then.
        self._resolved: Optional[ResolvedInstance] = None
        self._touched: Set[int] = set()

    def _empty_resolution(self) -> ResolvedInstance:
        return ResolvedInstance(
            InfluenceTable({c.fid: set() for c in self.candidates}, {}), None
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def _base_row(self, uid: int) -> int:
        """Row of ``uid`` in the last dataset's arena, ``-1`` if absent."""
        if self._dataset is None:
            return -1
        uids = self._dataset.arena.uids
        row = int(np.searchsorted(uids, uid))
        return row if row < uids.size and uids[row] == uid else -1

    def __contains__(self, uid: int) -> bool:
        if uid in self._pending:
            return self._pending[uid] is not None
        return self._base_row(uid) >= 0

    def uids(self) -> np.ndarray:
        """The ids of the live users, ascending (a fresh ``int64`` array)."""
        base = np.empty(0, np.int64) if self._dataset is None else self._dataset.arena.uids
        pending = np.fromiter(self._pending, dtype=np.int64, count=len(self._pending))
        kept = base[~np.isin(base, pending)]
        live = np.sort(pending[[user is not None for user in self._pending.values()]])
        return np.insert(kept, np.searchsorted(kept, live), live)

    def user(self, uid: int) -> MovingUser:
        """The live user ``uid``; raises ``SolverError`` when absent."""
        uid = int(uid)
        row = -1 if uid in self._pending else self._base_row(uid)
        user = self._pending.get(uid) if row < 0 else MovingUser(uid, self._dataset.arena.row(row))
        if user is None:
            raise SolverError(f"user {uid} not present")
        return user

    def table(self) -> InfluenceTable:
        """The influence relationships of the live population.

        The first read resolves every user; later ones patch the cached
        table over the uids touched since the last read.  Patches are
        copy-on-write, so a table returned earlier stays a valid
        snapshot of its moment; treat it as read-only.  If the resolve
        or patch raises, the cache and the touched uids are left as they
        were and the next read retries.
        """
        if not self._count:
            self._resolved = self._empty_resolution()
            self._touched.clear()
        elif self._resolved is None:
            self._resolved = self._resolve_all()
            self._touched.clear()
        elif self._touched:
            present = tuple(sorted(u for u in self._touched if u in self))
            absent = tuple(sorted(u for u in self._touched if u not in self))
            self._resolved, _ = patch_resolution(
                self._resolved, self.current_dataset(), present, absent,
                self.tau, self.pf,
            )
            self._touched.clear()
        return self._resolved.table

    def _resolve_all(self) -> ResolvedInstance:
        """Every user against every site, by prune-then-verify."""
        dataset = self.current_dataset()
        arena = dataset.arena
        batch = BatchInfluenceEvaluator(self.pf, self.tau, early_stopping=False)
        keys, pruning = prune_and_verify(
            arena, np.arange(len(arena)),
            *site_coords(dataset.abstract_facilities), batch,
        )
        split = len(dataset.candidates) * len(arena)
        c_end = int(np.searchsorted(keys, split))
        table = pair_table(dataset, keys[:c_end], keys[c_end:] - split)
        return ResolvedInstance(table, batch, pruning)

    def pending_delta(self) -> DeltaLog:
        """The churn accumulated since the last drained snapshot (a view;
        the log keeps accumulating)."""
        return DeltaLog(
            parent_hash=self._parent_hash,
            added=tuple(sorted(u for u, s in self._dirty.items() if s == "added")),
            removed=tuple(sorted(u for u, s in self._dirty.items() if s == "removed")),
            updated=tuple(sorted(u for u, s in self._dirty.items() if s == "updated")),
        )

    def drain_delta(self, content_hash: str) -> DeltaLog:
        """Seal the accumulated churn against a newly published snapshot.

        Returns the delta relative to the *previous* snapshot mark, then
        advances the mark to ``content_hash`` and clears the log, so the
        next drain describes churn relative to this publication.  Called
        by :meth:`repro.service.DatasetSnapshot.from_streaming`.
        """
        delta = self.pending_delta()
        self._parent_hash = content_hash
        self._dirty.clear()
        return delta

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _record(self, uid: int, user: Optional[MovingUser]) -> None:
        self._pending[uid] = user
        self._touched.add(uid)
        self.events_processed += 1

    def add_user(self, user: MovingUser) -> None:
        """Process an arrival."""
        if user.uid in self:
            raise SolverError(f"user {user.uid} already present")
        self._count += 1
        # Delta collapse: a user removed since the mark re-appearing means
        # "present at both ends, history suspect" — i.e. updated.
        if self._dirty.get(user.uid) == "removed":
            self._dirty[user.uid] = "updated"
        else:
            self._dirty[user.uid] = "added"
        self._record(user.uid, user)

    def remove_user(self, uid: int) -> MovingUser:
        """Process a departure; returns the removed user."""
        uid = int(uid)
        user = self.user(uid)
        self._count -= 1
        # Delta collapse: a user added since the mark and removed again
        # nets out to nothing relative to the parent snapshot.
        if self._dirty.get(uid) == "added":
            del self._dirty[uid]
        else:
            self._dirty[uid] = "removed"
        self._record(uid, None)
        return user

    def update_user(self, user: MovingUser) -> None:
        """Replace the position history of a present user (one event)."""
        if user.uid not in self:
            raise SolverError(f"user {user.uid} not present")
        # A user added since the mark stays "added"; otherwise its
        # history changed under the parent snapshot.
        if self._dirty.get(user.uid) != "added":
            self._dirty[user.uid] = "updated"
        self._record(user.uid, user)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def current_selection(self) -> GreedyOutcome:
        """Greedy ``k``-selection over the live population."""
        return run_selection(
            self.table(), [c.fid for c in self.candidates], self.k
        )

    def current_dataset(self) -> SpatialDataset:
        """The surviving population as a batch dataset, users in uid order.

        The position arena is spliced from the previous call's
        (:meth:`~repro.influence.PositionArena.spliced`): untouched rows
        are kept by slice and only the users with an event since are
        packed, so a publish does ``O(churn)`` Python work.  It equals
        :meth:`~repro.influence.PositionArena.from_users` bit for bit.
        With no event since the previous call, that dataset is returned.
        """
        if not self._count:
            raise SolverError("no users in the session")
        if self._dataset is not None and not self._pending:
            return self._dataset
        stale = sorted(self._pending)
        users = [self._pending[u] for u in stale if self._pending[u] is not None]
        if self._dataset is None:
            arena = PositionArena.from_users(users)
        else:
            arena = self._dataset.arena.spliced(stale, users)
        self._dataset = SpatialDataset(
            arena, self.facilities, self.candidates, "streaming-snapshot"
        )
        self._pending.clear()
        return self._dataset

    def snapshot(self, label: str = ""):
        """Publish the current population as a serving-engine snapshot.

        Returns a :class:`~repro.service.DatasetSnapshot` of the
        surviving users, versioned by ``events_processed`` — hand it to
        :meth:`~repro.service.SelectionEngine.publish` (or call
        ``engine.publish_streaming(session)`` directly) after a batch of
        events to make the new population queryable.  Imported lazily to
        keep the streaming module importable without the service layer.
        """
        from ..service import DatasetSnapshot

        return DatasetSnapshot.from_streaming(self, label=label)

    @staticmethod
    def from_dataset(dataset: SpatialDataset, k: int, tau: float = 0.7,
                     pf: Optional[ProbabilityFunction] = None) -> "StreamingMC2LS":
        """Bootstrap a session pre-loaded with a dataset's users.

        Every user counts as one arrival in the event count and the
        delta log.  Nothing is resolved here: the first :meth:`table`
        read resolves every user against every site, so each user gets
        its full ``F_o``.
        """
        session = StreamingMC2LS(
            dataset.facilities, dataset.candidates, k=k, tau=tau, pf=pf
        )
        arena = dataset.arena
        if not np.all(arena.uids[1:] > arena.uids[:-1]):
            arena = arena.take(np.argsort(arena.uids, kind="stable"))
        session._dataset = SpatialDataset(
            arena, session.facilities, session.candidates, "streaming-snapshot"
        )
        session._count = len(arena)
        session.events_processed = len(arena)
        session._dirty = dict.fromkeys(arena.uids.tolist(), "added")
        return session
