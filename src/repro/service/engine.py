"""The in-process query-serving engine.

:class:`SelectionEngine` answers repeated MC²LS selection queries against
one published :class:`~repro.service.DatasetSnapshot`:

1. **Result cache** — a selection already computed for the same
   ``(snapshot, PF, τ, capture, k, candidate mask)`` is returned
   directly.
2. **Prepared-instance cache** — otherwise the engine fetches (or
   resolves) the :class:`~repro.service.PreparedInstance` for
   ``(snapshot, PF, τ)`` and runs only the cheap greedy phase with the
   query's ``k``, mask and capture model; every capture model shares
   the one table.
3. **Scheduler** — :meth:`SelectionEngine.submit` executes queries on a
   bounded thread pool with admission control and per-query deadlines;
   the deadline probe is threaded into every greedy round.

Cache keys always lead with the snapshot content hash — a republished
population gets a new hash, making stale service impossible by
construction; supersession additionally sweeps the old hash's entries
out of both caches.

Every result carries :class:`QueryStats`: where it came from (cache
provenance), what this query cost (phase timings, CELF refreshes), and
which snapshot version served it.  A prepared instance's verification
counters are its own, not a query's: they stay on
``PreparedInstance.resolved.evaluation``, and no serving call reads them,
so no query or republish pays for the early-stop model behind them.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from ..capture import CaptureSpec
from ..entities import SpatialDataset
from ..exceptions import ServiceError, SolverError
from ..influence import (
    ProbabilityFunction,
    paper_default_pf,
    pf_from_dict,
    pf_to_dict,
)
from .cache import LRUCache
from .prepared import _EVENLY_SPLIT, PreparedInstance
from .scheduler import CancelToken, QueryHandle, QueryScheduler
from .snapshot import DatasetSnapshot

#: Churn fraction (delta events over serving population) above which the
#: engine republish stops migrating prepared instances and falls back to
#: plain invalidation — a mostly-new population re-resolves about as fast
#: as it patches, and eager migration of instances that may never be
#: queried again is pure waste at that point.
_MIGRATE_FRACTION = 0.5


@dataclass(frozen=True)
class SelectionQuery:
    """One what-if selection request against the published snapshot.

    Attributes:
        k: Number of locations to select.
        tau: Influence threshold.
        pf: Probability function (paper default when ``None``).
        candidate_ids: Optional candidate mask — select only from this
            subset of the snapshot's candidates.
        deadline_s: Cooperative deadline in seconds, measured from
            submission; ``None`` disables it.
        use_cache: Look up / populate the engine caches (disable for
            benchmarking cold paths).
        capture: Customer-choice capture model spec
            (:class:`~repro.capture.CaptureSpec`); ``None`` becomes the
            paper's evenly-split spec.  The spec's cache key joins the
            result-cache key, so queries share cached selections exactly
            when their capture semantics are identical; the prepared
            table is shared by every capture model.
    """

    k: int
    tau: float = 0.7
    pf: Optional[ProbabilityFunction] = None
    candidate_ids: Optional[Tuple[int, ...]] = None
    deadline_s: Optional[float] = None
    use_cache: bool = True
    capture: Optional[CaptureSpec] = None

    def __post_init__(self) -> None:
        if self.capture is None:
            object.__setattr__(self, "capture", _EVENLY_SPLIT)
        if self.candidate_ids is not None:
            object.__setattr__(
                self,
                "candidate_ids",
                tuple(sorted(set(int(c) for c in self.candidate_ids))),
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-portable form of this query (trace journaling).

        Round-trips through :meth:`from_dict` to an equal query —
        including the engine cache keys it produces — so a replayed
        trace exercises exactly the cache behaviour it recorded.  A
        custom :class:`~repro.influence.ProbabilityFunction` outside the
        provided families is not portable and raises.
        """
        return {
            "k": self.k,
            "tau": self.tau,
            "pf": None if self.pf is None else pf_to_dict(self.pf),
            "candidate_ids": (
                None if self.candidate_ids is None else list(self.candidate_ids)
            ),
            "deadline_s": self.deadline_s,
            "use_cache": self.use_cache,
            "capture": asdict(self.capture),
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "SelectionQuery":
        """Rebuild a query serialised by :meth:`as_dict`.

        Fields are read by name, so keys this version no longer knows
        (such as the retired kernel toggles and ``solver`` recorded by
        older traces) are ignored.
        """
        pf_spec = spec.get("pf")
        capture_spec = spec.get("capture")
        candidate_ids = spec.get("candidate_ids")
        return cls(
            k=int(spec["k"]),
            tau=float(spec.get("tau", 0.7)),
            pf=None if pf_spec is None else pf_from_dict(pf_spec),
            candidate_ids=(
                None if candidate_ids is None else tuple(candidate_ids)
            ),
            deadline_s=spec.get("deadline_s"),
            use_cache=bool(spec.get("use_cache", True)),
            capture=(
                None if capture_spec is None else CaptureSpec(**capture_spec)
            ),
        )


@dataclass(frozen=True)
class QueryStats:
    """Provenance and cost accounting for one served query.

    ``prepare_seconds`` is the resolve this query paid for: the prepared
    instance's resolve time when this query built it (``prepared_cache``
    ``"miss"`` or ``"bypass"``), else 0.0.  ``selection_evaluations`` is
    the CELF run's cumulative refresh count at round ``k``: what a fresh
    ``k``-selection costs, not the work this query did — a query
    answered as a prefix of a matrix's run did none.  A result-cache hit
    reports 0 for both.
    """

    snapshot_hash: str
    snapshot_version: int
    k: int
    tau: float
    result_cache: str  # "hit" | "miss" | "bypass"
    prepared_cache: str  # "hit" | "miss" | "bypass" | "skip"
    prepare_seconds: float
    select_seconds: float
    total_seconds: float
    selection_evaluations: int

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON reports and the CLI."""
        return {
            "snapshot_hash": self.snapshot_hash[:12],
            "snapshot_version": self.snapshot_version,
            "k": self.k,
            "tau": self.tau,
            "result_cache": self.result_cache,
            "prepared_cache": self.prepared_cache,
            "prepare_seconds": self.prepare_seconds,
            "select_seconds": self.select_seconds,
            "total_seconds": self.total_seconds,
            "selection_evaluations": self.selection_evaluations,
        }


@dataclass(frozen=True)
class QueryResult:
    """A served selection plus its provenance.

    ``selected`` / ``objective`` / ``gains`` are bit-identical to the
    corresponding direct ``IQTSolver().solve`` call on the snapshot's dataset
    (candidate-restricted when the query carried a mask).
    """

    selected: Tuple[int, ...]
    objective: float
    gains: Tuple[float, ...]
    stats: QueryStats = field(compare=False)


class SelectionEngine:
    """Serve selection queries against published dataset snapshots.

    Args:
        snapshot: Initial population (a snapshot or a bare dataset);
            may also be published later.
        max_workers: Scheduler thread count.
        max_queued: Admission-control bound on in-flight queries.
        prepared_cache_size: LRU bound for prepared instances (each holds
            a full influence table — keep this small).
        result_cache_size: LRU bound for final selections (cheap entries).

    Cached prepared instances migrate across streaming republishes by
    delta-patching (:meth:`~repro.service.PreparedInstance.patched`)
    rather than being dropped.
    """

    def __init__(
        self,
        snapshot: Optional[Any] = None,
        *,
        max_workers: int = 4,
        max_queued: int = 64,
        prepared_cache_size: int = 16,
        result_cache_size: int = 4096,
    ) -> None:
        self._prepared = LRUCache(prepared_cache_size)
        self._results = LRUCache(result_cache_size)
        self._scheduler = QueryScheduler(max_workers, max_queued)
        self._snapshot: Optional[DatasetSnapshot] = None
        self._patched = 0
        self._patch_skipped = 0
        self._patch_failed = 0
        if snapshot is not None:
            self.publish(snapshot)

    # ------------------------------------------------------------------
    # Snapshot lifecycle
    # ------------------------------------------------------------------
    def publish(self, snapshot: Any) -> DatasetSnapshot:
        """Install a new population version; supersede the previous one.

        Accepts a :class:`DatasetSnapshot` or a bare
        :class:`~repro.entities.SpatialDataset` (wrapped on the fly).
        The superseded snapshot's cache entries are invalidated unless
        the content hash is unchanged (republishing identical data keeps
        the warm caches — they are still correct).
        """
        if isinstance(snapshot, SpatialDataset):
            snapshot = DatasetSnapshot(snapshot)
        if not isinstance(snapshot, DatasetSnapshot):
            raise ServiceError(
                f"cannot publish {type(snapshot).__name__}; expected a "
                "DatasetSnapshot or SpatialDataset"
            )
        old = self._snapshot
        if snapshot.version == 0:
            snapshot.version = old.version + 1 if old is not None else 1
        self._snapshot = snapshot
        if old is not None:
            old.supersede()
            if old.content_hash != snapshot.content_hash:
                self._migrate_prepared(old, snapshot)
                self._prepared.invalidate_snapshot(old.content_hash)
                self._results.invalidate_snapshot(old.content_hash)
        return snapshot

    def _migrate_prepared(
        self, old: DatasetSnapshot, snapshot: DatasetSnapshot
    ) -> None:
        """Delta-patch the old snapshot's prepared instances onto the new.

        Runs just before the old hash's entries are swept: each prepared
        instance whose key chains to the new snapshot's delta is spliced
        via :meth:`~repro.service.PreparedInstance.patched` and inserted
        under the new content hash, so the first query after a streaming
        republish pays dirty-row work instead of a full re-resolve.
        Skipped entirely when the delta is missing or chains elsewhere,
        or churn exceeds
        :data:`_MIGRATE_FRACTION` of the new population.
        """
        delta = snapshot.delta
        entries = self._prepared.entries_for(old.content_hash)
        if not entries:
            return
        n_users = len(snapshot.arena)
        if (
            delta is None
            or delta.parent_hash != old.content_hash
            or (n_users and len(delta) > _MIGRATE_FRACTION * n_users)
        ):
            self._patch_skipped += len(entries)
            return
        for key, inst in entries:
            try:
                patched = PreparedInstance.patched(inst, snapshot)
            except (ServiceError, SolverError):
                self._patch_failed += 1
                continue
            self._prepared.put((snapshot.content_hash,) + key[1:], patched)
            self._patched += 1

    def publish_streaming(self, session: Any) -> DatasetSnapshot:
        """Publish the current state of a :class:`StreamingMC2LS` session."""
        return self.publish(DatasetSnapshot.from_streaming(session))

    def snapshot(self) -> DatasetSnapshot:
        """The currently published snapshot."""
        if self._snapshot is None:
            raise ServiceError("no snapshot published")
        return self._snapshot

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _validate(self, query: SelectionQuery, snapshot: DatasetSnapshot) -> None:
        if not 0.0 < query.tau < 1.0:
            raise SolverError(f"tau must be in (0, 1), got {query.tau}")
        n = (
            len(query.candidate_ids)
            if query.candidate_ids is not None
            else len(snapshot.dataset.candidates)
        )
        if query.k < 1 or query.k > n:
            raise SolverError(f"k={query.k} infeasible for {n} candidates")

    def _prepared_for(
        self,
        snapshot: DatasetSnapshot,
        query: SelectionQuery,
        pf: ProbabilityFunction,
        pkey: Tuple[Any, ...],
    ) -> Tuple[PreparedInstance, str]:
        def build() -> PreparedInstance:
            return PreparedInstance(snapshot, query.tau, pf)

        if not query.use_cache:
            return build(), "bypass"
        prepared, was_hit = self._prepared.get_or_create(pkey, build)
        return prepared, "hit" if was_hit else "miss"

    def execute(
        self, query: SelectionQuery, cancel: Optional[CancelToken] = None
    ) -> QueryResult:
        """Serve one query synchronously on the calling thread.

        The query's clock is its token: for scheduled queries the token
        was created at submission, so ``total_seconds`` includes queue
        wait — the same span the deadline is measured over.  A token
        that is already cancelled or expired aborts *before* the cache
        lookup: an expired query is never served, not even for free, so
        record/replay sees the same outcome regardless of cache warmth.
        """
        token = cancel or CancelToken.with_timeout(query.deadline_s)
        t0 = token.started_at
        token.check()
        snapshot = self.snapshot()
        self._validate(query, snapshot)
        pf = query.pf or paper_default_pf()
        pkey = (snapshot.content_hash, pf.cache_key(), float(query.tau))
        rkey = pkey + (query.capture.cache_key(), int(query.k), query.candidate_ids)
        if query.use_cache:
            cached = self._results.get(rkey)
            if cached is not None:
                # Fresh stats for this hit — never a mutated/shared view
                # of the cached result's own QueryStats (concurrent hits
                # would race) and never the original solve's numbers:
                # ``total_seconds`` measures *this* query and the work
                # counters are zero because this query did no work.
                stats = QueryStats(
                    snapshot_hash=snapshot.content_hash,
                    snapshot_version=snapshot.version,
                    k=query.k,
                    tau=query.tau,
                    result_cache="hit",
                    prepared_cache="skip",
                    prepare_seconds=0.0,
                    select_seconds=0.0,
                    total_seconds=time.perf_counter() - t0,
                    selection_evaluations=0,
                )
                return replace(cached, stats=stats)

        prepared, prepared_provenance = self._prepared_for(snapshot, query, pf, pkey)
        token.check()

        t_sel = time.perf_counter()
        outcome = prepared.select(
            query.k,
            candidate_ids=query.candidate_ids,
            capture=query.capture,
            cancel_check=token.check,
        )
        now = time.perf_counter()
        stats = QueryStats(
            snapshot_hash=snapshot.content_hash,
            snapshot_version=snapshot.version,
            k=query.k,
            tau=query.tau,
            result_cache="miss" if query.use_cache else "bypass",
            prepared_cache=prepared_provenance,
            prepare_seconds=(
                0.0 if prepared_provenance == "hit" else prepared.prepare_seconds
            ),
            select_seconds=now - t_sel,
            total_seconds=now - t0,
            selection_evaluations=outcome.evaluations,
        )
        result = QueryResult(
            selected=outcome.selected,
            objective=outcome.objective,
            gains=outcome.gains,
            stats=stats,
        )
        # Never cache under a snapshot that was superseded mid-flight:
        # the entry would be unreachable after the invalidation sweep
        # anyway, but a sweep racing this insert could miss it.
        if query.use_cache and self._snapshot is snapshot and not snapshot.superseded:
            self._results.put(rkey, result)
        return result

    def submit(self, query: SelectionQuery) -> QueryHandle:
        """Enqueue one query on the scheduler.

        Raises :class:`~repro.exceptions.EngineSaturatedError` when the
        in-flight bound is hit.  The returned handle exposes ``result``
        and ``cancel``; the deadline clock starts now, so queue wait
        counts against ``deadline_s``.
        """
        token = CancelToken.with_timeout(query.deadline_s)
        return self._scheduler.submit(
            lambda tok: self.execute(query, cancel=tok), token
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Engine-level counters: caches, scheduler, current snapshot."""
        out: Dict[str, Any] = {
            "prepared_cache": self._prepared.stats().as_dict(),
            "result_cache": self._results.stats().as_dict(),
            "incremental": {
                "patched": self._patched,
                "skipped": self._patch_skipped,
                "failed": self._patch_failed,
            },
            "scheduler": {
                "max_workers": self._scheduler.max_workers,
                "max_queued": self._scheduler.max_queued,
                "in_flight": self._scheduler.in_flight,
                "submitted": self._scheduler.submitted,
                "rejected": self._scheduler.rejected,
            },
        }
        if self._snapshot is not None:
            out["snapshot"] = {
                "hash": self._snapshot.content_hash[:12],
                "version": self._snapshot.version,
                "label": self._snapshot.label,
            }
        return out

    def shutdown(self, wait: bool = True) -> None:
        """Stop the scheduler."""
        self._scheduler.shutdown(wait=wait)

    def __enter__(self) -> "SelectionEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def solve_queries(
    engine: SelectionEngine, queries: Sequence[SelectionQuery]
) -> Tuple[QueryResult, ...]:
    """Submit a batch and gather results in order (helper for benchmarks)."""
    handles = [engine.submit(q) for q in queries]
    return tuple(h.result() for h in handles)
