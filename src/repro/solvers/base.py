"""Solver interface and result types for the MC²LS problem.

An :class:`MC2LSProblem` fixes the instance (dataset, ``k``, ``τ``, ``PF``);
a :class:`Solver` turns it into a :class:`SolverResult`.  All solvers in
this package resolve the same influence relationships (soundly pruned,
exactly verified) and therefore return *identical* selections — they differ
only in how much work the resolution phase needs, which is what the
paper's evaluation measures.  The result object carries the timing
breakdown and work counters the benchmark harness reports.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..competition import CaptureModel, EvenlySplitModel, InfluenceTable
from ..entities import AbstractFacility, SpatialDataset
from ..exceptions import SolverError
from ..influence import (
    BatchInfluenceEvaluator,
    EvaluationStats,
    ProbabilityFunction,
    paper_default_pf,
)
from ..pruning import PruningStats, prune_and_verify
from .selection import run_selection


@dataclass(frozen=True)
class MC2LSProblem:
    """A fully specified MC²LS instance (Definition 7).

    Attributes:
        dataset: Users ``Ω``, competitors ``F`` and candidates ``C``.
        k: Number of locations to select.
        tau: Influence probability threshold.
        pf: Distance-decay probability function (paper default when ``None``).
        capture: Customer-choice capture model (:mod:`repro.capture`);
            ``None`` becomes the paper's :class:`EvenlySplitModel`.
            Resolution is capture-agnostic — only the greedy phase
            consults it — so the iQT/baseline/k-CIFP solvers accept any
            registered model;
            the exact solver, whose enumeration precomputes evenly-split
            weights, rejects every other model explicitly.
    """

    dataset: SpatialDataset
    k: int
    tau: float = 0.7
    pf: ProbabilityFunction = field(default_factory=paper_default_pf)
    capture: Optional[CaptureModel] = None

    def __post_init__(self) -> None:
        if self.capture is None:
            object.__setattr__(self, "capture", EvenlySplitModel())
        if self.k < 1:
            raise SolverError(f"k must be >= 1, got {self.k}")
        if self.k > len(self.dataset.candidates):
            raise SolverError(
                f"k={self.k} exceeds the {len(self.dataset.candidates)} candidates"
            )
        if not 0.0 < self.tau < 1.0:
            raise SolverError(f"tau must be in (0, 1), got {self.tau}")


@dataclass
class ResolvedInstance:
    """Everything a solver computes *before* the selection phase.

    The expensive part of every solver is resolving the influence
    relationships for a ``(dataset, PF, τ)`` configuration; the greedy
    phase that consumes them is cheap and parameterised only by ``k``
    (and optionally a candidate subset).  Splitting the two lets the
    serving engine (:mod:`repro.service`) resolve once and answer many
    queries against the same table.

    Attributes:
        table: The resolved influence relationships (``Ω_c`` / ``F_o``).
        counters: The evaluator that verified the resolution — anything
            with an :class:`EvaluationStats` ``stats`` attribute
            (a :class:`~repro.influence.BatchInfluenceEvaluator`, or the
            scalar :class:`repro.oracle.InfluenceEvaluator`), or ``None``
            for a resolution that verified nothing.
        pruning: Pair-classification counters, when the solver prunes.
        timings: Per-phase wall-clock seconds of the resolution.
    """

    table: InfluenceTable
    counters: Any
    pruning: Optional[PruningStats] = None
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def evaluation(self) -> EvaluationStats:
        """Probability-evaluation counters of the resolution.

        Read off :attr:`counters`, so an early-stop model the batched
        evaluator still owes is computed on the first read, and only a
        caller that reads the counters pays for it.
        """
        if self.counters is None:
            return EvaluationStats()
        return self.counters.stats


@dataclass
class SolverResult:
    """Outcome of one solver run.

    Attributes:
        selected: Candidate ids in greedy selection order.
        objective: ``cinf(selected)`` under the problem's capture model.
        resolved: The resolution the selection was made from; its
            ``table``, ``evaluation`` and ``pruning`` read through.
        timings: Per-phase wall-clock seconds (keys are solver-specific;
            ``"total"`` is always present).
        gains: Marginal gain recorded at each greedy round.
    """

    selected: Tuple[int, ...]
    objective: float
    resolved: ResolvedInstance
    timings: Dict[str, float]
    gains: Tuple[float, ...] = ()

    @property
    def table(self) -> InfluenceTable:
        """The resolved influence relationships (``Ω_c`` / ``F_o``)."""
        return self.resolved.table

    @property
    def evaluation(self) -> EvaluationStats:
        """Probability-evaluation counters (verification cost)."""
        return self.resolved.evaluation

    @property
    def pruning(self) -> Optional[PruningStats]:
        """Pair-classification counters, when the solver prunes."""
        return self.resolved.pruning

    @property
    def total_time(self) -> float:
        """Total wall-clock seconds, indexing plus querying."""
        return self.timings.get("total", 0.0)


def greedy_result(
    problem: MC2LSProblem, resolved: ResolvedInstance, timer: "PhaseTimer"
) -> SolverResult:
    """Run the shared greedy over ``resolved`` as the ``"greedy"`` phase
    of ``timer`` and wrap the outcome with the finished timings."""
    with timer.mark("greedy"):
        outcome = run_selection(
            resolved.table,
            [c.fid for c in problem.dataset.candidates],
            problem.k,
            capture=problem.capture,
        )
    return SolverResult(
        selected=outcome.selected,
        objective=outcome.objective,
        resolved=resolved,
        timings=timer.finish(),
        gains=outcome.gains,
    )


def site_coords(sites: Sequence[AbstractFacility]) -> Tuple[np.ndarray, np.ndarray]:
    """``(xs, ys)`` float64 coordinate arrays of abstract facilities."""
    return (
        np.array([v.x for v in sites], dtype=np.float64),
        np.array([v.y for v in sites], dtype=np.float64),
    )


def _groups(owner: np.ndarray, values: np.ndarray, n_groups: int) -> List[list]:
    """``values`` split by ascending ``owner`` index into ``n_groups`` lists."""
    bounds = np.cumsum(np.bincount(owner, minlength=n_groups)).tolist()
    flat = values.tolist()
    return [flat[a:b] for a, b in zip([0] + bounds[:-1], bounds)]


def pair_table(
    dataset: SpatialDataset,
    omega_keys: np.ndarray,
    f_o_keys: np.ndarray,
    f_o_rows: Optional[np.ndarray] = None,
) -> InfluenceTable:
    """The influence table of pair keys ``site * n_users + arena row``.

    Candidate keys index ``dataset.candidates`` and come sorted;
    competitor keys index ``dataset.facilities`` (both counted from 0)
    and may come in any order.  ``Ω_c`` gets an entry per candidate and
    ``F_o`` one per arena row in ``f_o_rows`` (every row when ``None``).
    """
    uids = dataset.arena.uids
    n_users = uids.size
    cand, rows = np.divmod(omega_keys, n_users)
    users_of = _groups(cand, uids[rows], len(dataset.candidates))
    omega_c = {c.fid: set(users) for c, users in zip(dataset.candidates, users_of)}
    comp, rows = np.divmod(f_o_keys, n_users)
    order = np.lexsort((comp, rows))
    fids = np.array([f.fid for f in dataset.facilities], dtype=np.int64)
    fids_of = _groups(rows[order], fids[comp[order]], n_users)
    if f_o_rows is None:
        f_o_rows = np.arange(n_users)
    f_o = {
        uid: set(fids_of[row])
        for uid, row in zip(uids[f_o_rows].tolist(), f_o_rows.tolist())
    }
    return InfluenceTable(omega_c, f_o)


def patch_resolution(
    parent: ResolvedInstance,
    dataset: SpatialDataset,
    dirty_uids: Tuple[int, ...],
    removed_uids: Tuple[int, ...],
    tau: float,
    pf: ProbabilityFunction,
) -> Tuple[ResolvedInstance, Dict[int, Set[int]]]:
    """Re-resolve only the dirty user rows of a previously resolved table.

    ``parent`` resolved some earlier version of the population under the
    same ``(PF, τ)``; ``dataset`` is the mutated version, ``dirty_uids``
    the users whose rows must be verified afresh (added or re-positioned)
    and ``removed_uids`` the users that left.  Every other user's
    relationships are carried over untouched — sound because influence is
    decided per ``(facility, user)`` pair, so churn in one user's history
    cannot change any other user's row.

    The dirty rows are resolved against every candidate and facility by
    :func:`~repro.pruning.prune_and_verify`: NIB and IA filter the pairs
    and one batched kernel call per chunk verifies the rest, with
    counters modelling early stopping as the IQT resolve's do.  The
    resulting ``omega_c`` therefore matches a fresh resolve of
    ``dataset`` exactly, and every dirty user gets its full ``F_o``.

    The work scales with the churn, not the population: dirty users are
    found in ``dataset.arena`` by binary search, only their MBRs are
    computed, and the patched table shares every ``Ω_c`` and ``F_o`` set
    the churn leaves untouched with ``parent`` (tables are read-only once
    built).

    Returns:
        ``(resolved, added_cover)`` — the patched resolution (timings
        carry a ``"patch"`` phase; the evaluation and pruning counters
        cover only the dirty-row work) and the ``uid -> covering
        candidate ids`` map the CSR splice
        (:meth:`CoverageMatrix.patched`) consumes.

    Raises:
        SolverError: When a dirty uid is missing from ``dataset`` or a
            removed uid is still present — the delta does not describe
            this dataset.
    """
    timer = PhaseTimer()
    arena = dataset.arena
    present_removed = [
        uid for uid, row in zip(removed_uids, arena.lookup(removed_uids)) if row >= 0
    ]
    if present_removed:
        raise SolverError(
            f"removed uids {present_removed} are still present in the dataset"
        )
    dirty_rows = arena.lookup(dirty_uids)
    missing_dirty = [uid for uid, row in zip(dirty_uids, dirty_rows) if row < 0]
    if missing_dirty:
        raise SolverError(
            f"dirty uids {missing_dirty} are absent from the dataset"
        )
    # Copy-on-write: the patched table shares every set the churn leaves
    # untouched with the parent; only rows that lose or gain a dirty uid
    # get a copy.
    doomed = set(dirty_uids) | set(removed_uids)
    omega_c: Dict[int, Set[int]] = dict(parent.table.omega_c)
    copied: Set[int] = set()
    for cid, users in omega_c.items():
        if not users.isdisjoint(doomed):
            omega_c[cid] = users - doomed
            copied.add(cid)
    f_o: Dict[int, Set[int]] = dict(parent.table.f_o)
    for uid in doomed:
        f_o.pop(uid, None)

    batch = BatchInfluenceEvaluator(pf, tau)
    sites = dataset.abstract_facilities
    fids = [v.fid for v in sites]
    n_cand = len(dataset.candidates)
    added_cover: Dict[int, Set[int]] = {uid: set() for uid in dirty_uids}
    with timer.mark("patch"):
        keys, pruning = prune_and_verify(arena, dirty_rows, *site_coords(sites), batch)
        f_o.update((uid, set()) for uid in dirty_uids)
        site, rows = np.divmod(keys, len(arena))
        for s, uid in zip(site.tolist(), arena.uids[rows].tolist()):
            (added_cover[uid] if s < n_cand else f_o[uid]).add(fids[s])
        for uid, covering in added_cover.items():
            for cid in covering:
                if cid not in copied:
                    omega_c[cid] = set(omega_c[cid])
                    copied.add(cid)
                omega_c[cid].add(uid)
    resolved = ResolvedInstance(
        table=InfluenceTable(omega_c, f_o),
        counters=batch,
        pruning=pruning,
        timings=timer.finish(),
    )
    return resolved, added_cover


class Solver(ABC):
    """Base class for MC²LS solvers.

    Thread-safety contract: a solver instance holds *configuration only*.
    Every mutable accumulator (:class:`~repro.influence.EvaluationStats`,
    :class:`~repro.pruning.PruningStats`, phase timers) is created inside
    :meth:`solve` / :meth:`resolve` per call, so one instance may serve
    concurrent calls from multiple threads and each returned result
    carries exactly its own query's counters.  Subclasses must not write
    to ``self`` during ``solve`` — the serving engine and its two-thread
    regression test rely on this.
    """

    name: str = "solver"

    @abstractmethod
    def solve(self, problem: MC2LSProblem) -> SolverResult:
        """Solve the instance and return the selection with its metrics."""

    def resolve(
        self,
        dataset: SpatialDataset,
        tau: float,
        pf: Optional[ProbabilityFunction] = None,
    ) -> ResolvedInstance:
        """Resolve the influence relationships without selecting.

        Solvers that separate resolution from selection override this;
        the serving engine only accepts those.  The returned timings
        include a ``"total"`` entry covering the resolution.
        """
        raise SolverError(
            f"solver {self.name!r} does not support resolution-only preparation"
        )


def resolve_all_pairs(
    dataset: SpatialDataset,
    pf: ProbabilityFunction,
    tau: float,
) -> ResolvedInstance:
    """Brute-force resolution of every ``(facility, user)`` relationship.

    Shared by the baseline and exact solvers.  The probability
    evaluations run through the batched kernel — one vectorised pass per
    abstract facility over the dataset's position arena — and are
    counted as full scans.  :func:`repro.oracle.resolve_all_pairs` is
    the pair-at-a-time scalar twin with bit-identical decisions and
    counters.

    Returns:
        The resolution: candidate coverage sets and per-user competitor
        sets, keyed by id, counted by the full-scan evaluator.
    """
    omega_c: Dict[int, Set[int]] = {}
    arena = dataset.arena
    f_o: Dict[int, Set[int]] = {uid: set() for uid in arena.uids.tolist()}
    batch = BatchInfluenceEvaluator(pf, tau, early_stopping=False)
    for c in dataset.candidates:
        hit = batch.influences_users(c.x, c.y, arena)
        omega_c[c.fid] = set(arena.uids[hit].tolist())
    for f in dataset.facilities:
        hit = batch.influences_users(f.x, f.y, arena)
        for uid in arena.uids[hit].tolist():
            f_o[uid].add(f.fid)
    return ResolvedInstance(InfluenceTable(omega_c, f_o), counters=batch)


class PhaseTimer:
    """Accumulates named wall-clock phases into a timings dict."""

    def __init__(self) -> None:
        self.timings: Dict[str, float] = {}
        self._start = time.perf_counter()

    def mark(self, name: str) -> "_Phase":
        """Return a context manager timing one named phase."""
        return _Phase(self, name)

    def finish(self) -> Dict[str, float]:
        """Record the total elapsed time and return the dict."""
        self.timings["total"] = time.perf_counter() - self._start
        return self.timings


class _Phase:
    def __init__(self, timer: PhaseTimer, name: str):
        self._timer = timer
        self._name = name

    def __enter__(self) -> "_Phase":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        self._timer.timings[self._name] = (
            self._timer.timings.get(self._name, 0.0) + elapsed
        )
