"""Point execution: one pinned parameter combination, repeats-timed.

:func:`execute_point` is the function campaign workers run.  It builds
the point's dataset, re-derives the dataset content hash from the data
it actually built (refusing to proceed under a contradicting key — the
guard against a stale dataset-hash memo), runs the declared workload
``repeats`` times, and returns the JSON-ready record the store
persists.

Records split cleanly into a **deterministic** part (``params``,
``dataset_hash``, ``x``, ``result``) and a **measured** part
(``timing``, ``meta``).  The deterministic part is byte-identical
across runs, hosts and interleavings — the resumability tests compare
it directly; the timing part follows the repeats/median/spread
discipline of :mod:`repro.bench.timing`.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Dict, Optional, Set

from ..bench.timing import TimingSample
from ..capture import CaptureSpec, best_response_round
from ..exceptions import CampaignError
from ..influence import paper_default_pf
from ..solvers import SOLVER_FACTORIES, MC2LSProblem, Solver
from .spec import DatasetAxis, RunPoint


#: Solver names this process has already solved with.  A process's first
#: solve with a solver pays one-time warm-up (lazy imports, first-touch
#: allocations), so it is run once untimed.
_warmed: Set[str] = set()


def build_solver(name: str) -> Solver:
    try:
        factory = SOLVER_FACTORIES[name]
    except KeyError:
        raise CampaignError(
            f"unknown solver {name!r}; one of {sorted(SOLVER_FACTORIES)}"
        ) from None
    return factory()


def _x_values(dataset, point: RunPoint) -> Dict[str, Any]:
    """Realized axis values the aggregator can pivot on."""
    x: Dict[str, Any] = {
        "users": len(dataset.arena),
        "candidates": len(dataset.candidates),
        "facilities": len(dataset.facilities),
        "tau": point.tau,
        "k": point.k,
    }
    if point.dataset.r is not None:
        x["r"] = point.dataset.r
    return x


def _solve_workload(dataset, point: RunPoint, pf) -> tuple[Dict, tuple]:
    """Resolve+select ``repeats`` times; assert the outcome is stable.

    The first solve a process runs with a solver is an extra, untimed one.
    """
    capture_spec = CaptureSpec(**point.capture_params)
    problem = MC2LSProblem(
        dataset,
        k=point.k,
        tau=point.tau,
        capture=capture_spec.build(dataset, pf),
    )
    solver = build_solver(point.solver)
    if point.solver not in _warmed:
        solver.solve(problem)
        _warmed.add(point.solver)
    times = []
    outcome = None
    for _ in range(point.repeats):
        # As in timeit, the cyclic collector is off while a solve is
        # timed: a full collection of earlier work's garbage is not this
        # solve's time.
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = solver.solve(problem)
        finally:
            if enabled:
                gc.enable()
        times.append(result.total_time)
        snapshot = (result.selected, tuple(result.gains), result.objective)
        if outcome is None:
            outcome = (result, snapshot)
        elif snapshot != outcome[1]:
            raise CampaignError(
                f"nondeterministic solve for {point.solver!r}: "
                f"{snapshot[0]} != {outcome[1][0]}"
            )
    result = outcome[0]
    payload = {
        "selected": list(result.selected),
        "gains": list(result.gains),
        "objective": result.objective,
        "evaluations": result.evaluation.total_evaluations,
        "positions_touched": result.evaluation.positions_touched,
        "positions_scanned": result.evaluation.positions_scanned,
    }
    return payload, tuple(times)


def _compete_workload(dataset, point: RunPoint, pf) -> tuple[Dict, tuple]:
    """One best-response round per repeat over a shared resolution."""
    capture_spec = CaptureSpec(**point.capture_params)
    solver = build_solver(point.solver)
    resolved = solver.resolve(dataset, point.tau, pf)
    model = capture_spec.build(dataset, pf)
    cids = [c.fid for c in dataset.candidates]
    times = []
    report = None
    for _ in range(point.repeats):
        t0 = time.perf_counter()
        report = best_response_round(
            resolved.table,
            cids,
            point.k,
            model,
            k_rival=point.k_rival,
        )
        times.append(time.perf_counter() - t0)
    payload = {
        "leader_initial": list(report.leader_initial),
        "leader_objective": report.leader_objective,
        "rival_selected": list(report.rival_selected),
        "rival_objective": report.rival_objective,
        "eroded_objective": report.eroded_objective,
        "erosion": report.erosion,
        "erosion_fraction": report.erosion_fraction,
        "leader_adapted": list(report.leader_adapted),
        "adapted_objective": report.adapted_objective,
        "recovered": report.recovered,
    }
    return payload, tuple(times)


def execute_point(
    grid: str,
    params: Dict[str, Any],
    campaign: str = "",
    expected_key: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one point and return its store record.

    When ``expected_key`` is given, the key re-derived from the built
    dataset's content hash must match it — a mismatch means the store's
    dataset-hash memo has gone stale against the generator (or the
    population-scale env vars changed) and the record must not be
    stored under the old key.
    """
    point = RunPoint.from_params(grid, params)
    dataset = point.dataset.build()
    from ..service import dataset_content_hash

    dataset_hash = dataset_content_hash(dataset)
    key = point.key(dataset_hash)
    if expected_key is not None and key != expected_key:
        raise CampaignError(
            f"point key mismatch for grid {grid!r}: expected {expected_key}, "
            f"realized {key} — the dataset generated now differs from the "
            "one the campaign was planned against (stale dataset-hash memo "
            "or changed population scale); run `campaign clean`"
        )
    pf = paper_default_pf()
    if point.workload == "compete":
        result, times = _compete_workload(dataset, point, pf)
    else:
        result, times = _solve_workload(dataset, point, pf)
    timing = TimingSample(times, None).summary()
    return {
        "schema": 1,
        "key": key,
        "campaign": campaign,
        "grid": grid,
        "params": point.params(),
        "dataset_hash": dataset_hash,
        "x": _x_values(dataset, point),
        "result": result,
        "timing": timing,
        "meta": {"completed_at": time.time(), "pid": os.getpid()},
    }
