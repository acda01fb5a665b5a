"""The three canned workloads: regression fixtures and load generators.

Each canned workload is a deterministic query/publish plan executed
through a :class:`~repro.tuning.TraceRecorder` against a real engine, so
the shipped fixtures are genuine recordings (offsets, outcomes,
QueryStats) rather than synthetic files:

* **bursty** — a what-if sweep whose τ working set (20 distinct values,
  cycled) is wider than the default prepared cache (16): under the
  default config the LRU thrashes cyclically and every burst
  re-resolves, while a prepared cache of 24 holds the whole working set
  (replay both with ``replay --config`` to see the difference).  Ends
  with deadline-zero and cancelled queries so replays cover the failure
  outcomes too.
* **churn** — streaming write traffic: query bursts separated by
  deterministic position-jitter republishes, exercising the
  delta-patched prepared-instance migration.
* **cold-start** — a storm of never-repeating ``(τ, k)`` queries; no
  cache at any capacity can help.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..entities import MovingUser
from ..exceptions import QueryCancelledError, TuningError
from ..service import CancelToken, SelectionQuery
from .config import EngineConfig
from .trace import TraceRecorder, WorkloadTrace, build_dataset, dataset_spec

#: Canned workload names, in presentation order.
CANNED_WORKLOADS: Tuple[str, ...] = ("bursty", "churn", "cold-start")


def jitter_users(session: Any, n_moves: int, seed: int) -> None:
    """Jitter ``n_moves`` users' position histories in a streaming session.

    Deterministic in ``(session user set, n_moves, seed)`` — the
    record/replay contract: a publish journaled as ``(moves, seed)``
    reproduces the identical successor snapshot (same content hash) on
    replay.
    """
    rng = np.random.default_rng(seed)
    uids = session.uids()
    for uid in rng.choice(uids, size=min(n_moves, len(uids)), replace=False):
        user = session.user(uid)
        moved = user.positions + rng.normal(0.0, 0.5, user.positions.shape)
        session.update_user(MovingUser(int(uid), moved))


# ----------------------------------------------------------------------
# Workload plans
# ----------------------------------------------------------------------
def _bursty(recorder: TraceRecorder) -> None:
    """20 τ values cycled twice, one uniquely-keyed query per burst."""
    taus = [round(0.50 + 0.015 * i, 4) for i in range(20)]
    for burst in range(2 * len(taus)):
        tau = taus[burst % len(taus)]
        # The k changes per cycle, so the second cycle misses the result
        # cache and lands on the prepared cache — the knob under test.
        recorder.execute(SelectionQuery(k=2 + burst // len(taus), tau=tau))
    # Failure-outcome coverage: queries that expire at submission and
    # queries their caller abandoned.
    for tau in (taus[0], taus[1]):
        try:
            recorder.execute(SelectionQuery(k=2, tau=tau, deadline_s=0.0))
        except QueryCancelledError:
            pass
    for tau in (taus[2], taus[3]):
        token = CancelToken()
        token.cancel()
        try:
            recorder.execute(SelectionQuery(k=2, tau=tau), cancel=token)
        except QueryCancelledError:
            pass


def _churn(recorder: TraceRecorder, session: Any, seed: int) -> None:
    """Query bursts separated by deterministic republishes."""
    n_users = len(session)
    moves = max(4, n_users // 20)
    for pass_no in range(3):
        if pass_no:
            recorder.record_publish(session, moves, seed + pass_no)
        for tau in (0.6, 0.7):
            for k in range(1, 5):
                recorder.execute(SelectionQuery(k=k, tau=tau))


def _cold_start(recorder: TraceRecorder) -> None:
    """30 never-repeating (τ, k) queries — uncacheable by construction."""
    for i in range(30):
        recorder.execute(
            SelectionQuery(k=2 + i % 3, tau=round(0.50 + 0.012 * i, 4))
        )


# ----------------------------------------------------------------------
def record_canned(
    workload: str,
    out_path: Optional[Union[str, Path]] = None,
    n_users: int = 160,
    n_candidates: int = 20,
    n_facilities: int = 40,
    seed: int = 0,
    config: Optional[EngineConfig] = None,
) -> WorkloadTrace:
    """Record one canned workload against a live engine.

    Returns the recorded :class:`~repro.tuning.WorkloadTrace` (saved to
    ``out_path`` when given).  ``config`` sets the engine the recording
    runs under — all defaults when omitted.
    """
    if workload not in CANNED_WORKLOADS:
        raise TuningError(
            f"unknown canned workload {workload!r}; "
            f"expected one of {CANNED_WORKLOADS}"
        )
    config = config or EngineConfig()
    spec = dataset_spec(
        n_users=n_users,
        n_candidates=n_candidates,
        n_facilities=n_facilities,
        seed=seed,
    )
    dataset = build_dataset(spec)
    streaming = workload == "churn"
    session = None
    if streaming:
        from ..streaming import StreamingMC2LS

        session = StreamingMC2LS.from_dataset(dataset, k=1)
        first: Any = session.snapshot()
    else:
        first = dataset
    engine = config.make_engine(first)
    recorder = TraceRecorder(
        engine,
        spec,
        name=workload,
        streaming=streaming,
        engine_config=config,
    )
    try:
        if workload == "bursty":
            _bursty(recorder)
        elif workload == "churn":
            _churn(recorder, session, seed)
        else:
            _cold_start(recorder)
    finally:
        engine.shutdown()
    if out_path is not None:
        recorder.trace.save(out_path)
    return recorder.trace
