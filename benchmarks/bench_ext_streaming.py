"""Extension bench — streaming MC²LS vs batch re-solving.

Expected shape: processing one arrival or departure incrementally is far
cheaper than re-solving the batch problem from scratch, while the
maintained selection stays identical to the batch answer.
"""

import time

import numpy as np

from repro.bench import record_table
from repro.bench.datasets import dataset
from repro.entities import MovingUser
from repro.solvers import IQTSolver, MC2LSProblem
from repro.streaming import StreamingMC2LS


def streaming_vs_batch():
    ds = dataset("N", n_candidates=50, n_facilities=100)
    session = StreamingMC2LS.from_dataset(ds, k=5, tau=0.7)
    rng = np.random.default_rng(0)
    region = ds.region

    # 40 churn events: half departures, half arrivals.
    uids = ds.arena.uids.tolist()
    t0 = time.perf_counter()
    for i in range(20):
        session.remove_user(uids[i])
    for uid in range(10_000, 10_020):
        center = rng.uniform(
            [region.min_x, region.min_y], [region.max_x, region.max_y]
        )
        positions = np.clip(
            rng.normal(center, 1.0, size=(10, 2)),
            [region.min_x, region.min_y],
            [region.max_x, region.max_y],
        )
        session.add_user(MovingUser(uid, positions))
    event_time = (time.perf_counter() - t0) / 40.0

    t0 = time.perf_counter()
    outcome = session.current_selection()
    selection_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    batch = IQTSolver().solve(
        MC2LSProblem(session.current_dataset(), k=5, tau=0.7)
    )
    batch_time = time.perf_counter() - t0
    assert outcome.selected == batch.selected

    return [
        {
            "events": 40,
            "per_event_ms": event_time * 1e3,
            "selection_ms": selection_time * 1e3,
            "batch_resolve_ms": batch_time * 1e3,
            "speedup_vs_batch": batch_time / (event_time + selection_time),
            "selection_matches_batch": True,
        }
    ]


def test_streaming_vs_batch(benchmark):
    rows = benchmark.pedantic(streaming_vs_batch, rounds=1, iterations=1)
    record_table("Extension - streaming events vs batch re-solve (N-like)", rows)
    row = rows[0]
    # One event plus a fresh greedy must beat a full batch re-solve.
    assert row["speedup_vs_batch"] > 1.0
