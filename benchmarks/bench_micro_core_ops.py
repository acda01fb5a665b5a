"""Micro-benchmarks of the core operations behind every experiment.

These give pytest-benchmark stable, repeatable timings for the building
blocks (index construction, traversal, range query, influence check), so
regressions in any substrate are visible independently of the end-to-end
figures.

Run directly (``python benchmarks/bench_micro_core_ops.py [--smoke]``)
to time the scalar-vs-batch verification kernel on a >= 1k-user batch
and write the ``BENCH_batch_verify.json`` trajectory point at the repo
root; ``--bench greedy`` instead times the scalar greedy against the
vectorized CSR selection kernel on a >= 50k-user table and writes
``BENCH_greedy_select.json``.  The test suite invokes ``--smoke`` for
both, so neither comparison can rot.
"""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.datasets import DEFAULT_D_HAT, DEFAULT_TAU, dataset
from repro.bench.timing import repeat_timed
from repro.entities import MovingUser
from repro.geo import Rect
from repro.influence import BatchInfluenceEvaluator, PositionArena, paper_default_pf
from repro.oracle import InfluenceEvaluator
from repro.spatial import IQuadTree, RTree

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def c_dataset():
    return dataset("C")


@pytest.fixture(scope="module")
def iqt(c_dataset):
    return IQuadTree(
        c_dataset.arena, DEFAULT_D_HAT, DEFAULT_TAU, paper_default_pf(), c_dataset.region
    )


def test_iquadtree_traversal(benchmark, c_dataset, iqt):
    facilities = c_dataset.abstract_facilities
    fx = [v.x for v in facilities]
    fy = [v.y for v in facilities]
    benchmark(lambda: iqt.traverse(fx, fy))


def test_rtree_range_query(benchmark, c_dataset):
    tree = RTree.from_points((v.location, v) for v in c_dataset.abstract_facilities)
    region = c_dataset.region
    queries = [
        Rect(
            region.min_x + i * region.width / 32,
            region.min_y + i * region.height / 32,
            region.min_x + i * region.width / 32 + 10,
            region.min_y + i * region.height / 32 + 10,
        )
        for i in range(32)
    ]

    def run_queries():
        return sum(len(tree.range_query(q)) for q in queries)

    benchmark(run_queries)


def test_influence_evaluation(benchmark, c_dataset):
    ev = InfluenceEvaluator(paper_default_pf(), DEFAULT_TAU)
    arena = c_dataset.arena
    rows = [arena.row(i) for i in range(min(200, len(arena)))]
    v = c_dataset.candidates[0]

    def evaluate():
        return sum(ev.influences(v.x, v.y, positions) for positions in rows)

    benchmark(evaluate)


def test_greedy_phase(benchmark, c_dataset):
    from repro.oracle import greedy_select
    from repro.solvers import IQTSolver, MC2LSProblem

    problem = MC2LSProblem(c_dataset, k=10, tau=DEFAULT_TAU)
    result = IQTSolver().solve(problem)
    cids = [c.fid for c in c_dataset.candidates]

    def select():
        return greedy_select(result.table, cids, 10)

    benchmark(select)


def test_influence_evaluation_batch(benchmark, c_dataset):
    """The batched counterpart of test_influence_evaluation."""
    ev = BatchInfluenceEvaluator(paper_default_pf(), DEFAULT_TAU)
    arena = c_dataset.arena
    rows = np.arange(min(200, len(arena)), dtype=np.int64)
    v = c_dataset.candidates[0]

    def evaluate():
        return int(ev.influences_users(v.x, v.y, arena, rows).sum())

    benchmark(evaluate)


# ----------------------------------------------------------------------
# Scalar-vs-batch verification kernel (the BENCH_batch_verify trajectory
# point; `--smoke` is wired into the test suite).
# ----------------------------------------------------------------------
def _verification_population(n_users: int, seed: int = 0) -> list:
    """A deterministic >= 1k-user population with a realistic r mix."""
    rng = np.random.default_rng(seed)
    users = []
    for uid in range(n_users):
        r = int(np.clip(rng.lognormal(mean=2.9, sigma=0.6), 2, 200))
        center = rng.uniform(-10, 10, 2)
        users.append(MovingUser(uid, rng.normal(center, 2.0, size=(r, 2))))
    return users


def run_batch_verify_benchmark(
    n_users: int = 1200, repeats: int = 3, out_path: Path = None
) -> dict:
    """Time the scalar loop against the batch kernel on one big batch.

    Returns (and writes to ``out_path``) the recorded trajectory point:
    median-of-``repeats`` wall-clock for both paths (with the min/max
    spread recorded under ``timings``), the speedup, and a bit-identity
    check of the decisions and counters.
    """
    users = _verification_population(n_users)
    arena = PositionArena.from_users(users)
    pf = paper_default_pf()
    vx, vy = 0.0, 0.0

    def scalar_pass():
        ev = InfluenceEvaluator(pf, DEFAULT_TAU)
        return np.array([ev.influences(vx, vy, u.positions) for u in users]), ev.stats

    def batch_pass():
        ev = BatchInfluenceEvaluator(pf, DEFAULT_TAU)
        return ev.influences_users(vx, vy, arena), ev.stats

    scalar = repeat_timed(scalar_pass, repeats)
    batch = repeat_timed(batch_pass, repeats)
    scalar_dec, scalar_stats = scalar.result
    batch_dec, batch_stats = batch.result
    payload = {
        "benchmark": "batch_verify",
        "n_users": n_users,
        "n_positions": int(arena.n_positions),
        "scalar_s": scalar.median_s,
        "batch_s": batch.median_s,
        "speedup": scalar.median_s / batch.median_s,
        "timings": {"scalar": scalar.summary(), "batch": batch.summary()},
        "decisions_equal": bool(np.array_equal(scalar_dec, batch_dec)),
        "stats_equal": scalar_stats.__dict__ == batch_stats.__dict__,
        "influenced": int(batch_dec.sum()),
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ----------------------------------------------------------------------
# Scalar-vs-CSR greedy selection (the BENCH_greedy_select trajectory
# point; `--bench greedy --smoke` is wired into the test suite).
# ----------------------------------------------------------------------
def _selection_table(n_users: int, n_candidates: int, seed: int = 0):
    """A deterministic influence table with skewed coverage sets."""
    from repro.competition import InfluenceTable

    rng = np.random.default_rng(seed)
    # Coverage sizes follow a lognormal (few hub candidates, many small),
    # bounded so the densified matrix stays a realistic sparsity.
    sizes = np.clip(
        rng.lognormal(mean=np.log(n_users / 50.0), sigma=0.8, size=n_candidates),
        1,
        n_users // 5,
    ).astype(np.int64)
    omega = {
        cid: set(rng.choice(n_users, size=int(sizes[cid]), replace=False).tolist())
        for cid in range(n_candidates)
    }
    f_o = {
        uid: set(range(1000, 1000 + int(c)))
        for uid, c in enumerate(rng.integers(0, 6, size=n_users).tolist())
    }
    return InfluenceTable.from_mappings(omega, f_o)


def run_greedy_select_benchmark(
    n_users: int = 50_000,
    n_candidates: int = 500,
    k: int = 10,
    repeats: int = 3,
    out_path: Path = None,
) -> dict:
    """Time the scalar greedy against the CSR selection kernel.

    Returns (and writes to ``out_path``) the recorded trajectory point:
    median-of-``repeats`` wall-clock for both paths (min/max spread under
    ``timings``), the speedup, and the selection-identity checks (same
    tuple, bit-equal gains).
    """
    from repro.oracle import greedy_select
    from repro.solvers import coverage_select

    table = _selection_table(n_users, n_candidates)
    cids = list(range(n_candidates))

    scalar = repeat_timed(lambda: greedy_select(table, cids, k), repeats)
    fast = repeat_timed(lambda: coverage_select(table, cids, k), repeats)
    scalar_out, fast_out = scalar.result, fast.result
    payload = {
        "benchmark": "greedy_select",
        "n_users": n_users,
        "n_candidates": n_candidates,
        "k": k,
        "scalar_s": scalar.median_s,
        "fast_s": fast.median_s,
        "speedup": scalar.median_s / fast.median_s,
        "timings": {"scalar": scalar.summary(), "fast": fast.summary()},
        "selections_equal": scalar_out.selected == fast_out.selected,
        "gains_equal": scalar_out.gains == fast_out.gains,
        "objective": fast_out.objective,
        "scalar_evaluations": scalar_out.evaluations,
        "fast_evaluations": fast_out.evaluations,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Core-operation microbenchmarks (verification / selection)"
    )
    parser.add_argument(
        "--bench",
        choices=["batch", "greedy"],
        default="batch",
        help="which kernel to benchmark (default: the verification kernel)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick run at reduced scale; used by the test suite",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--candidates", type=int, default=500)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_<bench>.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.bench == "batch":
        out = args.out or REPO_ROOT / "BENCH_batch_verify.json"
        payload = run_batch_verify_benchmark(
            n_users=args.users or 1200,
            # Odd repeat counts keep the median robust to one slow
            # sample (smoke shares a core with the rest of the suite).
            repeats=args.repeats or (3 if args.smoke else 5),
            out_path=out,
        )
        ok = payload["decisions_equal"] and payload["stats_equal"]
    else:
        out = args.out or REPO_ROOT / "BENCH_greedy_select.json"
        if args.smoke:
            n_users, n_candidates, repeats = 8_000, 200, 3
        else:
            n_users, n_candidates, repeats = 50_000, args.candidates, 3
        payload = run_greedy_select_benchmark(
            n_users=args.users or n_users,
            n_candidates=n_candidates,
            k=args.k,
            repeats=args.repeats or repeats,
            out_path=out,
        )
        ok = payload["selections_equal"] and payload["gains_equal"]
    print(json.dumps(payload, indent=2))
    if not ok:
        print("ERROR: fast kernel disagrees with the scalar reference")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
