"""Per-phase cost of a streaming publish round on the ``churn-publish`` population.

Builds the benchmark's ``churn-publish`` population
(``perfbench/workloads.py``: C-like users sampled by ``c_like_sample``,
a :class:`~repro.streaming.StreamingMC2LS` session at τ 0.7, prepared
IQT instances kept warm at τ 0.6 and 0.8) and plays rounds of
``move_frac`` user moves (100 in 10k users by default).  Each round is
the write path of ``SelectionEngine.publish_streaming`` spelled out
step by step, so every phase has its own clock:

- ``ingest``: ``jitter_users`` moves the users in the session;
- ``materialize``: ``session.current_dataset()``;
- ``arena``: the dataset's packed :class:`~repro.influence.PositionArena`;
- ``hash``: the ``DatasetSnapshot`` (its content hash) plus the drained
  delta log;
- ``patch_tau<τ>``: ``PreparedInstance.patched`` per warm τ (dirty-row
  verification and the CSR splice);
- ``fresh_query``: the first ``select(k=10)`` on the patched τ 0.6
  instance;
- ``k_sweep``: perfbench's query burst, ``select(k)`` for every burst
  ``k`` (2, 4, .., 20) on both patched instances, in perfbench's order
  (all of τ 0.6, then all of τ 0.8), one thread.

The phases run back to back, so they sum to the round total up to loop
overhead (``phase_sum_over_total``: all phase seconds over all round
totals).  After the clocks stop, every
round checks each patched instance's ``fresh_query`` and ``k_sweep``
answers against a fresh resolve of the same snapshot; any difference
exits 1.

``--users N`` plays the rounds on ``N`` users (perfbench's 10k by
default), drawn from a base population scaled with it, at the same
number of moves per round, so phases that cost ``O(churn)`` read the
same at every ``N`` and phases that cost ``O(|Ω|)`` grow with it.

``--parent PATH`` compares two source trees: worker processes run with
``PYTHONPATH`` set to ``PATH/src`` and to this checkout's ``src`` in
alternation.  Writes ``BENCH_streaming_publish.json`` at the repo root
unless ``--out`` is given::

    PYTHONPATH=src python benchmarks/bench_streaming_publish.py \\
        --parent ../parent --workers 4 --rounds 15
"""

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``k`` of the first query after a publish (perfbench's fresh query).
FRESH_K = 10


def _config(smoke: bool, users: int = 0):
    """perfbench's ``churn-publish`` sizes, on ``users`` users when given
    (the base population grows in proportion, the moves per round stay)."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    from workloads import SMOKE, ChurnConfig

    cfg = SMOKE["churn-publish"] if smoke else ChurnConfig()
    if not users:
        return cfg
    return replace(
        cfg,
        users=users,
        base_users=users * cfg.base_users // cfg.users,
        move_frac=cfg.move_frac * cfg.users / users,
    )


def run_worker(seed: int, rounds: int, smoke: bool, users: int) -> None:
    """Print one JSON line per round: phase seconds and the round total."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    from workloads import CHURN_TAUS, SESSION_TAU, c_like_sample

    from repro.service import DatasetSnapshot, PreparedInstance
    from repro.streaming import StreamingMC2LS
    from repro.tuning.canned import jitter_users

    cfg = _config(smoke, users)
    dataset = c_like_sample(
        cfg.base_users, cfg.users, cfg.candidates, cfg.facilities, seed
    )
    session = StreamingMC2LS.from_dataset(dataset, k=10, tau=SESSION_TAU)
    snap = DatasetSnapshot.from_streaming(session)
    prepared = {tau: PreparedInstance(snap, tau) for tau in CHURN_TAUS}
    for inst in prepared.values():
        inst.select(FRESH_K)  # densify the CSR matrix, as a warm engine has
    moves = max(1, int(cfg.move_frac * cfg.users))
    first_tau = CHURN_TAUS[0]
    burst = [
        (tau, k) for tau in CHURN_TAUS for k in cfg.burst_ks
        if (tau, k) != (first_tau, FRESH_K)
    ]
    for r in range(rounds):
        gc.collect()
        phases = {}
        t0 = time.perf_counter()
        jitter_users(session, moves, seed=seed * 1000 + r)
        t1 = time.perf_counter()
        ds = session.current_dataset()
        t2 = time.perf_counter()
        ds.arena
        t3 = time.perf_counter()
        snap = DatasetSnapshot(ds, version=session.events_processed, label="streaming")
        snap.delta = session.drain_delta(snap.content_hash)
        t4 = time.perf_counter()
        phases.update(ingest=t1 - t0, materialize=t2 - t1, arena=t3 - t2, hash=t4 - t3)
        for tau in CHURN_TAUS:
            t_a = time.perf_counter()
            prepared[tau] = PreparedInstance.patched(prepared[tau], snap)
            phases[f"patch_tau{tau}"] = time.perf_counter() - t_a
        t_a = time.perf_counter()
        got = {(first_tau, FRESH_K): prepared[first_tau].select(FRESH_K)}
        t_b = time.perf_counter()
        phases["fresh_query"] = t_b - t_a
        for tau, k in burst:
            got[tau, k] = prepared[tau].select(k)
        t_end = time.perf_counter()
        phases["k_sweep"] = t_end - t_b
        phases["total"] = t_end - t0

        fresh = {tau: PreparedInstance(snap, tau) for tau in CHURN_TAUS}
        phases["identical"] = all(
            _same(out, fresh[tau].select(k)) for (tau, k), out in got.items()
        )
        print(json.dumps(phases), flush=True)


def _same(a, b) -> bool:
    return a.selected == b.selected and a.gains == b.gains and a.objective == b.objective


#: Lines of a failed worker's stderr quoted in the error.
STDERR_TAIL_LINES = 20


def _worker(src: Path, seed: int, rounds: int, smoke: bool, users: int = 0) -> list:
    """Run one worker on the ``repro`` under ``src``; its rounds, parsed.

    Raises:
        RuntimeError: When the worker exits non-zero; the message carries
            its exit code and the tail of its stderr.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, __file__, "--worker", "--seed", str(seed), "--rounds", str(rounds),
           "--users", str(users)]
    proc = subprocess.run(
        cmd + (["--smoke"] if smoke else []),
        env=env, capture_output=True, text=True, cwd=REPO_ROOT,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL_LINES:])
        raise RuntimeError(
            f"worker on {src} exited with code {proc.returncode}; stderr tail:\n{tail}"
        )
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def _quartiles(values: list) -> dict:
    import numpy as np

    q1, med, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median_ms": med * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3,
            "spread_ms": (max(values) - min(values)) * 1e3}


def _summary(rounds: list) -> dict:
    names = [k for k in rounds[0] if k not in ("total", "identical")]
    phases = {name: _quartiles([r[name] for r in rounds]) for name in names}
    total = _quartiles([r["total"] for r in rounds])
    return {
        "phases": phases,
        "total": total,
        # Over all rounds, not of the medians: each round's phases sum to
        # its total, but the median of a sum is not the sum of medians.
        "phase_sum_over_total": sum(r[name] for r in rounds for name in names)
        / sum(r["total"] for r in rounds),
        "round_totals_ms": [r["total"] * 1e3 for r in rounds],
        "identical": all(r["identical"] for r in rounds),
    }


def _commit(tree: Path) -> str:
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=tree, capture_output=True, text=True
        ).stdout.strip()

    head = git("rev-parse", "--short", "HEAD")
    return head + (" + uncommitted changes" if git("status", "--porcelain", "src") else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true",
                    help="perfbench's smoke population; used by the test suite")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=15, help="publish rounds per worker")
    ap.add_argument("--users", type=int, default=0,
                    help="population size (default: perfbench's churn-publish size)")
    ap.add_argument("--workers", type=int, default=2, help="worker processes per side")
    ap.add_argument("--parent", type=Path, help="source tree to compare against")
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_streaming_publish.json")
    args = ap.parse_args(argv)
    if args.users < 0:
        ap.error("--users must be >= 0")
    if args.worker:
        run_worker(args.seed, args.rounds, args.smoke, args.users)
        return 0

    import numpy as np

    cfg = _config(args.smoke, args.users)
    command = " ".join(sys.argv[1:] if argv is None else argv)
    sides = {"change": REPO_ROOT}
    if args.parent is not None:
        sides = {"parent": args.parent.resolve(), "change": REPO_ROOT}
        command = command.replace(str(args.parent), "PARENT_CHECKOUT")
    rounds = {name: [] for name in sides}
    for w in range(args.workers):
        for name, tree in sides.items():
            rounds[name] += _worker(tree / "src", args.seed + w, args.rounds, args.smoke, args.users)
    record = {
        "benchmark": "streaming_publish",
        "workload": "churn-publish population (perfbench ChurnConfig"
        + (" smoke" if args.smoke else "") + "), one publish round per repeat",
        "population": {
            "users": cfg.users,
            "candidates": cfg.candidates,
            "facilities": cfg.facilities,
            "moves_per_round": max(1, int(cfg.move_frac * cfg.users)),
        },
        "seed": args.seed,
        "workers_per_side": args.workers,
        "rounds_per_worker": args.rounds,
        "repeats": args.workers * args.rounds,
        "command": "PYTHONPATH=src python benchmarks/bench_streaming_publish.py " + command,
        "host": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "commit": {name: _commit(tree) for name, tree in sides.items()},
        "sides": {name: _summary(r) for name, r in rounds.items()},
    }
    if "parent" in sides:
        parent = record["sides"]["parent"]["total"]["median_ms"]
        change = record["sides"]["change"]["total"]["median_ms"]
        record["total_change_frac"] = change / parent - 1.0
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for name, side in record["sides"].items():
        cells = "  ".join(f"{p}={v['median_ms']:.1f}" for p, v in side["phases"].items())
        print(f"{name:>6}: total={side['total']['median_ms']:.1f} ms  {cells}")
    if not all(side["identical"] for side in record["sides"].values()):
        print("ERROR: a patched instance disagrees with a fresh resolve")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
