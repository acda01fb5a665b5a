"""Incremental republish: delta-patched prepared instances vs full resolves.

A streaming session over the serving benchmark population (800 users)
takes bursts of churn at increasing rates; after each burst the new
snapshot is turned into a queryable :class:`~repro.service.PreparedInstance`
two ways:

1. **patch** — ``PreparedInstance.patched`` re-verifies only the delta's
   dirty rows and splices them into the cached CSR matrix, then answers a
   ``k`` sweep with warm-started CELF bounds;
2. **full**  — a fresh ``PreparedInstance`` re-resolves every user, then
   answers the same sweep cold.

Every sweep is checked bit-identical (selection, gains, objective)
between the two paths before any timing is reported — the patch is only
interesting because it is *undetectable* from the query side.  Writes
the ``BENCH_incremental_patch.json`` trajectory point at the repo root;
``--smoke`` (wired into the test suite) runs a reduced scale to a
temporary path so the committed point cannot rot.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from repro.bench.timing import repeat_timed
from repro.data import california_like
from repro.entities import MovingUser
from repro.service import DatasetSnapshot, PreparedInstance

REPO_ROOT = Path(__file__).resolve().parents[1]


def _churn(session, n_events, rng, next_uid):
    """Apply a burst of ~n_events mixed events (60% move / 20% add / 20% remove).

    Returns the next fresh uid.  Adds and removes are balanced so the
    population size stays roughly constant across bursts.
    """
    n_move = max(1, int(round(n_events * 0.6)))
    n_add = max(1, int(round(n_events * 0.2)))
    n_rem = n_add
    uids = session.uids().tolist()
    for uid in rng.choice(uids, size=min(n_move, len(uids)), replace=False):
        user = session.user(int(uid))
        moved = user.positions + rng.normal(0.0, 0.5, user.positions.shape)
        session.update_user(MovingUser(int(uid), moved))
    anchor = session.user(uids[0]).positions
    for _ in range(n_add):
        pos = anchor + rng.normal(0.0, 5.0, anchor.shape)
        session.add_user(MovingUser(next_uid, pos))
        next_uid += 1
    survivors = session.uids().tolist()
    for uid in rng.choice(survivors, size=min(n_rem, len(survivors)), replace=False):
        session.remove_user(int(uid))
    return next_uid


def _sweep(prepared, ks):
    return [prepared.select(k) for k in ks]


def run_incremental_patch_benchmark(
    n_users: int = 800,
    n_candidates: int = 60,
    n_facilities: int = 120,
    k_max: int = 8,
    tau: float = 0.7,
    churn_rates=(0.01, 0.02, 0.05, 0.10, 0.25),
    repeats: int = 3,
    out_path: Path = None,
) -> dict:
    """Time delta patches against full resolves as the churn rate varies.

    Each path's ``patch_s``/``full_s`` is the median of ``repeats`` runs.
    """
    from repro.streaming import StreamingMC2LS

    dataset = california_like(
        n_users=n_users,
        n_candidates=n_candidates,
        n_facilities=n_facilities,
        seed=0,
    )
    ks = sorted({1, max(1, k_max // 2), k_max})
    session = StreamingMC2LS.from_dataset(dataset, k=k_max, tau=tau)
    snap = DatasetSnapshot.from_streaming(session)
    prepared = PreparedInstance(snap, tau)
    _sweep(prepared, ks)  # densify the CSR matrix, capture round-0 bounds

    rng = np.random.default_rng(42)
    next_uid = int(dataset.arena.uids.max()) + 1
    rows = []
    identical = True
    for rate in churn_rates:
        next_uid = _churn(session, int(round(rate * n_users)), rng, next_uid)
        snap2 = DatasetSnapshot.from_streaming(session)

        # Time construction + sweep as one unit for both paths (what a
        # republish actually costs before the next query is answered).
        patch_s = repeat_timed(
            lambda: _sweep(PreparedInstance.patched(prepared, snap2), ks), repeats
        ).median_s
        full_s = repeat_timed(
            lambda: _sweep(PreparedInstance(snap2, tau), ks), repeats
        ).median_s

        patched = PreparedInstance.patched(prepared, snap2)
        fresh = PreparedInstance(snap2, tau)
        same = all(
            p.selected == f.selected
            and p.gains == f.gains
            and p.objective == f.objective
            for p, f in zip(_sweep(patched, ks), _sweep(fresh, ks))
        )
        identical = identical and same
        rows.append(
            {
                "churn_rate": rate,
                "churn_events": len(snap2.delta),
                "dirty_users": len(snap2.delta.dirty),
                "patch_s": patch_s,
                "full_s": full_s,
                "speedup": full_s / patch_s if patch_s > 0 else float("inf"),
                # Positions each path's verification read, after timing:
                # the kernel work its pruning left.
                "patch_positions_scanned": patched.resolved.evaluation.positions_scanned,
                "full_positions_scanned": fresh.resolved.evaluation.positions_scanned,
                "identical": same,
            }
        )
        # Chain: subsequent bursts patch the patched instance, the way the
        # engine migrates across repeated republishes.
        prepared = patched
        snap = snap2

    at_5pct = [r["speedup"] for r in rows if r["churn_rate"] <= 0.05]
    payload = {
        "benchmark": "incremental_patch",
        "n_users": n_users,
        "n_candidates": n_candidates,
        "n_facilities": n_facilities,
        "k_max": k_max,
        "tau": tau,
        "ks": ks,
        "rows": rows,
        "min_speedup_at_5pct": min(at_5pct) if at_5pct else None,
        "results_identical": identical,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Delta-patched prepared instances vs full resolves under churn"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick run at reduced scale; used by the test suite",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--candidates", type=int, default=None)
    parser.add_argument("--k-max", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_incremental_patch.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scale = dict(
            n_users=150,
            n_candidates=16,
            n_facilities=30,
            k_max=4,
            churn_rates=(0.05, 0.25),
        )
    else:
        scale = dict(n_users=800, n_candidates=60, n_facilities=120, k_max=8)
    if args.users:
        scale["n_users"] = args.users
    if args.candidates:
        scale["n_candidates"] = args.candidates
    if args.k_max:
        scale["k_max"] = args.k_max

    out = args.out or REPO_ROOT / "BENCH_incremental_patch.json"
    payload = run_incremental_patch_benchmark(
        repeats=args.repeats or 3, out_path=out, **scale
    )
    print(json.dumps(payload, indent=2))
    if not payload["results_identical"]:
        print("ERROR: patched instances disagree with fresh resolves")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
