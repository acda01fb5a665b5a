#!/usr/bin/env python
"""Serving engine: answer repeated what-if queries from a warm cache.

A planning team rarely asks one question.  They sweep k ("what do 3, 5,
8 new stores buy us?"), compare thresholds, and restrict to shortlisted
sites — all against the same population.  The serving engine resolves
the expensive influence table once per (snapshot, PF, τ) and answers
every follow-up from the cheap greedy phase or straight from cache,
while streaming updates republish new snapshots that atomically retire
the stale entries.

Run:  python examples/serving_engine.py
"""

import time

from repro import IQTSolver, MC2LSProblem, SelectionEngine, SelectionQuery
from repro.data import california_like
from repro.streaming import StreamingMC2LS


def main() -> None:
    dataset = california_like(
        n_users=500, n_candidates=30, n_facilities=60, seed=7
    )
    print(f"Instance: {dataset.describe()}")

    with SelectionEngine(dataset, max_workers=2) as engine:
        # --- sweep k: one resolution, many selections -----------------
        print("\nWhat-if sweep (k = 2, 4, 6, 8 at tau = 0.7):")
        for k in (2, 4, 6, 8):
            r = engine.execute(SelectionQuery(k=k))
            print(
                f"  k={k}: cinf(G) = {r.objective:.3f}  "
                f"selected = {list(r.selected)}  "
                f"[prepared cache: {r.stats.prepared_cache}, "
                f"{r.stats.total_seconds * 1e3:.1f} ms]"
            )

        # --- repeated query: served from the result cache -------------
        t0 = time.perf_counter()
        again = engine.execute(SelectionQuery(k=6))
        warm_ms = (time.perf_counter() - t0) * 1e3
        direct = IQTSolver().solve(MC2LSProblem(dataset, k=6, tau=0.7))
        assert again.selected == direct.selected
        assert again.gains == direct.gains
        print(
            f"\nRepeat of k=6 answered from cache in {warm_ms:.2f} ms "
            f"({again.stats.result_cache}); bit-identical to a direct "
            f"{direct.total_time * 1e3:.0f} ms IQT solve."
        )

        # --- candidate shortlist: reuse the same preparation ----------
        shortlist = tuple(c.fid for c in dataset.candidates[:12])
        masked = engine.execute(SelectionQuery(k=4, candidate_ids=shortlist))
        print(
            f"\nShortlist of {len(shortlist)} sites: selected "
            f"{list(masked.selected)} (cinf(G) = {masked.objective:.3f}, "
            f"prepared cache: {masked.stats.prepared_cache})"
        )

        # --- streaming update: republish retires the stale cache ------
        session = StreamingMC2LS.from_dataset(dataset, k=6, tau=0.7)
        for uid in session.uids()[::4]:
            session.remove_user(uid)
        snap = engine.publish_streaming(session)
        fresh = engine.execute(SelectionQuery(k=6))
        check = IQTSolver().solve(
            MC2LSProblem(session.current_dataset(), k=6, tau=0.7)
        )
        assert fresh.selected == check.selected, "must serve the new population"
        print(
            f"\nAfter {session.events_processed} streaming events, "
            f"republished as snapshot v{snap.version}: k=6 now selects "
            f"{list(fresh.selected)} ({fresh.stats.result_cache} — "
            "the pre-update answer was invalidated)."
        )

        stats = engine.stats()
        print(
            f"\nEngine totals: result cache "
            f"{stats['result_cache']['hits']} hits / "
            f"{stats['result_cache']['misses']} misses, prepared cache "
            f"{stats['prepared_cache']['hits']} hits / "
            f"{stats['prepared_cache']['misses']} misses."
        )


if __name__ == "__main__":
    main()
