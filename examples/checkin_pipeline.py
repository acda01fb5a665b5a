#!/usr/bin/env python
"""End-to-end pipeline on SNAP-format check-in data.

Demonstrates the ingestion path the paper uses for its real datasets:
parse a Brightkite/Gowalla-format check-in dump, project it into a local
km-space, carve a metropolitan bounding box, characterise the resulting
population, and solve an MC²LS instance with POI-sampled facilities.

A small bundled sample (``examples/data/sample_checkins.txt``, generated
once with the same venue-revisit behaviour as real check-in data) keeps
the example runnable offline; point ``--path`` at a real SNAP dump
(e.g. ``loc-brightkite_totalCheckins.txt``) to run it at scale.

Run:  python examples/checkin_pipeline.py [--path FILE]
"""

import argparse
from pathlib import Path

import numpy as np

from repro import IQTSolver, MC2LSProblem
from repro.data import compute_stats, load_checkins

SAMPLE_PATH = Path(__file__).parent / "data" / "sample_checkins.txt"


def generate_sample(path: Path, n_users: int = 120, seed: int = 5) -> None:
    """Write a miniature check-in dump around New York City."""
    rng = np.random.default_rng(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    center = np.array([40.75, -73.95])
    lines = []
    poi_id = 0
    for uid in range(n_users):
        home = center + rng.normal(0, 0.05, size=2)
        n_venues = max(1, int(rng.poisson(3)))
        venues = home + rng.normal(0, 0.02, size=(n_venues, 2))
        venue_ids = [f"poi_{poi_id + i}" for i in range(n_venues)]
        poi_id += n_venues
        prefs = rng.dirichlet(np.full(n_venues, 0.8))
        for visit in range(int(rng.integers(2, 20))):
            which = rng.choice(n_venues, p=prefs)
            lat, lon = venues[which] + rng.normal(0, 0.001, size=2)
            stamp = f"2010-{rng.integers(1, 13):02d}-{rng.integers(1, 29):02d}T12:00:00Z"
            lines.append(f"{uid}\t{stamp}\t{lat:.6f}\t{lon:.6f}\t{venue_ids[which]}")
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--path", type=Path, default=SAMPLE_PATH,
                        help="SNAP-format check-in file")
    parser.add_argument("--k", type=int, default=4, help="locations to select")
    args = parser.parse_args()

    if args.path == SAMPLE_PATH and not SAMPLE_PATH.exists():
        print(f"generating bundled sample at {SAMPLE_PATH} ...")
        generate_sample(SAMPLE_PATH)

    data = load_checkins(args.path, min_positions=2)
    print(f"loaded {len(data.arena)} users, "
          f"{data.arena.n_positions} positions, "
          f"{data.pois.shape[0]} distinct POIs")

    n_candidates = min(25, data.pois.shape[0] // 3)
    n_facilities = min(50, data.pois.shape[0] - n_candidates)
    dataset = data.dataset(n_candidates, n_facilities, seed=1, name="checkins")
    stats = compute_stats(dataset)
    print("population statistics:", stats.as_row())

    problem = MC2LSProblem(dataset, k=min(args.k, n_candidates), tau=0.5)
    result = IQTSolver(d_hat=1.0).solve(problem)
    print(f"\nselected sites      : {list(result.selected)}")
    print(f"captured demand     : {result.objective:.2f}")
    print(f"solve wall time     : {result.total_time * 1e3:.1f} ms")
    for site in result.selected:
        covered = result.table.omega_c.get(site, set())
        print(f"  site {site}: influences {len(covered)} users")


if __name__ == "__main__":
    main()
