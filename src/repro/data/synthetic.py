"""Synthetic dataset generators calibrated to the paper's two datasets.

The paper evaluates on Gowalla *California* (C) and Brightkite *New York*
(N) check-ins.  Those raw dumps are not redistributable here, so these
generators produce populations matching the distributional properties the
paper's analysis actually depends on:

========================  ================  ================
property                  California (C)    New York (N)
========================  ================  ================
users                     10,162            2,725
positions / user (mean)   ≈ 37.5            ≈ 12.5
user-MBR : region area    ≈ 0.085           ≈ 0.029
spatial distribution      uniform           skewed / clustered
facility placement        uniform POIs      clustered, overlapping POIs
========================  ================  ================

Scale defaults are reduced (the harness runs pure Python on a laptop);
pass ``n_users`` to change.  Each generator returns a
:class:`~repro.entities.SpatialDataset` plus enough POIs to let the sweep
benchmarks resample candidate/facility sets without regenerating users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional, Tuple

import numpy as np

from ..entities import MovingUser, SpatialDataset, candidate, existing
from ..entities.user import user_views
from ..exceptions import DataError
from ..influence import PositionArena

# Expected range (max - min) of n standard-normal draws, E[R_n] ~ 2 * E[max].
# Used to back out the per-user position spread from a target MBR size.
def _expected_normal_range(n: int) -> float:
    if n < 2:
        return 1.0
    # Blom-style approximation of E[max of n std normals], doubled.
    return 2.0 * math.sqrt(2.0 * math.log(n)) * (1.0 - math.log(math.log(n) + 1e-9) / (4.0 * math.log(n)))


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything a generator needs to build one population.

    Attributes:
        n_users: Number of moving users.
        mean_positions: Mean positions per user (min is always 2 — the
            paper trims single-position users).
        side: Region side length in km.
        mbr_area_ratio: Target mean ratio of user-MBR area to region area.
        n_clusters: 0 for a uniform population; otherwise the number of
            activity hot spots (skewed populations).
        cluster_sigma_fraction: Hot-spot radius as a fraction of ``side``.
        n_pois: Points of interest available for facility sampling.
    """

    n_users: int
    mean_positions: float
    side: float
    mbr_area_ratio: float
    n_clusters: int
    cluster_sigma_fraction: float
    n_pois: int
    venues_per_user: float = 4.0
    venue_jitter: float = 0.15

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise DataError(f"n_users must be >= 1, got {self.n_users}")
        if self.mean_positions < 2:
            raise DataError("mean_positions must be >= 2 (single-point users are trimmed)")
        if not 0 < self.mbr_area_ratio < 1:
            raise DataError(f"mbr_area_ratio must be in (0, 1), got {self.mbr_area_ratio}")
        if self.side <= 0:
            raise DataError(f"side must be positive, got {self.side}")
        if self.venues_per_user < 1:
            raise DataError("venues_per_user must be >= 1")
        if self.venue_jitter < 0:
            raise DataError("venue_jitter must be non-negative")


@dataclass(frozen=True)
class UserPopulation:
    """Users packed once in an arena plus a POI pool for site sampling."""

    arena: PositionArena
    pois: np.ndarray  # (n_pois, 2)
    default_name: ClassVar[str] = "synthetic"

    @cached_property
    def users(self) -> Tuple[MovingUser, ...]:
        """The users as :class:`MovingUser` views (built on first read)."""
        return user_views(self.arena)

    def dataset(
        self,
        n_candidates: int,
        n_facilities: int,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> SpatialDataset:
        """Sample disjoint candidates and facilities from the POI pool (the
        dataset shares this population's arena)."""
        needed = n_candidates + n_facilities
        if needed > self.pois.shape[0]:
            raise DataError(
                f"need {needed} POIs but the pool holds {self.pois.shape[0]}"
            )
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.pois.shape[0], size=needed, replace=False)
        cands = tuple(
            candidate(i, float(self.pois[j, 0]), float(self.pois[j, 1]))
            for i, j in enumerate(idx[:n_candidates])
        )
        facs = tuple(
            existing(i, float(self.pois[j, 0]), float(self.pois[j, 1]))
            for i, j in enumerate(idx[n_candidates:])
        )
        return SpatialDataset(self.arena, facs, cands, name or self.default_name)


@dataclass(frozen=True)
class SyntheticPopulation(UserPopulation):
    """A generated population (uid = arena row) plus its POI pool."""

    spec: SyntheticSpec


def _draw_position_counts(
    rng: np.random.Generator, n_users: int, mean_positions: float
) -> np.ndarray:
    """Heavy-tailed per-user position counts with the requested mean.

    Log-normal counts reproduce the check-in reality: most users record a
    handful of positions, a tail records hundreds — which is what makes the
    paper's "effect of r" protocol (keep users with > 30 positions) viable.
    """
    sigma = 0.75
    mu = math.log(mean_positions) - sigma**2 / 2.0
    counts = np.maximum(2, np.round(rng.lognormal(mu, sigma, size=n_users))).astype(int)
    return counts


def generate_population(spec: SyntheticSpec, seed: int = 0) -> SyntheticPopulation:
    """Generate a user population and POI pool from a spec."""
    rng = np.random.default_rng(seed)
    side = spec.side
    counts = _draw_position_counts(rng, spec.n_users, spec.mean_positions)

    # Back out the venue spread from the target MBR area ratio: the user
    # MBR is driven by the spread of the user's favourite venues (check-in
    # data revisits a handful of spots), so the expected range of
    # ``venues_per_user`` Gaussian draws must match the target MBR side.
    target_mbr_side = math.sqrt(spec.mbr_area_ratio) * side
    mean_venues = max(2, int(round(spec.venues_per_user)))
    spread = target_mbr_side / _expected_normal_range(mean_venues)

    if spec.n_clusters > 0:
        hotspots = rng.uniform(0.15 * side, 0.85 * side, size=(spec.n_clusters, 2))
        weights = rng.dirichlet(np.full(spec.n_clusters, 1.2))
        cluster_sigma = spec.cluster_sigma_fraction * side

        def draw_centers(n: int) -> np.ndarray:
            which = rng.choice(spec.n_clusters, size=n, p=weights)
            return hotspots[which] + rng.normal(0.0, cluster_sigma, size=(n, 2))

    else:

        def draw_centers(n: int) -> np.ndarray:
            return rng.uniform(0.05 * side, 0.95 * side, size=(n, 2))

    centers = np.clip(draw_centers(spec.n_users), 0.0, side)
    # The counts are drawn up front, so each user is written straight into
    # its arena row: no per-user arrays are kept and packed afterwards.
    offsets = np.concatenate(([0], np.cumsum(counts)))
    flat = np.empty((int(offsets[-1]), 2))
    for uid in range(spec.n_users):
        r = int(counts[uid])
        # Check-in realism: each user frequents a few favourite venues
        # (home, work, hangouts) with a skewed preference, and every
        # recorded position is a small jitter around one of them.  This is
        # what makes position-count pruning (the IS rule) meaningful — iid
        # position clouds never concentrate the way real check-ins do.
        n_venues = max(1, int(rng.poisson(spec.venues_per_user)))
        venues = rng.normal(centers[uid], spread, size=(n_venues, 2))
        preferences = rng.dirichlet(np.full(n_venues, 0.8))
        visit = rng.choice(n_venues, size=r, p=preferences)
        pos = venues[visit] + rng.normal(0.0, spec.venue_jitter, size=(r, 2))
        np.clip(pos, 0.0, side, out=flat[offsets[uid] : offsets[uid + 1]])
    flat.setflags(write=False)

    # POIs follow the same spatial law as users — facilities gather where
    # customers appear (the paper's observation on dataset N).
    pois = np.clip(draw_centers(spec.n_pois), 0.0, side)
    arena = PositionArena(flat, offsets, np.arange(spec.n_users, dtype=np.int64))
    return SyntheticPopulation(arena, pois, spec)


# ----------------------------------------------------------------------
# The two paper-calibrated populations
# ----------------------------------------------------------------------
def california_spec(n_users: int = 2000, side: float = 200.0) -> SyntheticSpec:
    """Spec matching Gowalla California's distributional fingerprint."""
    return SyntheticSpec(
        n_users=n_users,
        mean_positions=37.5,
        side=side,
        mbr_area_ratio=0.085,
        n_clusters=0,
        cluster_sigma_fraction=0.0,
        n_pois=2000,
        venues_per_user=6.0,
        venue_jitter=0.2,
    )


def new_york_spec(n_users: int = 550, side: float = 50.0) -> SyntheticSpec:
    """Spec matching Brightkite New York's distributional fingerprint."""
    return SyntheticSpec(
        n_users=n_users,
        mean_positions=12.5,
        side=side,
        mbr_area_ratio=0.029,
        n_clusters=4,
        cluster_sigma_fraction=0.045,
        n_pois=2000,
        venues_per_user=3.0,
        venue_jitter=0.1,
    )


def california_like(
    n_users: int = 2000,
    n_candidates: int = 100,
    n_facilities: int = 200,
    seed: int = 0,
    side: float = 200.0,
) -> SpatialDataset:
    """A ready-to-solve California-like (uniform) dataset."""
    population = generate_population(california_spec(n_users, side), seed=seed)
    return population.dataset(n_candidates, n_facilities, seed=seed + 1, name="C-like")


def new_york_like(
    n_users: int = 550,
    n_candidates: int = 100,
    n_facilities: int = 200,
    seed: int = 0,
    side: float = 50.0,
) -> SpatialDataset:
    """A ready-to-solve New-York-like (skewed/clustered) dataset."""
    population = generate_population(new_york_spec(n_users, side), seed=seed)
    return population.dataset(n_candidates, n_facilities, seed=seed + 1, name="N-like")
