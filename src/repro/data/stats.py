"""Dataset statistics — the quantities the paper uses to characterise C vs N.

Fig. 9 and the surrounding prose explain pruning behaviour through three
numbers: positions per km², the user-MBR-to-region area ratio, and the
skewness of the spatial distribution.  This module computes all of them so
the benchmark harness can print the same characterisation table for the
synthetic populations and verify the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..entities import SpatialDataset


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics of one dataset.

    Attributes:
        n_users: User count.
        n_positions: Total recorded positions.
        mean_positions_per_user: Mean ``r``.
        max_positions_per_user: ``r_max`` (drives NIR).
        positions_per_km2: Position density over the region.
        mean_mbr_area_ratio: Mean user-MBR area / region area — the
            overlap driver the paper reports (0.085 in C, 0.029 in N).
        gini_cell_occupancy: Gini coefficient of per-grid-cell position
            counts: ~0 for uniform spreads, →1 for heavy clustering.
    """

    name: str
    n_users: int
    n_positions: int
    mean_positions_per_user: float
    max_positions_per_user: int
    positions_per_km2: float
    mean_mbr_area_ratio: float
    gini_cell_occupancy: float

    def as_row(self) -> dict:
        """Flat dict for benchmark reporting."""
        return {
            "dataset": self.name,
            "users": self.n_users,
            "positions": self.n_positions,
            "r_mean": round(self.mean_positions_per_user, 2),
            "r_max": self.max_positions_per_user,
            "pos_per_km2": round(self.positions_per_km2, 3),
            "mbr_ratio": round(self.mean_mbr_area_ratio, 4),
            "gini": round(self.gini_cell_occupancy, 3),
        }


def _gini(counts: np.ndarray) -> float:
    """Gini coefficient of a non-negative count vector."""
    if counts.size == 0:
        return 0.0
    sorted_counts = np.sort(counts.astype(float))
    total = sorted_counts.sum()
    if total <= 0:
        return 0.0
    n = sorted_counts.size
    cum = np.cumsum(sorted_counts)
    # Standard formula: G = (n + 1 - 2 * sum(cum) / total) / n
    return float((n + 1 - 2 * (cum / total).sum()) / n)


def _user_mbrs(arena) -> tuple[np.ndarray, np.ndarray]:
    """Every user's MBR corners ``(lo, hi)``: one segmented pass over the arena."""
    pos, starts = arena.positions, arena.offsets[:-1]
    return np.minimum.reduceat(pos, starts), np.maximum.reduceat(pos, starts)


def compute_stats(dataset: SpatialDataset, grid_cells: int = 32) -> DatasetStats:
    """Compute the characterisation statistics of a dataset.

    ``grid_cells`` controls the occupancy grid used for the Gini skewness
    measure (``grid_cells x grid_cells`` over the region).

    Degenerate populations (no users, hence no positions) produce defined
    zeros for every ratio rather than NaNs or a crash.
    """
    # Before any region access: a population with no users has no arena (an
    # arena refuses zero rows) and may have no well-defined region at all.
    arena = getattr(dataset, "arena", None)
    if arena is None:
        return DatasetStats(dataset.name, 0, 0, 0.0, 0, 0.0, 0.0, 0.0)
    region = dataset.region
    region_area = max(region.area, 1e-12)
    counts_r = arena.lengths()
    lo, hi = _user_mbrs(arena)
    corner, size = [region.min_x, region.min_y], np.maximum([region.width, region.height], 1e-12)
    cells = np.clip(((arena.positions - corner) / size * grid_cells).astype(int), 0, grid_cells - 1)
    occupancy = np.bincount(cells[:, 0] * grid_cells + cells[:, 1], minlength=grid_cells**2)
    return DatasetStats(
        name=dataset.name,
        n_users=len(arena),
        n_positions=int(counts_r.sum()),
        mean_positions_per_user=float(counts_r.mean()),
        max_positions_per_user=int(counts_r.max()),
        positions_per_km2=float(counts_r.sum()) / region_area,
        mean_mbr_area_ratio=float((np.prod(hi - lo, axis=1) / region_area).mean()),
        gini_cell_occupancy=_gini(occupancy),
    )


def mbr_overlap_fraction(dataset: SpatialDataset, sample: int = 200, seed: int = 0) -> float:
    """Fraction of sampled user-MBR pairs that overlap (closed rectangles).

    The paper motivates user-pruning hardness with "highly overlapped
    MBRs"; this measures exactly that on a random pair sample.
    """
    n_users = len(dataset.arena)
    n = min(sample, n_users * (n_users - 1) // 2)
    if n < 1:
        return 0.0
    lo, hi = _user_mbrs(dataset.arena)
    rng = np.random.default_rng(seed)
    i, j = np.array([rng.choice(n_users, size=2, replace=False) for _ in range(n)]).T
    return float(np.mean(np.all((lo[i] <= hi[j]) & (lo[j] <= hi[i]), axis=1)))
