"""Problem-instance container: users, competitors and candidates together.

A :class:`SpatialDataset` bundles the three entity collections of an MC²LS
instance.  The users are held once, in a :class:`~repro.influence.PositionArena`
that every production path reads; ``users`` (:class:`MovingUser` views
for the scalar oracle and the tests), the region MBR and ``r_max``
are derived on first read and cached.  Datasets are immutable after
construction; experiment sweeps derive new datasets via the ``with_*`` /
``subsample`` methods instead of mutating shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import DataError
from ..geo import Rect
from ..influence.batch import PositionArena
from .facility import AbstractFacility, FacilityKind
from .user import MovingUser, user_views


@dataclass(frozen=True)
class SpatialDataset:
    """An immutable MC²LS problem instance (without k / τ / PF).

    Attributes:
        arena: The moving-user population ``Ω``, one arena row per user.
        facilities: Existing competitor facilities ``F``.
        candidates: Candidate locations ``C``.
        name: Human-readable label used in benchmark output.
    """

    arena: PositionArena
    facilities: tuple[AbstractFacility, ...]
    candidates: tuple[AbstractFacility, ...]
    name: str = "dataset"

    def __post_init__(self) -> None:
        for f in self.facilities:
            if f.kind is not FacilityKind.EXISTING:
                raise DataError(f"facility {f.fid} is not of kind EXISTING")
        for c in self.candidates:
            if c.kind is not FacilityKind.CANDIDATE:
                raise DataError(f"candidate {c.fid} is not of kind CANDIDATE")
        for label, ids in (
            ("facility", [f.fid for f in self.facilities]),
            ("candidate", [c.fid for c in self.candidates]),
        ):
            if len(set(ids)) != len(ids):
                raise DataError(f"duplicate {label} ids in dataset")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @cached_property
    def users(self) -> tuple[MovingUser, ...]:
        """The users as :class:`MovingUser` views of the arena rows (a Python
        object per user; production paths read :attr:`arena` instead)."""
        return user_views(self.arena)

    @cached_property
    def region(self) -> Rect:
        """MBR of everything in the dataset (users and facilities).

        Derived on first read from the position arena (one min/max pass)
        and the facility and candidate points, then cached.
        """
        positions = self.arena.positions
        sites = [[v.x, v.y] for v in self.abstract_facilities]
        return Rect.from_array(np.vstack((
            positions.min(axis=0),
            positions.max(axis=0),
            np.array(sites, dtype=np.float64).reshape(-1, 2),
        )))

    @cached_property
    def r_max(self) -> int:
        """Maximum position count over all users (drives ``NIR``)."""
        return int(self.arena.lengths().max())

    @property
    def n_positions(self) -> int:
        """Total number of recorded positions across all users."""
        return self.arena.n_positions

    @property
    def abstract_facilities(self) -> tuple[AbstractFacility, ...]:
        """All abstract facilities ``C ∪ F`` (candidates first)."""
        return self.candidates + self.facilities

    def describe(self) -> str:
        """One-line summary used by benchmark reports."""
        return (
            f"{self.name}: |Ω|={len(self.arena)} positions={self.n_positions} "
            f"|F|={len(self.facilities)} |C|={len(self.candidates)} "
            f"region={self.region.width:.1f}x{self.region.height:.1f} km"
        )

    # ------------------------------------------------------------------
    # Derivation helpers for experiment sweeps
    # ------------------------------------------------------------------
    def with_users(self, users: Iterable[MovingUser]) -> "SpatialDataset":
        """Return a copy with a different user population."""
        return SpatialDataset.build(users, self.facilities, self.candidates, self.name)

    def with_candidates(self, candidates: Iterable[AbstractFacility]) -> "SpatialDataset":
        """Return a copy with a different candidate set."""
        return SpatialDataset(self.arena, self.facilities, tuple(candidates), self.name)

    def with_facilities(self, facilities: Iterable[AbstractFacility]) -> "SpatialDataset":
        """Return a copy with a different competitor set."""
        return SpatialDataset(self.arena, tuple(facilities), self.candidates, self.name)

    def subsample_users(self, n: int, seed: int = 0) -> "SpatialDataset":
        """Return a copy keeping ``n`` users sampled without replacement."""
        if not 1 <= n <= len(self.arena):
            raise DataError(f"cannot sample {n} of {len(self.arena)} users")
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self.arena), size=n, replace=False)
        return SpatialDataset(
            self.arena.take(np.sort(idx)), self.facilities, self.candidates, self.name
        )

    def subsample_positions(self, r: int, seed: int = 0) -> "SpatialDataset":
        """Keep users with at least ``r`` positions, sampled down to ``r``.

        This mirrors the paper's "effect of r" protocol (Figs. 15–16):
        choose users with over ``r`` positions and randomly sample exactly
        ``r`` from each, one ``rng.choice`` per kept row in row order.
        """
        rng = np.random.default_rng(seed)
        rows = np.flatnonzero(self.arena.lengths() >= r).tolist()
        if r < 1 or not rows:
            raise DataError(f"no user has >= {r} positions to sample")
        picked = [self.arena.row(i) for i in rows]
        picked = [p[np.sort(rng.choice(len(p), size=r, replace=False))] for p in picked]
        flat = np.concatenate(picked)
        flat.setflags(write=False)
        kept = PositionArena(flat, np.arange(len(rows) + 1) * r, self.arena.uids[rows])
        return SpatialDataset(kept, self.facilities, self.candidates, self.name)

    @staticmethod
    def build(
        users: Iterable[MovingUser],
        facilities: Sequence[AbstractFacility],
        candidates: Sequence[AbstractFacility],
        name: str = "dataset",
    ) -> "SpatialDataset":
        """Pack ``users`` once into an arena, in the given order, and wrap it."""
        return SpatialDataset(
            PositionArena.from_users(users), tuple(facilities), tuple(candidates), name
        )
