"""Moving users — multisets of activity positions (paper §III-A).

A moving user is a series of ``r`` recorded positions in the plane.  The
order of positions is irrelevant to the influence model (the cumulative
probability is a product over positions), so a user is effectively a point
multiset with an identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..exceptions import DataError
from ..geo import Rect


@dataclass(frozen=True)
class MovingUser:
    """A moving user with an id and an immutable ``(r, 2)`` position array.

    Attributes:
        uid: Stable integer identifier, unique within a dataset.
        positions: ``(r, 2)`` float array of activity positions (km-space).
            The array is marked read-only at construction so cached
            derived values (the MBR) can never go stale.
    """

    uid: int
    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] == 0:
            raise DataError(
                f"user {self.uid}: positions must be a non-empty (r, 2) array, "
                f"got shape {pos.shape}"
            )
        if not np.isfinite(pos).all():
            raise DataError(f"user {self.uid}: positions contain NaN/inf")
        pos = np.ascontiguousarray(pos)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def r(self) -> int:
        """Number of recorded positions."""
        return self.positions.shape[0]

    @cached_property
    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the user's positions (computed on
        first read, then cached)."""
        return Rect.from_array(self.positions)

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MovingUser):
            return NotImplemented
        return self.uid == other.uid


def user_views(arena) -> tuple[MovingUser, ...]:
    """One :class:`MovingUser` per arena row, its positions a view of the row."""
    return tuple(MovingUser(uid, arena.row(i)) for i, uid in enumerate(arena.uids.tolist()))
