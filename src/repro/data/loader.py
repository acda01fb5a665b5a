"""Loader for SNAP-format check-in files (Brightkite / Gowalla).

The paper's real datasets come from the SNAP location-based social network
dumps.  Each line of ``*_totalCheckins.txt`` is::

    [user id] \t [check-in time ISO8601] \t [latitude] \t [longitude] \t [location id]

This loader parses such files, projects positions into a local km-space,
trims users below a minimum position count (the paper removes users with
one position), and can restrict to a bounding box (e.g. the New York
metropolitan area).  Distinct location ids become the POI pool for
candidate/facility sampling, mirroring the paper's "randomly choose
distinct locations from real points of interest".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import DataError
from ..geo import EquirectangularProjection
from ..influence import PositionArena
from .synthetic import UserPopulation


@dataclass(frozen=True)
class LatLonBox:
    """A latitude/longitude bounding box filter."""

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self) -> None:
        if self.min_lat > self.max_lat or self.min_lon > self.max_lon:
            raise DataError("invalid lat/lon box")

    def contains(self, lat: float, lon: float) -> bool:
        """Return ``True`` when the coordinate lies inside the box."""
        return (
            self.min_lat <= lat <= self.max_lat
            and self.min_lon <= lon <= self.max_lon
        )


NEW_YORK_BOX = LatLonBox(40.45, -74.30, 41.00, -73.60)
"""The New York metro bounding box used to carve dataset N."""

CALIFORNIA_BOX = LatLonBox(32.30, -124.50, 42.10, -114.10)
"""The California bounding box used to carve dataset C."""


@dataclass(frozen=True)
class CheckinData(UserPopulation):
    """Parsed check-ins: per-user positions (km-space) and the POI pool."""

    projection: EquirectangularProjection
    default_name: ClassVar[str] = "checkins"


def load_checkins(
    path: str | Path,
    bbox: Optional[LatLonBox] = None,
    min_positions: int = 2,
    max_users: Optional[int] = None,
) -> CheckinData:
    """Parse a SNAP check-in file into km-space moving users.

    Args:
        path: The ``*_totalCheckins.txt`` file.
        bbox: Optional lat/lon filter applied per check-in.
        min_positions: Users with fewer surviving positions are dropped
            (the paper uses 2).
        max_users: Optional cap, keeping the users with the most check-ins
            first (deterministic).

    Raises:
        DataError: On unparseable rows or when nothing survives filtering.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"check-in file not found: {path}")
    raw_positions: Dict[int, List[Tuple[float, float]]] = {}
    poi_latlon: Dict[str, Tuple[float, float]] = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise DataError(f"{path}:{line_no}: expected 5 fields, got {len(parts)}")
            try:
                uid = int(parts[0])
                lat = float(parts[2])
                lon = float(parts[3])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from exc
            if lat == 0.0 and lon == 0.0:
                continue  # SNAP dumps use (0, 0) for missing fixes
            if bbox is not None and not bbox.contains(lat, lon):
                continue
            if not (math.isfinite(lat) and math.isfinite(lon)):
                raise DataError(f"{path}:{line_no}: non-finite coordinate")
            raw_positions.setdefault(uid, []).append((lat, lon))
            poi_latlon.setdefault(parts[4], (lat, lon))
    survivors = {
        uid: pos for uid, pos in raw_positions.items() if len(pos) >= min_positions
    }
    if not survivors:
        raise DataError(f"no users with >= {min_positions} positions in {path}")
    if max_users is not None:
        keep = sorted(survivors, key=lambda uid: -len(survivors[uid]))[:max_users]
        survivors = {uid: survivors[uid] for uid in keep}

    all_latlon = np.array(
        [p for positions in survivors.values() for p in positions], dtype=float
    )
    projection = EquirectangularProjection.centered_on(all_latlon)
    uids = sorted(survivors)
    lens = np.array([len(survivors[uid]) for uid in uids], dtype=np.int64)
    flat = projection.to_xy_array(np.array([p for uid in uids for p in survivors[uid]]))
    flat.setflags(write=False)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    arena = PositionArena(flat, offsets, np.arange(len(uids), dtype=np.int64))
    pois = projection.to_xy_array(np.array(list(poi_latlon.values()), dtype=float))
    return CheckinData(arena, pois, projection)
