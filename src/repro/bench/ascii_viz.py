"""ASCII rendering of spatial distributions (the Fig. 9 scatter plots).

No plotting stack is assumed; a density grid rendered with a character
ramp is enough to *see* the uniform-vs-skewed contrast between the two
datasets and to eyeball where a solver placed its selection.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..entities import SpatialDataset
from ..geo import Rect

_RAMP = " .:-=+*#%@"


def density_grid(
    xy: np.ndarray, region: Rect, width: int = 64, height: int = 24
) -> np.ndarray:
    """Bin points into a ``(height, width)`` count grid over ``region``."""
    ix = np.clip(
        ((xy[:, 0] - region.min_x) / max(region.width, 1e-12) * width).astype(int),
        0,
        width - 1,
    )
    iy = np.clip(
        ((xy[:, 1] - region.min_y) / max(region.height, 1e-12) * height).astype(int),
        0,
        height - 1,
    )
    grid = np.zeros((height, width), dtype=int)
    np.add.at(grid, (iy, ix), 1)
    return grid


def render_density(
    xy: np.ndarray,
    region: Rect,
    width: int = 64,
    height: int = 24,
    markers: Optional[Sequence[Tuple[float, float, str]]] = None,
) -> str:
    """Render a point cloud as ASCII density art (origin bottom-left).

    ``markers`` are ``(x, y, char)`` overlays drawn on top of the density
    ramp — used to show facilities and selected candidates.
    """
    grid = density_grid(xy, region, width, height)
    peak = max(int(grid.max()), 1)
    # Log scaling keeps sparse structure visible next to dense clusters.
    levels = np.log1p(grid) / np.log1p(peak)
    chars: List[List[str]] = [
        [_RAMP[min(int(level * (len(_RAMP) - 1)), len(_RAMP) - 1)] for level in row]
        for row in levels
    ]
    if markers:
        for x, y, char in markers:
            ix = min(
                max(int((x - region.min_x) / max(region.width, 1e-12) * width), 0),
                width - 1,
            )
            iy = min(
                max(int((y - region.min_y) / max(region.height, 1e-12) * height), 0),
                height - 1,
            )
            chars[iy][ix] = char[0]
    border = "+" + "-" * width + "+"
    rows = ["|" + "".join(row) + "|" for row in reversed(chars)]
    return "\n".join([border] + rows + [border])


def render_dataset(
    dataset: SpatialDataset,
    width: int = 64,
    height: int = 24,
    selected: Iterable[int] = (),
) -> str:
    """Render a dataset: user-position density, facilities and candidates.

    Overlays: ``F`` existing facilities, ``c`` candidates, ``$`` selected
    candidates.
    """
    xy = dataset.arena.positions
    selected_set = set(selected)
    markers: List[Tuple[float, float, str]] = []
    markers.extend((f.x, f.y, "F") for f in dataset.facilities)
    markers.extend(
        (c.x, c.y, "$" if c.fid in selected_set else "c")
        for c in dataset.candidates
    )
    art = render_density(xy, dataset.region, width, height, markers)
    legend = "density: ' ' low .. '@' high | F existing  c candidate  $ selected"
    return f"{art}\n{legend}"
