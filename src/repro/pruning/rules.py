"""The four pruning rules as first-class, measurable objects.

Two families:

* **Facility-pruning** (PINOCCHIO): for each user, the IA region
  confirms facilities and the NIB region eliminates them.
  :func:`classify_pairs` makes both decisions for a whole array of
  ``(facility, user)`` pairs at once (the IQT resolve's NIB phase uses
  it), and :func:`prune_and_verify` is Algorithm 1's filter-and-verify
  over arena rows × sites: NIB and IA on every pair, then one batched
  verification of the survivors per chunk of pairs.  Adapted k-CIFP, the
  serving patch and the streaming bootstrap resolve through it.
  :class:`PinocchioPruner` is the per-user R-tree form of the same rules;
  only :mod:`repro.oracle` and the tests run it.
* **User-pruning** (this paper's contribution): the IS rule (Lemma 2)
  confirms users within a square by position count; the NIR rule (Lemma 3)
  eliminates users with no position near the square.  The stateless
  single-square forms live here for direct testing and for the rule-level
  benchmarks (Fig. 8); the hierarchical, memoised deployment lives in
  :class:`repro.spatial.iquadtree.IQuadTree`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..entities import AbstractFacility, MovingUser
from ..geo import Rect, RoundedSquare, Square
from ..influence import (
    BatchInfluenceEvaluator,
    PositionArena,
    ProbabilityFunction,
    min_max_radius,
)
from ..spatial.rtree import RTree
from .regions import UserPruningRegions, regions_for
from .stats import PruningStats


# ----------------------------------------------------------------------
# Single-square forms of the paper's rules (Lemmas 2 and 3)
# ----------------------------------------------------------------------
def is_rule_confirms(
    square: Rect,
    eta: int,
    positions: np.ndarray,
) -> bool:
    """Lemma 2 (IS rule): ``True`` when any facility inside ``square``
    necessarily influences the user.

    ``square`` must be a square whose diagonal is the ``d̂`` from which
    ``eta = ⌈η(τ, PF, d̂)⌉`` was computed; the rule holds when at least
    ``eta`` of the user's positions fall inside the square.
    """
    if eta >= 2**62:
        return False
    return square.count_inside(positions) >= eta


def nir_rule_prunes(
    square: Rect,
    nir: float,
    positions: np.ndarray,
    exact_rounded: bool = False,
) -> bool:
    """Lemma 3 (NIR rule): ``True`` when no facility inside ``square`` can
    influence the user.

    The sound test is "no position inside the NIR rounded square"; the
    paper relaxes to the rounded square's MBR (rectangle ``EFGH``), which
    is what ``exact_rounded=False`` checks.
    """
    if exact_rounded:
        shape = RoundedSquare(Square.from_rect(square), nir)
        return not shape.contains_mask(positions).any()
    expanded = square.expanded(nir)
    return not expanded.contains_mask(positions).any()


# ----------------------------------------------------------------------
# PINOCCHIO facility pruning, one user at a time (IA + NIB over an R-tree)
# ----------------------------------------------------------------------
@dataclass
class FacilityClassification:
    """Outcome of IA/NIB pruning of all facilities against one user."""

    confirmed: List[AbstractFacility]
    verify: List[AbstractFacility]


class PinocchioPruner:
    """Runs the IA and NIB rules for users against an indexed facility set.

    The per-user reference form of :func:`classify_pairs`: one R-tree
    range query and per-facility region tests per user.  Production
    resolves through :func:`prune_and_verify`; :mod:`repro.oracle` and
    the tests run this class.

    Args:
        facilities: The abstract facilities to classify (candidates or
            competitors — Algorithm 1 uses one pruner per set).
        tau: Influence threshold.
        pf: Distance-decay probability function.
        use_ia: When ``False``, the IA confirmation step is skipped and
            everything inside NIB goes to verification (this is how the
            IQT algorithm consumes NIB — the paper drops IA because the IS
            rule subsumes it, cf. Table I).
    """

    def __init__(
        self,
        facilities: Sequence[AbstractFacility],
        tau: float,
        pf: ProbabilityFunction,
        use_ia: bool = True,
        max_entries: int = 8,
    ):
        self.facilities = list(facilities)
        self.tau = tau
        self.pf = pf
        self.use_ia = use_ia
        self.stats = PruningStats()
        self.range_queries = 0
        self._tree = RTree.from_points(
            ((f.location, f) for f in self.facilities), max_entries=max_entries
        )

    def regions_for_user(self, user: MovingUser) -> UserPruningRegions:
        """Build the user's IA/NIB regions under this pruner's ``(τ, PF)``."""
        return regions_for(user, self.tau, self.pf)

    def classify_user(self, user: MovingUser) -> FacilityClassification:
        """Classify every indexed facility against ``user``.

        Facilities not returned in either list were pruned by NIB.
        """
        regions = self.regions_for_user(user)
        self.range_queries += 1
        in_nib_rect = self._tree.range_query(regions.nib_rect())
        confirmed: List[AbstractFacility] = []
        verify: List[AbstractFacility] = []
        for facility in in_nib_rect:
            # The range query uses the NIB MBR; refine with the exact
            # rounded-rectangle NIB shape.
            if not regions.nib_contains(facility.location):
                continue
            if self.use_ia and regions.ia_contains(facility.location):
                confirmed.append(facility)
            else:
                verify.append(facility)
        self.stats.add(
            confirmed=len(confirmed),
            verify=len(verify),
            pruned=len(self.facilities) - len(confirmed) - len(verify),
        )
        return FacilityClassification(confirmed, verify)


# ----------------------------------------------------------------------
# PINOCCHIO facility pruning over arrays of (facility, user) pairs
# ----------------------------------------------------------------------
# A vectorised distance this close to the radius is recomputed with
# ``math.hypot``, the function the scalar regions use, before deciding.
_HYPOT_ULPS = 4


def _hypot_le(dx: np.ndarray, dy: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """``math.hypot(dx, dy) <= limit`` elementwise.

    ``np.hypot`` and ``math.hypot`` may differ in the last bits, so the
    pairs whose vectorised distance lies within a few ulps of ``limit``
    are decided again with ``math.hypot``.
    """
    d = np.hypot(dx, dy)
    inside = d <= limit
    for i in np.flatnonzero(np.abs(d - limit) <= _HYPOT_ULPS * np.spacing(limit)).tolist():
        inside[i] = math.hypot(dx[i], dy[i]) <= limit[i]
    return inside


def _row_bounds(
    arena: PositionArena,
    rows: Optional[np.ndarray],
    tau: float,
    pf: ProbabilityFunction,
) -> Tuple[np.ndarray, ...]:
    """``(min_x, max_x, min_y, max_y, mMR)`` of the users in arena ``rows``
    (every row when ``None``): MBRs from one ``reduceat`` over their
    positions, ``mMR`` from one :func:`min_max_radius` per distinct
    position count."""
    flat, lens = arena.gather(rows)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    radius = np.zeros(int(lens.max()) + 1)
    for r in np.flatnonzero(np.bincount(lens)).tolist():
        radius[r] = min_max_radius(tau, r, pf)
    xs = flat[:, 0]
    ys = flat[:, 1]
    return (
        np.minimum.reduceat(xs, starts),
        np.maximum.reduceat(xs, starts),
        np.minimum.reduceat(ys, starts),
        np.maximum.reduceat(ys, starts),
        radius[lens],
    )


def _decide(
    bounds: Sequence[np.ndarray], fx: np.ndarray, fy: np.ndarray, use_ia: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """NIB/IA decisions of pairs given each pair's user ``bounds``
    (:func:`_row_bounds`, one entry per pair): ``(verify, confirmed)``.
    The distance tests run only on the pairs inside the NIB rectangle."""
    min_x, max_x, min_y, max_y, mmr = bounds
    verify = (
        (min_x - mmr <= fx) & (fx <= max_x + mmr) & (min_y - mmr <= fy) & (fy <= max_y + mmr)
    )
    confirmed = np.zeros_like(verify)
    near = np.flatnonzero(verify)
    min_x, max_x, min_y, max_y, mmr = (b[near] for b in bounds)
    x, y = fx[near], fy[near]
    near_x = np.maximum(np.maximum(min_x - x, 0.0), x - max_x)
    near_y = np.maximum(np.maximum(min_y - y, 0.0), y - max_y)
    nib = _hypot_le(near_x, near_y, mmr)
    if use_ia:
        far_x = np.maximum(np.abs(x - min_x), np.abs(x - max_x))
        far_y = np.maximum(np.abs(y - min_y), np.abs(y - max_y))
        ia = nib & (mmr > 0.0) & _hypot_le(far_x, far_y, mmr)
        confirmed[near] = ia
        nib &= ~ia
    verify[near] = nib
    return verify, confirmed


def classify_pairs(
    arena: PositionArena,
    rows: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    tau: float,
    pf: ProbabilityFunction,
    use_ia: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """IA/NIB decisions for many ``(facility, user)`` pairs at once.

    Pair ``i`` is the facility at ``(fx[i], fy[i])`` against the user in
    arena row ``rows[i]``.  Each decision equals the per-user
    :class:`PinocchioPruner`'s for that pair: the facility must lie in
    the user's NIB rectangle (the R-tree range query) and within ``mMR``
    of the user's MBR (the exact NIB shape); with ``use_ia`` it is
    confirmed when the farthest MBR corner is within a positive ``mMR``.
    The MBRs and radii are computed once over the whole arena.

    Returns:
        ``(verify, confirmed)`` boolean masks over the pairs; a pair in
        neither was pruned by NIB.
    """
    bounds = [b[rows] for b in _row_bounds(arena, None, tau, pf)]
    return _decide(bounds, fx, fy, use_ia)


# The pairs of one ``prune_and_verify`` call are classified and verified
# this many at a time, so a resolve over millions of pairs keeps its
# per-pair work arrays small.
_CHUNK_PAIRS = 1 << 16


def _classified(
    arena: PositionArena,
    rows: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    tau: float,
    pf: ProbabilityFunction,
    stats: PruningStats,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(sites, pair_rows, verify, confirmed)`` for the pairs of the
    sorted unique ``rows`` × every site, site-major, ``_CHUNK_PAIRS`` at a
    time, with IA on, and count each chunk into ``stats``.  MBRs and
    radii are computed for ``rows`` only."""
    n_rows = rows.size
    n_pairs = n_rows * fx.size
    if n_pairs == 0:
        return
    bounds = _row_bounds(arena, None if n_rows == len(arena) else rows, tau, pf)
    for a in range(0, n_pairs, _CHUNK_PAIRS):
        sites, i = np.divmod(np.arange(a, min(a + _CHUNK_PAIRS, n_pairs)), n_rows)
        verify, confirmed = _decide([b[i] for b in bounds], fx[sites], fy[sites], True)
        n_verify = int(np.count_nonzero(verify))
        n_confirmed = int(np.count_nonzero(confirmed))
        stats.add(
            confirmed=n_confirmed,
            verify=n_verify,
            pruned=sites.size - n_confirmed - n_verify,
        )
        yield sites, rows[i], verify, confirmed


def prune_and_verify(
    arena: PositionArena,
    rows: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    batch: BatchInfluenceEvaluator,
) -> Tuple[np.ndarray, PruningStats]:
    """Algorithm 1's filter-and-verify over arena ``rows`` × sites.

    Every pair of a site ``(fx[j], fy[j])`` and a user in ``rows`` is
    classified with NIB and IA (the decisions of :func:`classify_pairs`):
    IA-confirmed pairs influence, NIB-pruned pairs do not, and the rest
    are verified with one ``batch.influences_users`` call per chunk of
    pairs, so the caller's evaluator fixes the counter model.  Keys and
    counters do not depend on the chunking.

    Returns:
        ``(keys, stats)`` — the sorted keys ``j * len(arena) + row`` of
        the pairs whose site influences the user, and the pair counts of
        the classification.
    """
    rows = np.unique(np.asarray(rows, dtype=np.int64))
    stats = PruningStats()
    keys = [np.empty(0, dtype=np.int64)]
    chunks = _classified(arena, rows, fx, fy, batch.tau, batch.pf, stats)
    for sites, pair_rows, verify, hit in chunks:
        if verify.any():
            s = sites[verify]
            hit[verify] = batch.influences_users(fx[s], fy[s], arena, pair_rows[verify])
        keys.append(sites[hit] * len(arena) + pair_rows[hit])
    return np.concatenate(keys), stats


# ----------------------------------------------------------------------
# Rule-level measurement helpers (Fig. 8 compares these head-to-head)
# ----------------------------------------------------------------------
def measure_pinocchio_pruning(
    users: Union[PositionArena, Sequence[MovingUser]],
    facilities: Sequence[AbstractFacility],
    tau: float,
    pf: ProbabilityFunction,
) -> PruningStats:
    """Classify all (facility, user) pairs with IA/NIB and return the stats."""
    arena = users if isinstance(users, PositionArena) else PositionArena.from_users(users)
    fx = np.array([f.x for f in facilities], dtype=np.float64)
    fy = np.array([f.y for f in facilities], dtype=np.float64)
    stats = PruningStats()
    for _ in _classified(arena, np.arange(len(arena)), fx, fy, tau, pf, stats):
        pass
    return stats


def measure_iquadtree_pruning(
    users: Union[PositionArena, Sequence[MovingUser]],
    facilities: Sequence[AbstractFacility],
    tau: float,
    pf: ProbabilityFunction,
    d_hat: float,
    region: Rect,
    exact_rounded: bool = False,
) -> Tuple[PruningStats, "IQuadTreeStatsView"]:
    """Classify all (facility, user) pairs with the IS/NIR rules.

    Returns aggregate :class:`PruningStats` plus a view of the underlying
    IQuad-tree counters (cache hits etc.) for the deeper analyses.
    """
    from ..spatial.iquadtree import IQuadTree  # local import avoids a cycle

    tree = IQuadTree(users, d_hat=d_hat, tau=tau, pf=pf, region=region,
                     exact_rounded=exact_rounded)
    tree.traverse([f.x for f in facilities], [f.y for f in facilities])
    stats = PruningStats(
        confirmed=tree.stats.pairs_is_confirmed,
        pruned=tree.stats.pairs_nir_pruned,
        verify=tree.stats.pairs_to_verify,
    )
    return stats, IQuadTreeStatsView(
        traversals=tree.stats.traversals,
        leaf_cache_hits=tree.stats.leaf_cache_hits,
        nodes=tree.node_count,
        leaves=tree.leaf_count,
    )


@dataclass
class IQuadTreeStatsView:
    """Read-only snapshot of IQuad-tree traversal counters."""

    traversals: int
    leaf_cache_hits: int
    nodes: int
    leaves: int
