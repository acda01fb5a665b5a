"""Per-(site, user) utilities shared by the set-aware capture models.

Both the MNL and the fixed-worlds model need a deterministic utility
``u_s(o)`` for every site ``s`` (candidate or existing facility) and user
``o``.  The utility is the *cumulative influence probability* of the
site over the user's position history under the instance's
distance-decay ``PF``:
``u_s(o) = 1 − Π_i (1 − PF(dist(s, p_i)))`` — already in ``[0, 1]``,
monotone in proximity, and computed from machinery the repository
calibrates anyway.

:class:`SiteUtilities` evaluates all sites for one user in a single
vectorized pass and memoises per user, so resolving a model's masses is
one ``(r × n_sites)`` distance block per user rather than one scalar
call per (site, user) pair.

**Rival-candidate convention.**  The two-player round
(:mod:`repro.capture.best_response`) lets previously *selectable*
candidates act as competitors.  Candidate ids and facility ids live in
separate namespaces (both may start at 0), so a rival candidate ``c``
entering a user's competitor set ``F_o`` is recorded under the synthetic
id ``rival_competitor_id(c) = -c - 1`` — always negative, hence
collision-free with real facility ids.  :meth:`SiteUtilities.competitor_utility`
resolves negative ids back to the candidate's utility, and the
evenly-split model simply counts them (``competitor_count`` is
id-agnostic), so *every* capture model handles rival tables untouched.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..entities import SpatialDataset
from ..exceptions import CaptureError
from ..influence import ProbabilityFunction


def rival_competitor_id(cid: int) -> int:
    """Synthetic competitor id of a rival candidate (always negative)."""
    return -int(cid) - 1


def rival_candidate_id(fid: int) -> int:
    """Invert :func:`rival_competitor_id` (requires ``fid < 0``)."""
    if fid >= 0:
        raise CaptureError(f"{fid} is not a synthetic rival competitor id")
    return -int(fid) - 1


class SiteUtilities:
    """Cumulative-influence utilities of every site for every user.

    Args:
        dataset: Supplies the users' position histories (its arena) and
            the site coordinates (candidates and existing facilities).
        pf: Distance-decay probability function.

    Per-user utility vectors are computed lazily (one vectorized pass
    over all sites) and cached; the class is read-only after
    construction apart from that cache, and look-ups are deterministic,
    so one instance may back several capture models.
    """

    def __init__(self, dataset: SpatialDataset, pf: ProbabilityFunction) -> None:
        self._arena = dataset.arena
        self._rows = dict(zip(self._arena.uids.tolist(), range(len(self._arena))))
        self._pf = pf
        candidates = list(dataset.candidates)
        facilities = list(dataset.facilities)
        self._cand_col: Dict[int, int] = {
            c.fid: j for j, c in enumerate(candidates)
        }
        self._fac_col: Dict[int, int] = {
            f.fid: len(candidates) + j for j, f in enumerate(facilities)
        }
        self._xy = np.array(
            [[s.x, s.y] for s in candidates + facilities], dtype=np.float64
        ).reshape(-1, 2)
        self._cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _user_utilities(self, uid: int) -> np.ndarray:
        cached = self._cache.get(uid)
        if cached is not None:
            return cached
        row = self._rows.get(uid)
        if row is None:
            raise CaptureError(f"utilities requested for unknown user {uid}")
        pos = self._arena.row(row)  # (r, 2)
        if self._xy.shape[0] == 0:
            out = np.zeros(0, dtype=np.float64)
        else:
            d = np.hypot(
                pos[:, 0, None] - self._xy[None, :, 0],
                pos[:, 1, None] - self._xy[None, :, 1],
            )  # (r, n_sites)
            survival = 1.0 - self._pf(d)
            out = 1.0 - np.prod(survival, axis=0)
        self._cache[uid] = out
        return out

    # ------------------------------------------------------------------
    def candidate_utility(self, cid: int, uid: int) -> float:
        """``u_c(o)`` of candidate ``cid`` for user ``uid``."""
        col = self._cand_col.get(int(cid))
        if col is None:
            raise CaptureError(f"unknown candidate {cid} in utility lookup")
        return float(self._user_utilities(int(uid))[col])

    def competitor_utility(self, fid: int, uid: int) -> float:
        """``u_f(o)`` of a competitor — a facility id, or a synthetic
        negative id naming a rival candidate (two-player round)."""
        fid = int(fid)
        if fid < 0:
            return self.candidate_utility(rival_candidate_id(fid), uid)
        col = self._fac_col.get(fid)
        if col is None:
            raise CaptureError(f"unknown facility {fid} in utility lookup")
        return float(self._user_utilities(int(uid))[col])


# ----------------------------------------------------------------------
# Counter-based deterministic uniforms (fixed-worlds sampling).
# ----------------------------------------------------------------------
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U53 = np.uint64(11)  # top 53 bits -> float64 mantissa


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finaliser over uint64 (wraps mod 2^64)."""
    z = (x + _SPLITMIX_GAMMA).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z


def pair_uniforms(
    seed: int, cids: np.ndarray, uids: np.ndarray, n_worlds: int
) -> np.ndarray:
    """Deterministic uniforms in ``[0, 1)`` per (candidate, user, world).

    Counter-based (splitmix64 of a ``(seed, cid, uid, world)`` encoding)
    rather than stateful: the coin of a coverage pair depends only on the
    seed and the pair itself, never on how many other pairs exist or the
    order they were drawn in.  Two tables sharing a pair therefore share
    its coins — the property the two-player round's erosion accounting
    relies on (a rival entering can flip a user's choice *away*, never
    re-toss it).

    Returns a ``(len(cids), n_worlds)`` float64 array.
    """
    cids = np.asarray(cids, dtype=np.int64)
    uids = np.asarray(uids, dtype=np.int64)
    if cids.shape != uids.shape:
        raise CaptureError("cids and uids must be aligned 1-d arrays")
    with np.errstate(over="ignore"):
        base = _splitmix64(
            np.uint64(np.uint64(seed) & np.uint64(0xFFFFFFFFFFFFFFFF))
            + _splitmix64(cids.astype(np.uint64) * np.uint64(0x2545F4914F6CDD1D))
            + _splitmix64(uids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
        )
        worlds = np.arange(n_worlds, dtype=np.uint64)
        mixed = _splitmix64(base[:, None] + worlds[None, :] * _SPLITMIX_GAMMA)
    return (mixed >> _U53).astype(np.float64) * (2.0 ** -53)
