"""Batched influence verification — one facility against many users.

The verification phase (Algorithm 2, line 14) decides thousands of
surviving ``(facility, user)`` pairs, and the scalar
:class:`~repro.oracle.InfluenceEvaluator` pays Python-call and
small-array overhead on every one of them.  This module packs all users'
position multisets into one CSR-style arena (a flat ``(N, 2)`` float64
array plus segment offsets) and decides an entire batch in a handful of
large numpy passes: distances, survival factors and segmented products
via ``np.multiply.reduceat``.  Every decision is made on that exact
product; the padded per-segment cumulative product of the early-stopping
*model* runs only when its counters are read.

**Bit-identity contract.**  Every decision (and probability) the batch
kernel emits is bit-identical to the scalar evaluator's boundary call:

* survival factors are computed with the same elementwise expression
  ``1 − PF(sqrt(dx² + dy²))``;
* sequential products come from ``np.cumprod`` (1-D, 2-D rows, and
  reduceat segments all perform the same left-to-right chain, which the
  test suite verifies bitwise against the scalar path);
* decisions are made on the survival product ``q <= 1 − τ``, never the
  complement;
* the modelled negative-certificate bound multiplies by powers read from
  the shared :func:`~repro.influence.model.survival_powers` table,
  exactly as the scalar model does.

**Stats-equivalence contract.**  The modelled :class:`EvaluationStats`
counters are computed from the per-segment cumulative certificates — the
position at which a left-to-right scanner would have stopped — so
Figs. 15–16 cost accounting is unchanged whether a solver verifies
pair-by-pair or in batches.  ``rows_scanned`` / ``positions_scanned``
count what the kernel actually read.
"""

from __future__ import annotations

import threading
from hashlib import sha256
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import DataError, ProbabilityError
from .model import EvaluationStats, survival_powers
from .probability import ProbabilityFunction

# One call decides its rows in chunks of at most this many positions (a
# longer row is a chunk of its own), so a batch over thousands of
# (facility, user) pairs keeps its gathered and padded work arrays small.
_CHUNK_POSITIONS = 1 << 16

#: Rows hashed per batch of :attr:`PositionArena.digests` (bounded temporaries).
_DIGEST_CHUNK_ROWS = 4096


def _chunk_bounds(lens: np.ndarray) -> List[int]:
    """Row indices cutting ``lens`` into chunks of ``_CHUNK_POSITIONS``."""
    ends = np.cumsum(lens)
    bounds = [0]
    while bounds[-1] < lens.size:
        a = bounds[-1]
        limit = ends[a] - lens[a] + _CHUNK_POSITIONS
        bounds.append(max(a + 1, int(np.searchsorted(ends, limit, side="right"))))
    return bounds


def _strictly_ascending(ids: np.ndarray) -> bool:
    return bool(np.all(ids[1:] > ids[:-1]))


class PositionArena:
    """CSR-style packing of many users' position multisets.

    Attributes:
        positions: ``(N, 2)`` float64 array — every user's positions,
            concatenated in arena row order.
        offsets: ``(n_users + 1,)`` int64 array; user in row ``i`` owns
            ``positions[offsets[i]:offsets[i + 1]]``.
        uids: ``(n_users,)`` int64 array of user ids in arena row order.
        digests: ``(n_users, 32)`` uint8 SHA-256 per row of ``uid (int64) ‖
            positions (float64, row-major)``; :meth:`take`/:meth:`spliced` carry it.
    """

    __slots__ = ("positions", "offsets", "uids", "_digests")

    def __init__(self, positions: np.ndarray, offsets: np.ndarray, uids: np.ndarray):
        self.positions = positions
        self.offsets = offsets
        self.uids = uids
        # One 32-byte ``V32`` item per row: a splice is a fast 1-D insert.
        self._digests: Optional[np.ndarray] = None
        if offsets.shape[0] != uids.shape[0] + 1:
            raise DataError("arena offsets must have one entry per user plus one")
        if uids.shape[0] == 0:
            raise DataError("cannot build an arena over zero users")

    def __len__(self) -> int:
        return self.uids.shape[0]

    @property
    def n_positions(self) -> int:
        """Total number of packed positions."""
        return self.positions.shape[0]

    def lengths(self) -> np.ndarray:
        """Per-row position counts."""
        return np.diff(self.offsets)

    def lookup(self, uids: Iterable[int]) -> np.ndarray:
        """Arena row of each user id, ``-1`` where the id is absent.

        A binary search over ``uids`` (argsorted first when the arena is
        not in ascending id order), so a lookup of ``m`` ids costs
        ``O(m log n)`` and no per-arena ``uid -> row`` index is built or
        kept.
        """
        want = np.fromiter(uids, dtype=np.int64)
        ids = self.uids
        sorter = None if _strictly_ascending(ids) else np.argsort(ids, kind="stable")
        pos = np.minimum(np.searchsorted(ids, want, sorter=sorter), len(self) - 1)
        rows = pos if sorter is None else sorter[pos]
        return np.where(ids[rows] == want, rows, -1)

    def rows_for(self, uids: Iterable[int]) -> np.ndarray:
        """Arena row indices for an iterable of user ids.

        Raises:
            KeyError: When an id is not in the arena.
        """
        want = np.fromiter(uids, dtype=np.int64)
        rows = self.lookup(want)
        if rows.size and rows.min() < 0:
            missing = want[rows < 0]
            raise KeyError(f"user ids {missing.tolist()} are not in the arena")
        return rows

    def gather(self, rows: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(flat_positions, lengths)`` for a row subset.

        ``rows=None`` selects every user without copying.  Otherwise the
        selected segments are gathered into a fresh contiguous array in
        ``rows`` order (the standard CSR repeat/arange trick).
        """
        if rows is None:
            return self.positions, self.lengths()
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return self.positions[:0], np.zeros(0, dtype=np.int64)
        starts = self.offsets[rows]
        lens = self.offsets[rows + 1] - starts
        out_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        idx = np.repeat(starts - out_starts, lens) + np.arange(int(lens.sum()))
        # ``take`` gathers whole rows several times faster than fancy indexing.
        return self.positions.take(idx, axis=0), lens

    def row(self, i: int) -> np.ndarray:
        """The ``(r, 2)`` positions of row ``i`` (a read-only view)."""
        return self.positions[self.offsets[i] : self.offsets[i + 1]]

    @property
    def digests(self) -> np.ndarray:
        """The read-only per-row digests, hashed on first read if not carried over."""
        if self._digests is None:
            self._digests = self._digest_rows(np.arange(len(self)))
        out = self._digests.view(np.uint8).reshape(-1, 32)
        out.setflags(write=False)
        return out

    def _digest_rows(self, rows: np.ndarray) -> np.ndarray:
        """SHA-256 of ``uid ‖ positions`` for each of ``rows`` (``V32`` items)."""
        mv = memoryview(np.ascontiguousarray(self.positions, dtype=np.float64)).cast("B")
        out = []
        for a in range(0, rows.size, _DIGEST_CHUNK_ROWS):
            part = rows[a : a + _DIGEST_CHUNK_ROWS]
            ids = self.uids[part].tobytes()
            starts, ends = (16 * self.offsets[np.stack((part, part + 1))]).tolist()
            spans = zip(range(0, len(ids), 8), starts, ends)
            out.append(b"".join(sha256(ids[i : i + 8] + mv[lo:hi]).digest() for i, lo, hi in spans))
        return np.frombuffer(b"".join(out), dtype="V32")

    def take(self, rows: np.ndarray) -> "PositionArena":
        """A new arena over ``rows`` of this one, in ``rows`` order."""
        flat, lens = self.gather(rows)
        flat.setflags(write=False)
        out = PositionArena(flat, np.concatenate(([0], np.cumsum(lens))), self.uids[rows])
        out._digests = None if self._digests is None else self._digests[rows]
        return out

    @staticmethod
    def from_users(users: Sequence) -> "PositionArena":
        """Pack objects exposing ``.uid`` and ``.positions`` (``(r, 2)``).

        Raises:
            DataError: On zero users or a duplicate uid.
        """
        users = list(users)
        if not users:
            raise DataError("cannot build an arena over zero users")
        arrays = [u.positions for u in users]
        lens = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
        offsets = np.concatenate(([0], np.cumsum(lens)))
        flat = np.concatenate(arrays, dtype=np.float64)
        flat.setflags(write=False)
        uids = np.fromiter((u.uid for u in users), dtype=np.int64, count=len(users))
        if not _strictly_ascending(uids) and np.unique(uids).size != uids.size:
            raise DataError("duplicate user ids in arena")
        return PositionArena(flat, offsets, uids)

    def spliced(self, stale_uids: Sequence[int], users: Sequence) -> "PositionArena":
        """This arena with the rows of ``stale_uids`` replaced by ``users``.

        Rows whose uid is in ``stale_uids`` (ascending) are dropped and
        ``users`` (ascending uids, each in ``stale_uids``) are packed in
        at their place in uid order.  The result equals :meth:`from_users`
        over the merged population in ascending uid order, bit for bit.
        Untouched rows are copied by slice, so the Python work is
        ``O(len(stale_uids))`` plus one copy of the positions.  If this
        arena's :attr:`digests` were read, only the ``users`` are hashed.

        Raises:
            DataError: When this arena is not in strictly ascending uid
                order, or the merged uids would not be (``users`` out of
                order, or a uid that is kept as well).
        """
        if not _strictly_ascending(self.uids):
            raise DataError("only an arena in ascending uid order can be spliced")
        stale = np.asarray(stale_uids, dtype=np.int64)
        dropped = self.lookup(stale)
        dropped = dropped[dropped >= 0]
        arrays = [u.positions for u in users]
        new_uids = np.fromiter((u.uid for u in users), dtype=np.int64, count=len(arrays))
        new_lens = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
        keep = np.ones(len(self), dtype=bool)
        keep[dropped] = False
        kept_uids = self.uids[keep]
        at = np.searchsorted(kept_uids, new_uids)
        uids = np.insert(kept_uids, at, new_uids)
        if not _strictly_ascending(uids):
            raise DataError("spliced users must be in ascending uid order, each stale")
        lens = np.insert(self.lengths()[keep], at, new_lens)
        offsets = np.concatenate(([0], np.cumsum(lens)))
        # Walk the drops and inserts in old-row order; an insert sorts
        # before a drop at the same row (an updated user replaces itself).
        inserts = np.searchsorted(self.uids, new_uids).tolist()
        events = sorted(
            [(d, 1, 0) for d in dropped.tolist()] + [(i, 0, n) for n, i in enumerate(inserts)]
        )
        pieces = []
        cursor = 0
        for row, is_drop, n in events:
            pieces.append(self.positions[self.offsets[cursor] : self.offsets[row]])
            if is_drop:
                cursor = row + 1
            else:
                pieces.append(arrays[n])
                cursor = row
        pieces.append(self.positions[self.offsets[cursor] :])
        flat = np.concatenate(pieces, dtype=np.float64)
        flat.setflags(write=False)
        out = PositionArena(flat, offsets, uids)
        if self._digests is not None:
            fresh = out._digest_rows(at + np.arange(at.size))
            out._digests = np.insert(self._digests[keep], at, fresh)
        return out


class BatchInfluenceEvaluator:
    """Vectorised influence decisions for a fixed ``(PF, τ)`` configuration.

    Mirrors :class:`~repro.oracle.InfluenceEvaluator` exactly —
    same decision on the exact survival product, same
    :class:`EvaluationStats` accounting — but decides whole batches per
    numpy pass.

    With ``early_stopping`` the modelled counters of
    :meth:`influences_users` are owed, not computed: the decided batches
    are kept, and the certificate scan that models them runs on the first
    read of :attr:`stats`.  A caller that never reads the counters never
    pays for the scan.  This is the one lazy counter path: a
    :class:`~repro.solvers.ResolvedInstance` keeps the evaluator that
    verified it and reads ``evaluation`` through :attr:`stats`, so the
    CLI, campaigns and Figs. 15–16 pay for the model when they report
    it, and the serving engine, which never reports it, never does.

    Args:
        pf: Distance-decay probability function.
        tau: Influence threshold in ``(0, 1)``.
        early_stopping: Model the counters as PINOCCHIO early-stopping
            scans (the IQT family and the serving patch, which the
            streaming session's reads run); when ``False``, as full
            scans (Baseline, exact, k-CIFP, the streaming session's
            bootstrap and the oracle's per-user k-CIFP, the one caller
            of :meth:`influences_facilities`).  Decisions are the same
            either way.  This is the one place the counter model is
            chosen.
    """

    def __init__(
        self,
        pf: ProbabilityFunction,
        tau: float,
        early_stopping: bool = True,
    ):
        if not 0.0 < tau < 1.0:
            raise ProbabilityError(f"tau must be in (0, 1), got {tau}")
        self.pf = pf
        self.tau = tau
        self.early_stopping = early_stopping
        self._stats = EvaluationStats()
        self._min_survival = 1.0 - pf.max_probability
        self._pow_table = survival_powers(self._min_survival, 1)
        # ``influences_users`` batches whose early-stop model is owed.
        self._owed: List[tuple] = []
        self._lock = threading.Lock()

    @property
    def stats(self) -> EvaluationStats:
        """The counters, with every owed early-stop model accounted."""
        with self._lock:
            while self._owed:
                vx, vy, runs, arena, rows = self._owed.pop()
                if runs is not None:
                    vx, vy = np.repeat(vx, runs), np.repeat(vy, runs)
                if rows is not None:
                    rows = rows.astype(np.int64)
                self._model_users(vx, vy, arena, rows)
        return self._stats

    def _powers(self, n: int) -> np.ndarray:
        """Cached ``min_survival ** [0..n)`` table (grown geometrically)."""
        if self._pow_table.shape[0] < n:
            self._pow_table = survival_powers(
                self._min_survival, max(n, 2 * self._pow_table.shape[0])
            )
        return self._pow_table

    # ------------------------------------------------------------------
    # One facility vs. many users
    # ------------------------------------------------------------------
    def influences_users(
        self,
        vx: Union[float, np.ndarray],
        vy: Union[float, np.ndarray],
        arena: PositionArena,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Decide facilities against a set of arena rows.

        Args:
            vx, vy: Facility coordinates: two scalars decide one facility
                against every requested row; two arrays with one entry per
                requested row decide row ``i`` against ``(vx[i], vy[i])``,
                so one call can verify many ``(facility, user)`` pairs.
            arena: The packed user positions.
            rows: Arena row indices to decide (``None`` = every user).

        Returns:
            Boolean array of influence decisions, one per requested row,
            in ``rows`` order: ``q <= 1 − τ`` on the ``reduceat`` survival
            product.  Decisions and :class:`EvaluationStats` are those of
            one call per row, whatever the chunking.
        """
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
        target = 1.0 - self.tau
        out = np.empty(len(arena) if rows is None else rows.size, dtype=bool)
        scanned = 0
        for part, survival, lens in self._chunks(vx, vy, arena, rows):
            seg_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
            out[part] = np.multiply.reduceat(survival, seg_starts) <= target
            scanned += survival.shape[0]
        self._stats.count_scan(out.size, scanned)
        if self.early_stopping:
            self._owe(vx, vy, arena, rows)
        else:
            self._stats.count_full(out.size, scanned)
        return out

    # ------------------------------------------------------------------
    # One user vs. many facilities
    # ------------------------------------------------------------------
    def influences_facilities(
        self, xy: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Decide many facilities against one user's positions.

        Args:
            xy: ``(n, 2)`` facility coordinate array.
            positions: The user's ``(r, 2)`` position array.

        Returns:
            Boolean influence decision per facility row, read off the last
            column of the row-wise running product; the early-stop model
            is accounted at once from the same product.
        """
        xy = np.asarray(xy, dtype=np.float64)
        if xy.size == 0:
            return np.zeros(0, dtype=bool)
        n = xy.shape[0]
        r = positions.shape[0]
        dx = positions[None, :, 0] - xy[:, 0, None]
        dy = positions[None, :, 1] - xy[:, 1, None]
        survival = 1.0 - self.pf(np.sqrt(dx * dx + dy * dy))
        target = 1.0 - self.tau
        chain = np.cumprod(survival, axis=1)
        self._stats.count_scan(n, n * r)
        if not self.early_stopping:
            self._stats.count_full(n, n * r)
        else:
            pos_hit = chain <= target
            neg_hit = chain * self._powers(r)[r - 1 :: -1] > target
            first = (pos_hit | neg_hit).argmax(axis=1)
            self._account_early_stop(
                pos_hit[np.arange(n), first], first + 1, np.full(n, r, dtype=np.int64)
            )
        return chain[:, -1] <= target

    # ------------------------------------------------------------------
    # Kernel internals
    # ------------------------------------------------------------------
    def _chunks(self, vx, vy, arena: PositionArena, rows: Optional[np.ndarray]):
        """Yield ``(row slice, survival, lens)`` of the requested rows,
        chunk by chunk."""
        lens = arena.lengths() if rows is None else arena.lengths()[rows]
        per_row = np.ndim(vx) > 0
        bounds = _chunk_bounds(lens)
        for a, b in zip(bounds[:-1], bounds[1:]):
            if rows is None:
                flat = arena.positions[arena.offsets[a] : arena.offsets[b]]
            else:
                flat, _ = arena.gather(rows[a:b])
            chunk_lens = lens[a:b]
            if per_row:
                x = np.repeat(vx[a:b], chunk_lens)
                y = np.repeat(vy[a:b], chunk_lens)
            else:
                x, y = vx, vy
            yield slice(a, b), self._survival(flat, x, y), chunk_lens

    def _owe(self, vx, vy, arena: PositionArena, rows: Optional[np.ndarray]) -> None:
        """Keep a decided batch for its early-stop model, compactly: per-row
        facility coordinates as runs (a resolve groups its pairs by
        facility), rows as ``int32`` where the arena allows."""
        runs = None
        if np.ndim(vx) > 0 and np.size(vx) > 1:
            change = (vx[1:] != vx[:-1]) | (vy[1:] != vy[:-1])
            starts = np.flatnonzero(np.concatenate(([True], change)))
            runs = np.diff(np.append(starts, np.size(vx)))
            vx, vy = vx[starts], vy[starts]
        if rows is not None:
            small = len(arena) <= np.iinfo(np.int32).max
            rows = rows.astype(np.int32 if small else np.int64)
        self._owed.append((vx, vy, runs, arena, rows))

    def _survival(self, flat: np.ndarray, vx, vy) -> np.ndarray:
        dx = flat[:, 0] - vx
        dy = flat[:, 1] - vy
        return 1.0 - self.pf(np.sqrt(dx * dx + dy * dy))

    def _model_users(self, vx, vy, arena: PositionArena, rows) -> None:
        for _, survival, lens in self._chunks(vx, vy, arena, rows):
            self._model_early_stop(survival, lens)

    def _model_early_stop(self, survival: np.ndarray, lens: np.ndarray) -> None:
        """Account the early-stop model over packed segments.

        Segments are scattered right-aligned into padded ``(rows, width)``
        matrices whose leading pad is 1.0, so the row-wise cumprod of a
        padded row equals the 1-D cumprod of the segment bitwise, and
        every row multiplies column ``c`` by the same ``min_survival``
        power for its remaining ``width − 1 − c`` positions.  The first
        column where either certificate fires yields the touched count,
        exactly as the scalar model reads it.  Rows are grouped into
        power-of-two length bands so padding waste stays under 2× even
        when a few long histories share a batch with many short ones (a
        band's matrix holds under twice the chunk's positions); grouping
        only reorders independent rows, so every counter is unchanged.
        """
        n = lens.size
        if n == 0:
            return
        target = 1.0 - self.tau
        offsets = np.concatenate(([0], np.cumsum(lens)))
        certified = np.empty(n, dtype=bool)
        touched = np.empty(n, dtype=np.int64)
        order = np.argsort(lens, kind="stable")
        sorted_lens = lens[order]
        max_len = int(sorted_lens[-1])
        band_edges = np.unique(
            np.concatenate(
                (
                    [0, n],
                    np.searchsorted(sorted_lens, 2 ** np.arange(1, max_len.bit_length())),
                )
            )
        )
        for a, b in zip(band_edges[:-1], band_edges[1:]):
            width = int(sorted_lens[b - 1])
            rows = order[a:b]
            ls = lens[rows]
            starts = offsets[rows]
            out_starts = np.concatenate(([0], np.cumsum(ls)[:-1]))
            idx = np.repeat(starts - out_starts, ls) + np.arange(int(ls.sum()))
            pad = width - ls
            valid = np.arange(width)[None, :] >= pad[:, None]
            mat = np.ones((b - a, width))
            mat[valid] = survival.take(idx)
            chain = np.cumprod(mat, axis=1)
            pos_hit = chain <= target
            bound = chain * self._powers(width)[width - 1 :: -1]
            hit = (pos_hit | (bound > target)) & valid
            first = hit.argmax(axis=1)
            certified[rows] = pos_hit[np.arange(b - a), first]
            touched[rows] = first - pad + 1
        self._account_early_stop(certified, touched, lens)

    def _account_early_stop(
        self, certified: np.ndarray, touched: np.ndarray, lens: np.ndarray
    ) -> None:
        """Model counters of scans that stopped after ``touched`` positions,
        on a positive certificate where ``certified``."""
        self._stats.early_stop_evaluations += certified.size
        self._stats.positions_touched += int(touched.sum())
        early = touched < lens
        self._stats.early_stops_positive += int(np.count_nonzero(certified & early))
        self._stats.early_stops_negative += int(np.count_nonzero(~certified & early))
