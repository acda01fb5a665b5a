"""The streaming write path: content digest, lazy region, copy-on-write patch.

A publish hashes the snapshot off its packed position arena, derives the
dataset region lazily, and patches cached tables copy-on-write.  These
tests pin what must not move while the cost does: the digest bytes (the
campaign store and the recorded trace fixtures key on them), the region
the old per-user ``Rect.union`` fold produced, and tables that equal a
fresh resolve while their parents stay untouched.
"""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import california_like
from repro.entities import MovingUser, SpatialDataset, candidate, existing
from repro.exceptions import SolverError
from repro.geo import Rect
from repro.influence import PositionArena, paper_default_pf
from repro.influence import batch as batch_module
from repro.service import dataset_content_hash
from repro.solvers import IQTSolver
from repro.solvers.base import patch_resolution

PF = paper_default_pf()


def edge_dataset() -> SpatialDataset:
    """Unsorted uids, r = 1 users, negative coordinates and ``-0.0``."""
    users = [
        MovingUser(9, np.array([[-3.5, 0.0], [-0.0, -2.25], [1.0, -0.0]])),
        MovingUser(2, np.array([[-0.0, -0.0]])),
        MovingUser(41, np.array([[-7.125, -1e-300]])),
        MovingUser(-5, np.array([[0.5, 4.0], [0.5, 4.0]])),
        MovingUser(17, np.array([[2.0, -6.0], [-1.5, 3.0], [0.25, 0.75], [-0.0, 8.0]])),
    ]
    facilities = [existing(3, -0.0, -1.0), existing(1, 2.5, -4.0)]
    candidates = [candidate(8, -2.0, -0.0), candidate(4, 0.0, 1.5)]
    return SpatialDataset.build(users, facilities, candidates, name="edge")


def c_like_dataset() -> SpatialDataset:
    """A fixed C-like sample spanning several hash buffers."""
    return california_like(n_users=700, n_candidates=12, n_facilities=20, seed=3)


def _row_digests(users) -> np.ndarray:
    """Per-user SHA-256 of ``uid ‖ positions``, one ``hashlib`` call each."""
    rows = [
        hashlib.sha256(
            np.int64(u.uid).tobytes()
            + np.ascontiguousarray(u.positions, dtype=np.float64).tobytes()
        ).digest()
        for u in users
    ]
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, 32)


def _loop_digest(dataset: SpatialDataset) -> str:
    """The content hash as a per-user SHA-256 reference loop computes it."""
    groups = (dataset.facilities, dataset.candidates)
    counts = [len(dataset.users)] + [len(g) for g in groups]
    h = hashlib.sha256(np.array(counts, dtype=np.int64).tobytes())
    h.update(_row_digests(dataset.users).tobytes())
    for group in groups:
        for v in group:
            h.update(np.int64(v.fid).tobytes())
        for v in group:
            h.update(np.float64(v.x).tobytes())
            h.update(np.float64(v.y).tobytes())
    return h.hexdigest()


class TestContentDigest:
    # Digests of the per-user SHA-256 reference loop (``_loop_digest``).
    GOLDEN = {
        "edge": "bda77926c8db33aa84fdc86707edcacf6fff0c8dd251d0b700e3431bbfbed1a0",
        "c_like": "0cb70362204555e36ed40a4b438b2ae004e42a2e9ce77ad76b7d22bae5923db1",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden(self, name):
        dataset = {"edge": edge_dataset, "c_like": c_like_dataset}[name]()
        assert dataset_content_hash(dataset) == self.GOLDEN[name]

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_per_user_loop(self, seed):
        rng = np.random.default_rng(seed)
        users = [
            MovingUser(int(uid), rng.normal(0.0, 5.0, (rng.integers(1, 12), 2)))
            for uid in rng.permutation(900) - 300
        ]
        dataset = SpatialDataset.build(
            users, [existing(0, -1.0, 2.0)], [candidate(1, 0.5, -0.0)]
        )
        assert dataset_content_hash(dataset) == _loop_digest(dataset)

    def test_every_coordinate_counts(self):
        base = edge_dataset()
        users = list(base.users)
        users[4] = MovingUser(17, users[4].positions + np.array([[0.0, 0.0]] * 3 + [[1e-12, 0.0]]))
        assert dataset_content_hash(base.with_users(users)) != dataset_content_hash(base)
        # The sign of a zero is part of the bytes.
        users = list(base.users)
        users[1] = MovingUser(2, np.array([[0.0, -0.0]]))
        assert dataset_content_hash(base.with_users(users)) != dataset_content_hash(base)

    def test_every_uid_and_site_counts(self):
        base = edge_dataset()
        digest = dataset_content_hash(base)
        users = list(base.users)
        users[2] = MovingUser(42, users[2].positions)
        assert dataset_content_hash(base.with_users(users)) != digest
        sites = list(base.candidates)
        sites[0] = candidate(8, -2.0, 0.0)  # was -0.0
        assert dataset_content_hash(base.with_candidates(sites)) != digest
        sites = list(base.facilities)
        sites[1] = existing(5, 2.5, -4.0)
        assert dataset_content_hash(base.with_facilities(sites)) != digest
        # A site moved between the groups is a different dataset.
        moved = SpatialDataset.build(
            base.users, base.facilities + (existing(8, -2.0, -0.0),), base.candidates[1:]
        )
        assert dataset_content_hash(moved) != digest


def _random_user(uid, rng) -> MovingUser:
    return MovingUser(uid, rng.normal(0.0, 5.0, (int(rng.integers(1, 6)), 2)))


def _churn(arena: PositionArena, live: dict, rng, n_events: int) -> PositionArena:
    """Apply ``n_events`` random adds, moves and removes to ``live`` and
    splice them into ``arena``."""
    stale = set()
    for _ in range(n_events):
        op = int(rng.integers(0, 3))
        present = sorted(live)
        uid = int(rng.choice(present))
        if op == 0 and len(live) > 1:
            del live[uid]
        elif op == 1:
            live[uid] = _random_user(uid, rng)
        else:
            uid = int(rng.integers(-50, 200))
            live[uid] = _random_user(uid, rng)
        stale.add(uid)
    stale = sorted(stale)
    return arena.spliced(stale, [live[u] for u in stale if u in live])


class TestRowDigests:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        computed=st.booleans(),
        steps=st.lists(st.integers(0, 12), min_size=1, max_size=5),
    )
    def test_spliced_and_taken_equal_a_full_pack(self, seed, computed, steps):
        rng = np.random.default_rng(seed)
        live = {uid: _random_user(uid, rng) for uid in range(0, 60, 3)}
        arena = PositionArena.from_users([live[u] for u in sorted(live)])
        if computed:
            arena.digests
        for n_events in steps:
            arena = _churn(arena, live, rng, n_events)
            assert (arena._digests is not None) == computed
            users = [live[u] for u in sorted(live)]
            want = PositionArena.from_users(users).digests
            size = int(rng.integers(1, len(users) + 1))
            rows = np.sort(rng.choice(len(users), size=size, replace=False))
            taken = arena.take(rows)
            assert (taken._digests is not None) == computed
            assert taken.digests.tobytes() == want[rows].tobytes()
            # Read a lazy arena's digests off a twin, so the next splice
            # still has an unhashed parent.
            got = arena if computed else PositionArena(arena.positions, arena.offsets, arena.uids)
            assert got.digests.tobytes() == want.tobytes() == _row_digests(users).tobytes()
            assert not got.digests.flags.writeable

    def test_chunking_does_not_change_the_digests(self, monkeypatch):
        users = c_like_dataset().users
        want = PositionArena.from_users(users).digests
        monkeypatch.setattr(batch_module, "_DIGEST_CHUNK_ROWS", 7)
        assert PositionArena.from_users(users).digests.tobytes() == want.tobytes()

    def test_a_splice_of_m_users_hashes_m_rows(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(1)
            return hashlib.sha256(data)

        rng = np.random.default_rng(11)
        live = {uid: _random_user(uid, rng) for uid in range(400)}
        parent = PositionArena.from_users([live[u] for u in sorted(live)])
        dataset = SpatialDataset(parent, (), (candidate(0, 0.0, 0.0),))
        dataset_content_hash(dataset)
        monkeypatch.setattr(batch_module, "sha256", counting)
        # 30 moves, 10 arrivals and 5 departures: 40 users to pack.
        moved = rng.choice(400, size=35, replace=False).tolist()
        for uid in moved[:30]:
            live[uid] = _random_user(uid, rng)
        for uid in moved[30:]:
            del live[uid]
        for uid in range(1000, 1010):
            live[uid] = _random_user(uid, rng)
        stale = sorted(moved + list(range(1000, 1010)))
        child = parent.spliced(stale, [live[u] for u in stale if u in live])
        assert len(calls) == 40
        dataset_content_hash(SpatialDataset(child, (), dataset.candidates))
        child.take(np.arange(0, len(child), 2))
        assert len(calls) == 40
        # A parent that was never hashed hands a lazy arena on: no rows yet.
        calls.clear()
        lazy = PositionArena.from_users([live[u] for u in sorted(live)])
        lazy.spliced(stale[:5], [live[u] for u in stale[:5] if u in live])
        assert calls == []


def _union_fold(dataset: SpatialDataset) -> Rect:
    """The region as the eager per-user fold computed it."""
    region = dataset.users[0].mbr
    for u in dataset.users[1:]:
        region = region.union(u.mbr)
    for v in list(dataset.facilities) + list(dataset.candidates):
        region = region.union(Rect.from_point(v.location))
    return region


class TestLazyRegion:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_equals_union_fold(self, seed):
        rng = np.random.default_rng(seed)
        users = [
            MovingUser(int(uid), rng.normal(0.0, 10.0 ** rng.integers(-2, 3), (rng.integers(1, 6), 2)))
            for uid in rng.permutation(40)
        ]
        sites = rng.uniform(-50.0, 50.0, (6, 2))
        dataset = SpatialDataset.build(
            users,
            [existing(i, x, y) for i, (x, y) in enumerate(sites[:3])],
            [candidate(i, x, y) for i, (x, y) in enumerate(sites[3:])],
        )
        assert dataset.region == _union_fold(dataset)
        assert dataset.r_max == max(u.r for u in dataset.users)

    @pytest.mark.parametrize(
        "dataset",
        [
            edge_dataset(),
            # One user at one point, no sites: a degenerate rectangle.
            SpatialDataset.build([MovingUser(0, np.array([[1.5, -2.5]]))], [], []),
            # Sites outside every user's MBR widen the region.
            SpatialDataset.build(
                [MovingUser(0, np.array([[0.0, 0.0], [1.0, 1.0]]))],
                [existing(0, -9.0, 0.5)],
                [candidate(0, 0.5, 12.0)],
            ),
        ],
        ids=["edge", "single-point", "sites-outside"],
    )
    def test_degenerate_equals_union_fold(self, dataset):
        assert dataset.region == _union_fold(dataset)
        assert dataset.r_max == max(u.r for u in dataset.users)

    def test_cached(self):
        dataset = edge_dataset()
        assert dataset.region is dataset.region
        assert dataset.describe()


class TestArenaLookup:
    @pytest.mark.parametrize("order", ["sorted", "unsorted"])
    def test_lookup(self, order):
        users = edge_dataset().users
        if order == "sorted":
            users = sorted(users, key=lambda u: u.uid)
        arena = PositionArena.from_users(users)
        want = [17, 3, -5, 9, 2, 41, 100, -6]
        expected = [
            next((i for i, u in enumerate(users) if u.uid == uid), -1) for uid in want
        ]
        assert arena.lookup(want).tolist() == expected
        assert arena.rows_for([41, 9]).tolist() == expected[5:6] + expected[3:4]
        with pytest.raises(KeyError):
            arena.rows_for([9, 3])


def _moved(dataset: SpatialDataset, uids, shift: float) -> SpatialDataset:
    users = [
        MovingUser(u.uid, u.positions + shift) if u.uid in uids else u
        for u in dataset.users
    ]
    return dataset.with_users(users)


def _table_state(table):
    return copy.deepcopy(table.omega_c), copy.deepcopy(table.f_o)


def _assert_matches_fresh(patched, dataset, tau):
    fresh = IQTSolver().resolve(dataset, tau, PF).table
    assert patched.table.omega_c == fresh.omega_c
    covered = set().union(*fresh.omega_c.values())
    for uid in covered:
        assert patched.table.f_o[uid] == fresh.f_o[uid]


class TestCopyOnWritePatch:
    TAU = 0.6

    def test_chained_patches_leave_parents_untouched(self):
        base = california_like(n_users=300, n_candidates=15, n_facilities=25, seed=5)
        uids = [u.uid for u in base.users]
        root = IQTSolver().resolve(base, self.TAU, PF)
        root_state = _table_state(root.table)

        # Patch 1: move six users, drop two, add clones of three covered
        # users (the rows covering them gain a uid and lose none).
        moved = set(uids[10:16])
        gone = set(uids[200:202])
        covered = sorted(set().union(*root.table.omega_c.values()) - moved - gone)
        by_uid = {u.uid: u for u in base.users}
        clones = [MovingUser(10_000 + i, by_uid[uid].positions) for i, uid in enumerate(covered[:3])]
        step1 = _moved(base, moved, 0.75)
        step1 = step1.with_users(
            [u for u in step1.users if u.uid not in gone] + clones
        )
        dirty1 = tuple(sorted(moved)) + tuple(u.uid for u in clones)
        first, added = patch_resolution(
            root, step1, dirty1, tuple(sorted(gone)), self.TAU, PF
        )
        assert any(added.values()), "no dirty user is covered: nothing to copy"
        first_state = _table_state(first.table)
        _assert_matches_fresh(first, step1, self.TAU)

        # Patch 2 on top of patch 1: move again, some users twice.
        moved2 = set(uids[13:20])
        step2 = _moved(step1, moved2, -1.25)
        second, _ = patch_resolution(
            first, step2, tuple(sorted(moved2)), (), self.TAU, PF
        )
        _assert_matches_fresh(second, step2, self.TAU)

        assert _table_state(root.table) == root_state
        assert _table_state(first.table) == first_state
        # Untouched rows are shared, not copied.
        dirty = set(dirty1) | gone | moved2
        shared = [
            cid for cid, users in root.table.omega_c.items()
            if users.isdisjoint(dirty) and second.table.omega_c[cid] is users
        ]
        assert shared
        untouched = next(uid for uid in uids if uid not in dirty and uid in root.table.f_o)
        assert second.table.f_o[untouched] is root.table.f_o[untouched]

    def test_unsorted_batch_dataset(self):
        base = california_like(n_users=200, n_candidates=10, n_facilities=20, seed=8)
        rng = np.random.default_rng(0)
        shuffled = base.with_users(base.users[i] for i in rng.permutation(len(base.users)))
        assert not np.all(np.diff(shuffled.arena.uids) > 0)
        root = IQTSolver().resolve(shuffled, self.TAU, PF)
        moved = {int(u) for u in rng.choice(shuffled.arena.uids, size=12, replace=False)}
        mutated = _moved(shuffled, moved, 0.5)
        patched, added = patch_resolution(
            root, mutated, tuple(moved), (), self.TAU, PF
        )
        assert set(added) == moved
        _assert_matches_fresh(patched, mutated, self.TAU)

    def test_delta_must_describe_dataset(self):
        base = edge_dataset()
        root = IQTSolver().resolve(base, self.TAU, PF)
        with pytest.raises(SolverError, match="absent"):
            patch_resolution(root, base, (9, 1000), (), self.TAU, PF)
        with pytest.raises(SolverError, match="still present"):
            patch_resolution(root, base, (), (2,), self.TAU, PF)
