"""Unit tests for the entity model (users, facilities, datasets)."""

import numpy as np
import pytest

from repro.entities import (
    AbstractFacility,
    FacilityKind,
    MovingUser,
    SpatialDataset,
    candidate,
    existing,
)
from repro.exceptions import DataError
from repro.geo import Point, Rect


def make_user(uid=0, n=3, offset=0.0):
    rng = np.random.default_rng(uid)
    return MovingUser(uid, rng.uniform(0, 10, size=(n, 2)) + offset)


class TestMovingUser:
    def test_basic_properties(self):
        u = MovingUser(7, np.array([[0.0, 0.0], [2.0, 3.0]]))
        assert u.uid == 7
        assert u.r == 2
        assert u.mbr.min_x == 0 and u.mbr.max_y == 3

    def test_positions_are_read_only(self):
        u = make_user()
        with pytest.raises(ValueError):
            u.positions[0, 0] = 99.0

    def test_rejects_empty_and_bad_shape(self):
        with pytest.raises(DataError):
            MovingUser(1, np.zeros((0, 2)))
        with pytest.raises(DataError):
            MovingUser(1, np.zeros((3, 3)))

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            MovingUser(1, np.array([[0.0, np.nan]]))

    def test_hash_eq_by_uid(self):
        a = MovingUser(1, np.array([[0.0, 0.0]]))
        b = MovingUser(1, np.array([[5.0, 5.0]]))
        assert a == b
        assert hash(a) == hash(b)
        assert a != "not a user"


class TestFacilities:
    def test_constructors(self):
        c = candidate(0, 1.0, 2.0)
        f = existing(0, 3.0, 4.0)
        assert c.kind is FacilityKind.CANDIDATE
        assert (f.x, f.y) == (3.0, 4.0)

    def test_value_semantics(self):
        assert candidate(1, 0, 0) == candidate(1, 0, 0)
        assert candidate(1, 0, 0) != existing(1, 0, 0)

    def test_location_point(self):
        assert candidate(0, 1.5, -2.5).location == Point(1.5, -2.5)


class TestSpatialDataset:
    def make_dataset(self):
        users = [make_user(i, n=4) for i in range(5)]
        return SpatialDataset.build(
            users,
            [existing(0, 1, 1), existing(1, 8, 8)],
            [candidate(0, 3, 3), candidate(1, 6, 6)],
            name="toy",
        )

    def test_region_covers_everything(self):
        ds = self.make_dataset()
        for u in ds.users:
            assert ds.region.contains_rect(u.mbr)
        for v in ds.abstract_facilities:
            assert ds.region.contains_rect(Rect.from_point(v.location))

    def test_r_max_and_positions(self):
        users = [make_user(0, n=3), make_user(1, n=9)]
        ds = SpatialDataset.build(users, [], [candidate(0, 0, 0)])
        assert ds.r_max == 9
        assert ds.n_positions == 12

    def test_kind_validation(self):
        with pytest.raises(DataError):
            SpatialDataset.build([make_user()], [candidate(0, 0, 0)], [])
        with pytest.raises(DataError):
            SpatialDataset.build([make_user()], [], [existing(0, 0, 0)])

    def test_duplicate_uids_rejected(self):
        with pytest.raises(DataError):
            SpatialDataset.build([make_user(1), make_user(1)], [], [])

    def test_duplicate_candidate_ids_rejected(self):
        """Repeated candidate ids used to be selected twice by the greedy
        solvers (``selected == (1, 1)`` for candidates ``(1, 1, 2)``)."""
        cands = [candidate(1, 1, 1), candidate(1, 2, 2), candidate(2, 3, 3)]
        with pytest.raises(DataError, match="duplicate candidate ids"):
            SpatialDataset.build([make_user(1)], [], cands)

    def test_duplicate_facility_ids_rejected(self):
        """Two competitors sharing a fid used to count as one competitor."""
        facs = [existing(100, 1, 1), existing(100, 2, 2)]
        with pytest.raises(DataError, match="duplicate facility ids"):
            SpatialDataset.build([make_user(1)], facs, [candidate(1, 3, 3)])

    def test_needs_users(self):
        with pytest.raises(DataError):
            SpatialDataset.build([], [], [])

    def test_abstract_facilities_order(self):
        ds = self.make_dataset()
        kinds = [v.kind for v in ds.abstract_facilities]
        assert kinds == [
            FacilityKind.CANDIDATE,
            FacilityKind.CANDIDATE,
            FacilityKind.EXISTING,
            FacilityKind.EXISTING,
        ]

    def test_with_users_and_subsample(self):
        ds = self.make_dataset()
        smaller = ds.subsample_users(3, seed=1)
        assert len(smaller.users) == 3
        assert smaller.facilities == ds.facilities
        with pytest.raises(DataError):
            ds.subsample_users(99)

    def test_subsample_positions(self):
        users = [make_user(0, n=10), make_user(1, n=3)]
        ds = SpatialDataset.build(users, [], [candidate(0, 0, 0)])
        sub = ds.subsample_positions(5, seed=0)
        assert len(sub.users) == 1  # only user 0 has >= 5 positions
        assert sub.users[0].r == 5
        assert sub.users[0].uid == 0
        # every sampled row must come from the original
        orig = {tuple(row) for row in users[0].positions}
        assert all(tuple(row) in orig for row in sub.users[0].positions)
        with pytest.raises(DataError):
            ds.subsample_positions(50)
        with pytest.raises(DataError):
            ds.subsample_positions(0)

    def test_describe_mentions_counts(self):
        ds = self.make_dataset()
        text = ds.describe()
        assert "|Ω|=5" in text and "|C|=2" in text
