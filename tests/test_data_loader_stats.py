"""Tests for the SNAP check-in loader and the dataset statistics."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import (
    LatLonBox,
    NEW_YORK_BOX,
    compute_stats,
    load_checkins,
    mbr_overlap_fraction,
)
from repro.data.stats import DatasetStats, _gini
from repro.entities import MovingUser, SpatialDataset, candidate
from repro.exceptions import DataError
from tests.test_streaming_publish import c_like_dataset, edge_dataset


@pytest.fixture
def checkin_file(tmp_path):
    """A miniature Brightkite-format dump around New York."""
    rows = [
        # user 0: three NYC check-ins at two POIs
        "0\t2010-10-17T01:48:53Z\t40.7128\t-74.0060\tpoi_a",
        "0\t2010-10-16T06:02:04Z\t40.7300\t-73.9900\tpoi_b",
        "0\t2010-10-12T23:54:10Z\t40.7000\t-74.0100\tpoi_a",
        # user 1: two NYC check-ins
        "1\t2010-10-12T00:21:28Z\t40.7500\t-73.9800\tpoi_c",
        "1\t2010-10-11T20:21:20Z\t40.7600\t-73.9700\tpoi_d",
        # user 2: one NYC check-in only -> trimmed at min_positions=2
        "2\t2010-10-10T00:00:00Z\t40.8000\t-73.9500\tpoi_e",
        # user 3: outside the NY box (Los Angeles)
        "3\t2010-10-10T00:00:00Z\t34.0522\t-118.2437\tpoi_f",
        "3\t2010-10-11T00:00:00Z\t34.0600\t-118.2500\tpoi_g",
        # user 4: missing fix (0, 0) rows are skipped
        "4\t2010-10-10T00:00:00Z\t0.0\t0.0\tpoi_h",
        "4\t2010-10-10T01:00:00Z\t40.7200\t-74.0000\tpoi_i",
        "4\t2010-10-10T02:00:00Z\t40.7210\t-74.0010\tpoi_i",
    ]
    path = tmp_path / "checkins.txt"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestLoader:
    def test_basic_parse(self, checkin_file):
        data = load_checkins(checkin_file)
        # users 0, 1, 3 and 4 survive (user 2 trimmed)
        assert len(data.users) == 4
        by_count = sorted(u.r for u in data.users)
        assert by_count == [2, 2, 2, 3]

    def test_bbox_filter(self, checkin_file):
        data = load_checkins(checkin_file, bbox=NEW_YORK_BOX)
        assert len(data.users) == 3  # LA user drops out
        # everything projects within ~60 km of the NYC centroid
        for u in data.users:
            assert np.abs(u.positions).max() < 60

    def test_zero_zero_rows_skipped(self, checkin_file):
        data = load_checkins(checkin_file)
        uid4 = [u for u in data.users if u.r == 2 and u.mbr.width < 0.5]
        assert uid4  # user 4 kept with exactly its two real fixes

    def test_max_users_keeps_most_active(self, checkin_file):
        data = load_checkins(checkin_file, max_users=1)
        assert len(data.users) == 1
        assert data.users[0].r == 3  # user 0 has the most check-ins

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkins(tmp_path / "nope.txt")

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\tonly\tthree\n")
        with pytest.raises(DataError):
            load_checkins(path)

    def test_unparseable_floats(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\t2010\tnot_a_float\t-74.0\tpoi\n")
        with pytest.raises(DataError):
            load_checkins(path)

    def test_nothing_survives(self, tmp_path):
        path = tmp_path / "single.txt"
        path.write_text("0\t2010\t40.7\t-74.0\tpoi\n")
        with pytest.raises(DataError):
            load_checkins(path, min_positions=2)

    def test_dataset_sampling(self, checkin_file):
        data = load_checkins(checkin_file)
        ds = data.dataset(n_candidates=2, n_facilities=2, seed=0)
        assert len(ds.candidates) == 2
        assert len(ds.facilities) == 2
        with pytest.raises(DataError):
            data.dataset(n_candidates=100, n_facilities=100)

    def test_bbox_validation(self):
        with pytest.raises(DataError):
            LatLonBox(50, 0, 40, 10)


def _view_stats(dataset, grid_cells=32) -> DatasetStats:
    """The statistics as a per-user pass over ``MovingUser`` views computes them."""
    region = dataset.region
    region_area = max(region.area, 1e-12)
    counts_r = np.array([u.r for u in dataset.users])
    mbr_ratios = np.array([u.mbr.area / region_area for u in dataset.users], dtype=float)
    all_pos = np.vstack([u.positions for u in dataset.users])
    cells = [
        ((all_pos[:, d] - lo) / max(extent, 1e-12) * grid_cells).astype(int).clip(0, grid_cells - 1)
        for d, lo, extent in ((0, region.min_x, region.width), (1, region.min_y, region.height))
    ]
    occupancy = np.bincount(cells[0] * grid_cells + cells[1], minlength=grid_cells * grid_cells)
    return DatasetStats(
        name=dataset.name,
        n_users=len(dataset.users),
        n_positions=int(counts_r.sum()),
        mean_positions_per_user=float(counts_r.mean()),
        max_positions_per_user=int(counts_r.max()),
        positions_per_km2=float(counts_r.sum()) / region_area,
        mean_mbr_area_ratio=float(mbr_ratios.mean()),
        gini_cell_occupancy=_gini(occupancy),
    )


def _view_overlap(dataset, sample=200, seed=0) -> float:
    """The MBR overlap fraction as a loop over ``MovingUser`` views computes it."""
    users = dataset.users
    rng = np.random.default_rng(seed)
    n = min(sample, len(users) * (len(users) - 1) // 2)
    pairs = [rng.choice(len(users), size=2, replace=False) for _ in range(n)]
    return sum(users[i].mbr.intersects(users[j].mbr) for i, j in pairs) / n


@pytest.mark.parametrize("make", [edge_dataset, c_like_dataset], ids=["edge", "c_like"])
def test_stats_off_the_arena_equal_the_per_user_views(make):
    assert compute_stats(make()) == _view_stats(make())
    assert mbr_overlap_fraction(make()) == _view_overlap(make())


class TestStats:
    def make_dataset(self, spread, name="x"):
        rng = np.random.default_rng(0)
        users = [
            MovingUser(uid, rng.normal(rng.uniform(0, 50, 2), spread, size=(10, 2)))
            for uid in range(30)
        ]
        return SpatialDataset.build(users, [], [candidate(0, 25, 25)], name=name)

    def test_basic_fields(self):
        ds = self.make_dataset(spread=2.0)
        stats = compute_stats(ds)
        assert stats.n_users == 30
        assert stats.n_positions == 300
        assert stats.mean_positions_per_user == pytest.approx(10.0)
        assert stats.max_positions_per_user == 10
        assert stats.positions_per_km2 > 0
        assert 0 <= stats.gini_cell_occupancy <= 1

    def test_bigger_spread_bigger_mbr_ratio(self):
        tight = compute_stats(self.make_dataset(spread=0.5))
        wide = compute_stats(self.make_dataset(spread=5.0))
        assert wide.mean_mbr_area_ratio > tight.mean_mbr_area_ratio

    def test_as_row(self):
        row = compute_stats(self.make_dataset(2.0, name="toy")).as_row()
        assert row["dataset"] == "toy"
        assert row["users"] == 30

    def test_gini_extremes(self):
        assert _gini(np.array([5, 5, 5, 5])) == pytest.approx(0.0, abs=1e-9)
        concentrated = np.zeros(100)
        concentrated[0] = 1000
        assert _gini(concentrated) > 0.95
        assert _gini(np.array([])) == 0.0
        assert _gini(np.zeros(5)) == 0.0

    def test_mbr_overlap_fraction(self):
        # Everyone shares the same activity area -> overlap ~ 1.
        rng = np.random.default_rng(1)
        users = [
            MovingUser(uid, rng.uniform(0, 10, size=(5, 2))) for uid in range(20)
        ]
        ds = SpatialDataset.build(users, [], [candidate(0, 5, 5)])
        assert mbr_overlap_fraction(ds) > 0.8
        # Far-apart users -> overlap ~ 0.
        users = [
            MovingUser(uid, np.full((3, 2), uid * 100.0) + rng.normal(0, 0.1, (3, 2)))
            for uid in range(10)
        ]
        ds = SpatialDataset.build(users, [], [candidate(0, 0, 0)])
        assert mbr_overlap_fraction(ds) < 0.2

    def test_compute_stats_empty_dataset_is_all_zeros(self):
        # A population with no users may have no well-defined region, so
        # the stub carries only what the empty guard reads.
        stats = compute_stats(SimpleNamespace(users=[], name="stub"))
        assert stats.n_users == 0
        assert stats.n_positions == 0
        assert stats.mean_positions_per_user == 0.0
        assert stats.max_positions_per_user == 0
        assert stats.positions_per_km2 == 0.0
        assert stats.mean_mbr_area_ratio == 0.0

    def test_single_user_overlap_zero(self):
        ds = SpatialDataset.build(
            [MovingUser(0, np.zeros((2, 2)))], [], [candidate(0, 0, 0)]
        )
        assert mbr_overlap_fraction(ds) == 0.0
