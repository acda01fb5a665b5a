"""The position arena is the one store of a population's users.

Datasets, generated populations and the streaming session keep user
positions only in a :class:`~repro.influence.PositionArena`; the
``users`` tuple of :class:`~repro.entities.MovingUser` views is built on
first read for the oracle, statistics and figure code.  No production
path may read it: the guard tests below make every ``users`` read raise
and run generation, solving, serving and a churn publish.  The other
tests pin the arena-native derivations to the per-user code they
replace, draw for draw.
"""

import numpy as np
import pytest

from repro.capture import CaptureSpec
from repro.data import load_checkins
from repro.data.synthetic import SyntheticPopulation, california_spec, generate_population
from repro.entities import MovingUser, SpatialDataset
from repro.exceptions import DataError, SolverError
from repro.influence import PositionArena
from repro.service import SelectionEngine, SelectionQuery, dataset_content_hash
from repro.solvers import IQTSolver, MC2LSProblem
from repro.streaming import StreamingMC2LS
from repro.tuning.canned import jitter_users


def _refuse(self):
    raise AssertionError("a hot path read the MovingUser view")


@pytest.fixture
def no_user_views(monkeypatch):
    for owner in (SpatialDataset, SyntheticPopulation):
        monkeypatch.setattr(owner, "users", property(_refuse), raising=False)


def _population():
    return generate_population(california_spec(n_users=240), seed=3)


class TestNoHotPathReadsUsers:
    def test_generation_sampling_and_solve(self, no_user_views):
        ds = _population().dataset(12, 20, seed=4)
        ds = ds.subsample_users(200, seed=5).subsample_positions(8, seed=6)
        result = IQTSolver().solve(MC2LSProblem(ds, k=3, tau=0.7))
        assert len(result.selected) == 3

    def test_engine_full_masked_and_capture_queries(self, no_user_views):
        ds = _population().dataset(12, 20, seed=4)
        with SelectionEngine(ds) as engine:
            for query in (
                SelectionQuery(k=3),
                SelectionQuery(k=2, candidate_ids=(0, 2, 4, 6, 8)),
                SelectionQuery(k=3, capture=CaptureSpec(model="mnl", mnl_beta=2.0)),
                SelectionQuery(k=3, capture=CaptureSpec(model="huff", huff_utility=0.8)),
                SelectionQuery(k=3, capture=CaptureSpec(model="fixed-worlds", worlds=8)),
            ):
                assert engine.execute(query).selected

    def test_churn_publish_answers_from_the_patched_table(self, no_user_views):
        ds = _population().dataset(12, 20, seed=4)
        session = StreamingMC2LS.from_dataset(ds, k=3)
        query = SelectionQuery(k=3)
        with SelectionEngine() as engine:
            engine.publish_streaming(session)
            engine.execute(query)
            jitter_users(session, 10, seed=7)
            engine.publish_streaming(session)
            assert engine.execute(query).selected
            assert engine.stats()["incremental"]["patched"] == 1


class TestArenaDerivations:
    def test_generation_and_dataset_share_one_arena(self):
        population = _population()
        ds = population.dataset(12, 20, seed=4)
        assert ds.arena is population.arena
        assert [u.uid for u in population.users] == list(range(240))
        assert ds.users[7].positions.base is not None  # a view, not a copy

    def test_subsample_users_equals_the_per_user_draw(self):
        ds = _population().dataset(12, 20, seed=4)
        got = ds.subsample_users(50, seed=9)
        idx = np.random.default_rng(9).choice(len(ds.users), size=50, replace=False)
        want = ds.with_users(ds.users[i] for i in np.sort(idx))
        assert dataset_content_hash(got) == dataset_content_hash(want)

    def test_subsample_positions_equals_the_per_user_draw(self):
        ds = _population().dataset(12, 20, seed=4)
        got = ds.subsample_positions(30, seed=2)
        rng = np.random.default_rng(2)
        want = ds.with_users(
            MovingUser(u.uid, u.positions[np.sort(rng.choice(u.r, size=30, replace=False))])
            for u in ds.users if u.r >= 30
        )
        assert 0 < len(got.arena) < len(ds.arena)
        assert dataset_content_hash(got) == dataset_content_hash(want)
        with pytest.raises(DataError, match="no user"):
            ds.subsample_positions(10**6)
        with pytest.raises(DataError):
            ds.subsample_positions(0)

    def test_from_users_needs_users_with_distinct_uids(self):
        users = [MovingUser(uid, np.full((1, 2), uid, float)) for uid in (2, 1, 2)]
        with pytest.raises(DataError, match="zero users"):
            PositionArena.from_users([])
        with pytest.raises(DataError, match="duplicate"):
            PositionArena.from_users(users)
        assert PositionArena.from_users(users[:2]).uids.tolist() == [2, 1]

    def test_loader_rejects_a_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "checkins.txt"
        path.write_text("0\tt\t40.7\t-74.0\ta\n0\tt\tnan\t-74.1\tb\n")
        with pytest.raises(DataError, match=":2: non-finite"):
            load_checkins(path)


class TestSessionReadApi:
    def test_uids_and_user_follow_the_events(self):
        base = _population().dataset(12, 20, seed=4).subsample_users(20, seed=1)
        session = StreamingMC2LS.from_dataset(base, k=2)
        uids = base.arena.uids.tolist()
        assert session.uids().tolist() == uids and len(session) == 20
        moved = MovingUser(uids[3], base.users[3].positions + 1.0)
        session.update_user(moved)
        session.remove_user(uids[5])
        session.add_user(MovingUser(10_000, base.users[0].positions))
        assert session.uids().tolist() == uids[:5] + uids[6:] + [10_000]
        assert session.user(uids[3]) is moved
        assert np.array_equal(session.user(uids[4]).positions, base.users[4].positions)
        assert uids[5] not in session and 10_000 in session and len(session) == 20
        with pytest.raises(SolverError, match="not present"):
            session.user(uids[5])
        session.current_dataset()
        assert session.uids().tolist() == uids[:5] + uids[6:] + [10_000]
        assert np.array_equal(session.user(uids[3]).positions, moved.positions)

    def test_from_dataset_counts_every_user_as_an_arrival(self):
        base = _population().dataset(12, 20, seed=4).subsample_users(20, seed=1)
        session = StreamingMC2LS.from_dataset(base, k=2)
        assert session.events_processed == 20
        assert session.pending_delta().added == tuple(base.arena.uids.tolist())
