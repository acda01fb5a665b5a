"""Tests for the streaming MC²LS session.

Core invariant: after ANY sequence of arrivals/departures/updates, the
session's table and greedy selection equal those of a batch solve over
the surviving population.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.entities import MovingUser
from repro.exceptions import SolverError
from repro.influence import BatchInfluenceEvaluator
from repro.solvers import BaselineGreedySolver, MC2LSProblem
from repro.solvers.base import resolve_all_pairs
from repro.streaming import StreamingMC2LS
from repro.streaming import dynamic
from tests.conftest import build_instance


@pytest.fixture
def base():
    return build_instance(seed=9, n_users=20, n_candidates=8, n_facilities=6)


def batch_reference(session):
    dataset = session.current_dataset()
    problem = MC2LSProblem(dataset, k=session.k, tau=session.tau, pf=session.pf)
    return BaselineGreedySolver().solve(problem)


def assert_table_is_all_pairs(session):
    """The session's table equals a fresh all-pairs resolve, every row."""
    want = resolve_all_pairs(session.current_dataset(), session.pf, session.tau).table
    table = session.table()
    assert table.omega_c == want.omega_c
    assert table.f_o == want.f_o


class TestSessionBasics:
    def test_validation(self, base):
        with pytest.raises(SolverError):
            StreamingMC2LS(base.facilities, base.candidates, k=0)
        with pytest.raises(SolverError):
            StreamingMC2LS(base.facilities, base.candidates, k=99)

    def test_from_dataset_matches_batch(self, base):
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        assert len(session) == len(base.users)
        reference = batch_reference(session)
        outcome = session.current_selection()
        assert outcome.selected == reference.selected
        assert outcome.objective == pytest.approx(reference.objective)

    def test_duplicate_add_rejected(self, base):
        session = StreamingMC2LS.from_dataset(base, k=2, tau=0.5)
        with pytest.raises(SolverError):
            session.add_user(base.users[0])

    def test_remove_unknown_rejected(self, base):
        session = StreamingMC2LS.from_dataset(base, k=2, tau=0.5)
        with pytest.raises(SolverError):
            session.remove_user(9999)

    def test_contains_and_len(self, base):
        session = StreamingMC2LS.from_dataset(base, k=2, tau=0.5)
        uid = base.users[0].uid
        assert uid in session
        session.remove_user(uid)
        assert uid not in session
        assert len(session) == len(base.users) - 1

    def test_empty_session_dataset_rejected(self, base):
        session = StreamingMC2LS(base.facilities, base.candidates, k=2, tau=0.5)
        with pytest.raises(SolverError):
            session.current_dataset()


class TestIncrementalEquivalence:
    def test_after_departures(self, base):
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        for uid in [u.uid for u in base.users[:7]]:
            session.remove_user(uid)
        reference = batch_reference(session)
        outcome = session.current_selection()
        assert outcome.selected == reference.selected
        assert outcome.objective == pytest.approx(reference.objective)

    def test_after_arrivals(self, base):
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        rng = np.random.default_rng(0)
        for uid in range(1000, 1010):
            positions = rng.normal(rng.uniform(2, 23, 2), 1.0, size=(8, 2))
            session.add_user(MovingUser(uid, np.clip(positions, 0, 25)))
        reference = batch_reference(session)
        assert session.current_selection().selected == reference.selected

    def test_after_update(self, base):
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        user = base.users[0]
        moved = MovingUser(user.uid, user.positions + 3.0)
        session.update_user(moved)
        reference = batch_reference(session)
        assert session.current_selection().selected == reference.selected

    def test_remove_then_readd_is_identity(self, base):
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        before = session.current_selection()
        user = session.remove_user(base.users[3].uid)
        session.add_user(user)
        after = session.current_selection()
        assert before.selected == after.selected
        assert before.objective == pytest.approx(after.objective)

    @given(
        script=st.lists(
            st.tuples(st.sampled_from(["toggle", "update", "read"]), st.integers(0, 29)),
            min_size=1,
            max_size=30,
        )
    )
    # Add-then-remove, remove-then-re-add and an update split over reads.
    @example(
        script=[
            ("toggle", 12), ("read", 0), ("toggle", 12), ("update", 1),
            ("read", 0), ("toggle", 12), ("toggle", 12), ("toggle", 1),
            ("read", 0), ("toggle", 1), ("toggle", 12), ("read", 0),
        ]
    )
    @settings(max_examples=25, deadline=None)
    def test_random_event_stream(self, script):
        """Arrivals, departures and updates in any order, with reads at
        any point between them, keep every read equal to all-pairs.

        ``toggle`` adds an absent pool user or removes a present one,
        ``update`` moves a present user (an absent one is skipped) and
        ``read`` checks the patched table, so patches chain across reads.
        """
        base = build_instance(seed=11, n_users=12, n_candidates=6, n_facilities=4)
        pool = {u.uid: u for u in base.users}
        extra_rng = np.random.default_rng(42)
        for uid in range(100, 118):
            positions = extra_rng.normal(extra_rng.uniform(2, 23, 2), 1.2, (6, 2))
            pool[uid] = MovingUser(uid, np.clip(positions, 0, 25))
        uids = sorted(pool)

        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        present = {u.uid for u in base.users}
        for step, (op, index) in enumerate(script):
            uid = uids[index]
            if op == "read":
                assert_table_is_all_pairs(session)
            elif op == "update":
                if uid in present:
                    shift = ((step % 5) - 2) * 1.5
                    moved = np.clip(session.user(uid).positions + shift, 0, 25)
                    session.update_user(MovingUser(uid, moved))
            elif uid in present:
                if len(present) > 1:
                    session.remove_user(uid)
                    present.discard(uid)
            else:
                session.add_user(pool[uid])
                present.add(uid)
        assert_table_is_all_pairs(session)
        reference = batch_reference(session)
        outcome = session.current_selection()
        assert outcome.selected == reference.selected
        assert outcome.objective == pytest.approx(reference.objective)

    def test_events_do_no_influence_work(self, base, monkeypatch):
        """Events only record; the verification runs on the next read."""
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)

        def forbidden(*args, **kwargs):
            raise AssertionError("an event verified influence")

        monkeypatch.setattr(BatchInfluenceEvaluator, "influences_users", forbidden)
        monkeypatch.setattr(BatchInfluenceEvaluator, "influences_facilities", forbidden)
        user = base.users[2]
        session.add_user(MovingUser(6000, user.positions + 1.0))
        session.update_user(MovingUser(user.uid, user.positions + 2.0))
        session.remove_user(base.users[3].uid)
        session.add_user(MovingUser(6001, user.positions))
        session.remove_user(6001)
        monkeypatch.undo()
        assert_table_is_all_pairs(session)

    def test_removing_everyone_reads_the_empty_table(self, base):
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        for user in base.users:
            session.remove_user(user.uid)
        table = session.table()
        assert table.omega_c == {c.fid: set() for c in base.candidates}
        assert table.f_o == {}
        outcome = session.current_selection()
        assert outcome.selected == (0, 1, 2)
        assert outcome.objective == 0.0
        assert outcome.evaluations == 21
        # The population can grow back from the empty table.
        session.add_user(base.users[5])
        assert_table_is_all_pairs(session)


class TestEventAccounting:
    def test_events_counted(self, base):
        session = StreamingMC2LS.from_dataset(base, k=2, tau=0.5)
        n = session.events_processed
        session.remove_user(base.users[0].uid)
        assert session.events_processed == n + 1
        session.update_user(base.users[1])
        assert session.events_processed == n + 2


class TestUpdateExceptionSafety:
    """A failed ``update_user`` must not corrupt the session."""

    def test_update_unknown_rejected(self, base):
        session = StreamingMC2LS.from_dataset(base, k=2, tau=0.5)
        with pytest.raises(SolverError):
            session.update_user(MovingUser(999, np.full((2, 2), 5.0)))


class TestReadFailure:
    """A read whose patch raises leaves the session as it was."""

    def test_failed_patch_leaves_the_session_intact(self, base, monkeypatch):
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        session.drain_delta("hash-0")
        cached = session.table()
        user = base.users[2]
        session.update_user(MovingUser(user.uid, user.positions + 2.0))
        session.add_user(MovingUser(8000, user.positions))
        session.remove_user(base.users[4].uid)
        before_len = len(session)
        before_events = session.events_processed
        before_delta = session.pending_delta()
        before_omega = {cid: set(users) for cid, users in cached.omega_c.items()}
        before_fo = {uid: set(fids) for uid, fids in cached.f_o.items()}

        calls = []

        def exploding(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("patch exploded")

        monkeypatch.setattr(dynamic, "patch_resolution", exploding)
        with pytest.raises(RuntimeError, match="patch exploded"):
            session.table()
        with pytest.raises(RuntimeError, match="patch exploded"):
            session.current_selection()
        monkeypatch.undo()

        assert len(calls) == 2  # every read retried the patch
        assert len(session) == before_len
        assert session.events_processed == before_events
        assert session.pending_delta() == before_delta
        assert session._resolved.table is cached
        assert cached.omega_c == before_omega
        assert cached.f_o == before_fo
        # The next read patches every touched uid, as if nothing failed.
        assert_table_is_all_pairs(session)
        reference = batch_reference(session)
        assert session.current_selection().selected == reference.selected


class TestDeltaLog:
    """Net-churn accounting at the streaming -> service seam."""

    def _drained(self, base, k=3):
        session = StreamingMC2LS.from_dataset(base, k=k, tau=0.5)
        session.drain_delta("hash-0")  # seal the bootstrap churn
        return session

    def test_bootstrap_adds_are_pending(self, base):
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        delta = session.pending_delta()
        assert delta.parent_hash is None
        assert delta.added == tuple(sorted(u.uid for u in base.users))
        assert delta.removed == () and delta.updated == ()

    def test_collapse_add_then_remove_nets_out(self, base):
        session = self._drained(base)
        newcomer = MovingUser(7000, base.users[0].positions + 1.0)
        session.add_user(newcomer)
        session.remove_user(7000)
        assert not session.pending_delta()
        assert len(session.pending_delta()) == 0

    def test_collapse_remove_then_readd_is_updated(self, base):
        session = self._drained(base)
        uid = base.users[3].uid
        user = session.user(uid)
        session.remove_user(uid)
        session.add_user(user)
        delta = session.pending_delta()
        assert delta.updated == (uid,)
        assert delta.added == () and delta.removed == ()

    def test_update_marks_updated_and_dirty_doomed_views(self, base):
        session = self._drained(base)
        uid = base.users[1].uid
        session.update_user(MovingUser(uid, session.user(uid).positions + 0.5))
        session.add_user(MovingUser(7001, base.users[0].positions))
        session.remove_user(base.users[2].uid)
        delta = session.pending_delta()
        assert delta.updated == (uid,)
        assert delta.added == (7001,)
        assert delta.removed == (base.users[2].uid,)
        assert delta.dirty == tuple(sorted((uid, 7001)))
        assert delta.doomed == tuple(sorted((uid, base.users[2].uid)))
        assert len(delta) == 3 and bool(delta)

    def test_update_of_freshly_added_user_stays_added(self, base):
        session = self._drained(base)
        session.add_user(MovingUser(7002, base.users[0].positions))
        session.update_user(MovingUser(7002, base.users[0].positions + 1.0))
        delta = session.pending_delta()
        assert delta.added == (7002,)
        assert delta.updated == ()

    def test_drain_advances_the_mark_and_clears(self, base):
        session = self._drained(base)
        uid = base.users[0].uid
        session.update_user(MovingUser(uid, session.user(uid).positions + 0.5))
        first = session.drain_delta("hash-1")
        assert first.parent_hash == "hash-0"
        assert first.updated == (uid,)
        assert not session.pending_delta()
        assert session.pending_delta().parent_hash == "hash-1"

    def test_absent_uid_mutations_leave_the_log_untouched(self, base):
        session = self._drained(base)
        before = session.pending_delta()
        with pytest.raises(SolverError):
            session.remove_user(424242)
        with pytest.raises(SolverError):
            session.update_user(MovingUser(424242, base.users[0].positions))
        assert session.pending_delta() == before

    def test_snapshot_seam_chains_content_hashes(self, base):
        pytest.importorskip("repro.service")
        session = StreamingMC2LS.from_dataset(base, k=3, tau=0.5)
        snap1 = session.snapshot()
        assert snap1.delta is not None
        assert snap1.delta.parent_hash is None  # nothing published before
        uid = base.users[0].uid
        session.update_user(MovingUser(uid, session.user(uid).positions + 0.5))
        snap2 = session.snapshot()
        assert snap2.delta.parent_hash == snap1.content_hash
        assert snap2.delta.updated == (uid,)
