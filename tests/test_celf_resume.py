"""One resumable CELF run per coverage matrix, and the spliced session arena.

``CoverageMatrix.select(k)`` answers every ``k`` from one
:class:`~repro.solvers.selection.CelfRun`: a prefix when the run already
has ``k`` rounds, an extension otherwise.  Whatever order the ``k`` come
in, every answer must equal a fresh ``celf_select`` on a fresh state
(``evaluations`` included) and the scalar ``oracle.greedy_select``, on
full, restricted and patched (warm-seeded) matrices, under threads and
after a cancelled extension.

``StreamingMC2LS.current_dataset`` splices its previous position arena
instead of repacking every user; the result must equal
``PositionArena.from_users`` bit for bit, and so keep the content
digests.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.competition import EvenlySplitModel, InfluenceTable
from repro.entities import MovingUser, SpatialDataset
from repro.exceptions import DataError, SolverError
from repro.influence import PositionArena
from repro.service import dataset_content_hash
from repro.solvers import CelfRun, CoverageMatrix, celf_select
from repro.solvers import coverage as coverage_module
from repro.solvers.coverage import _CoverageState
from repro.solvers.selection import SelectionState
from repro.streaming import StreamingMC2LS
from tests import test_streaming_publish
from tests.test_streaming_publish import c_like_dataset, edge_dataset


@st.composite
def tables(draw, max_candidates=10, max_users=24):
    """A random table; weights drawn from few competitor counts, so exact
    gain ties are common."""
    n_c = draw(st.integers(1, max_candidates))
    n_u = draw(st.integers(1, max_users))
    omega = {
        cid: set(draw(st.lists(st.integers(0, n_u - 1), max_size=n_u)))
        for cid in range(n_c)
    }
    f_o = {
        uid: set(draw(st.lists(st.integers(0, 3), max_size=3)))
        for uid in range(n_u)
    }
    return InfluenceTable.from_mappings(omega, f_o)


@st.composite
def k_sequences(draw, n):
    """``k`` values in [1, n]: as drawn (shuffled, repeated), ascending or
    descending."""
    ks = draw(st.lists(st.integers(1, n), min_size=1, max_size=8))
    order = draw(st.sampled_from(["drawn", "ascending", "descending"]))
    if order == "ascending":
        ks.sort()
    elif order == "descending":
        ks.sort(reverse=True)
    return ks


def _fresh(matrix, k):
    return celf_select(_CoverageState(matrix), k)


def assert_answers(matrix, table, ks, fresh_matrix=None):
    """Every select over ``ks`` equals a fresh run and the scalar oracle."""
    reference = {k: _fresh(fresh_matrix or matrix, k) for k in set(ks)}
    for k in ks:
        got = matrix.select(k)
        assert got == reference[k]
        scalar = oracle.greedy_select(table, matrix.candidate_ids, k)
        assert got.selected == scalar.selected
        assert got.gains == scalar.gains
        assert got.objective == scalar.objective


class TestPrefixAnswers:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_full_matrix(self, data):
        table = data.draw(tables())
        cids = sorted(table.omega_c)
        matrix = CoverageMatrix(table, cids)
        ks = data.draw(k_sequences(len(cids)))
        assert_answers(matrix, table, ks, fresh_matrix=CoverageMatrix(table, cids))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_restricted_matrix(self, data):
        table = data.draw(tables())
        cids = sorted(table.omega_c)
        mask = data.draw(st.sets(st.sampled_from(cids), min_size=1))
        full = CoverageMatrix(table, cids)
        full.select(data.draw(st.integers(1, len(cids))))  # the parent's run
        sub = full.restrict(mask)
        sub_table = table.restricted(set(mask))
        ks = data.draw(k_sequences(len(mask)))
        assert_answers(sub, sub_table, ks, fresh_matrix=full.restrict(mask))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_patched_matrix_warm_seeded(self, data):
        table = data.draw(tables())
        cids = sorted(table.omega_c)
        old = CoverageMatrix(table, cids)
        old.select(data.draw(st.integers(1, len(cids))))  # captures round 0
        users = sorted(table.f_o)
        removed = data.draw(st.sets(st.sampled_from(users)))
        dirty = data.draw(st.sets(st.sampled_from(users + [100, 101])))
        dirty -= removed
        added_cover = {
            uid: set(data.draw(st.lists(st.sampled_from(cids), max_size=3)))
            for uid in dirty
        }
        omega = {
            cid: (users_of - removed - dirty)
            | {uid for uid, cover in added_cover.items() if cid in cover}
            for cid, users_of in table.omega_c.items()
        }
        f_o = {uid: fs for uid, fs in table.f_o.items() if uid not in removed}
        for uid in dirty:
            f_o[uid] = set(data.draw(st.lists(st.integers(0, 3), max_size=3)))
        new_table = InfluenceTable.from_mappings(omega, f_o)
        patched = old.patched(new_table, added_cover, sorted(removed))
        assert patched.round0_bounds is not None
        twin = old.patched(new_table, added_cover, sorted(removed))
        ks = data.draw(k_sequences(len(cids)))
        assert_answers(patched, new_table, ks, fresh_matrix=twin)
        # Seeded or not, the selection is a fresh densification's.
        cold = CoverageMatrix(new_table, cids, model=EvenlySplitModel())
        for k in set(ks):
            got, want = patched.select(k), cold.select(k)
            assert (got.selected, got.gains) == (want.selected, want.gains)

    def test_k_is_validated_on_every_path(self):
        table = InfluenceTable.from_mappings({1: {1, 2}, 2: {3}}, {})
        matrix = CoverageMatrix(table, [1, 2])
        matrix.select(2)
        for k in (0, -1, 3):
            with pytest.raises(SolverError, match="infeasible"):
                matrix.select(k)


class TestSharedRun:
    @pytest.mark.parametrize("seed", range(3))
    def test_four_threads_on_one_matrix(self, seed):
        rng = np.random.default_rng(seed)
        omega = {
            cid: set(rng.choice(300, size=int(rng.integers(0, 120)), replace=False).tolist())
            for cid in range(40)
        }
        table = InfluenceTable.from_mappings(omega, {})
        cids = sorted(omega)
        reference = {k: _fresh(CoverageMatrix(table, cids), k) for k in range(1, 41)}
        matrix = CoverageMatrix(table, cids)
        barrier = threading.Barrier(4)
        errors = []

        def worker(i):
            ks = np.random.default_rng(seed * 10 + i).permutation(np.arange(1, 41))
            barrier.wait()
            try:
                for k in ks.tolist():
                    assert matrix.select(k) == reference[k]
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert matrix._run.rounds == 40

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_cancel_mid_extension_keeps_the_completed_rounds(self, r):
        rng = np.random.default_rng(r)
        omega = {
            cid: set(rng.choice(60, size=int(rng.integers(0, 30)), replace=False).tolist())
            for cid in range(12)
        }
        table = InfluenceTable.from_mappings(omega, {})
        matrix = CoverageMatrix(table, sorted(omega))
        calls = []

        def check():
            calls.append(None)
            if len(calls) > r:
                raise KeyboardInterrupt  # any exception: cancel is not special

        with pytest.raises(KeyboardInterrupt):
            matrix.select(8, cancel_check=check)
        assert matrix._run.rounds == r and not matrix._run.broken
        fresh = CoverageMatrix(table, sorted(omega))
        for k in (8, 2, 12, 1):
            assert matrix.select(k) == _fresh(fresh, k)

    def test_an_expired_query_is_not_served_a_prefix(self):
        table = InfluenceTable.from_mappings(
            {c: set(range(c, c + 6)) for c in range(8)}, {}
        )
        matrix = CoverageMatrix(table, list(range(8)))
        matrix.select(5)

        def expired():
            raise TimeoutError

        with pytest.raises(TimeoutError):
            matrix.select(3, cancel_check=expired)
        assert matrix._run.rounds == 5

    def test_a_query_that_expires_waiting_on_the_lock_raises(self):
        table = InfluenceTable.from_mappings(
            {c: set(range(c, c + 6)) for c in range(8)}, {}
        )
        matrix = CoverageMatrix(table, list(range(8)))
        waiting = []

        class RecordingLock:
            """The matrix's lock, noting each thread that reaches it."""

            def __init__(self):
                self._lock = threading.Lock()

            def __enter__(self):
                waiting.append(threading.current_thread().name)
                self._lock.acquire()

            def __exit__(self, *exc):
                self._lock.release()

        matrix._run_lock = RecordingLock()
        holding, release, expired = (threading.Event() for _ in range(3))
        calls = []

        def hold():
            # The first check is round 0 of the run, under the lock.
            calls.append(None)
            if len(calls) == 1:
                holding.set()
                release.wait(30)

        def deadline():
            if expired.is_set():
                raise TimeoutError

        outcome = {}

        def query():
            try:
                outcome["answer"] = matrix.select(3, cancel_check=deadline)
            except TimeoutError as exc:
                outcome["error"] = exc

        extender = threading.Thread(
            target=matrix.select, args=(6,), kwargs={"cancel_check": hold}
        )
        waiter = threading.Thread(target=query, name="waiter")
        extender.start()
        assert holding.wait(30)
        waiter.start()
        for _ in range(3000):
            if "waiter" in waiting:
                break
            time.sleep(0.01)
        assert "waiter" in waiting
        expired.set()  # the deadline passes while the waiter is blocked
        release.set()
        extender.join(30)
        waiter.join(30)
        assert matrix._run.rounds == 6  # the extension covered k=3 ...
        assert "error" in outcome and "answer" not in outcome  # ... unserved
        assert matrix.select(3) == _fresh(CoverageMatrix(table, list(range(8))), 3)

    def test_failure_inside_a_round_starts_a_fresh_run(self, monkeypatch):
        table = InfluenceTable.from_mappings(
            {c: set(range(c, c + 6)) for c in range(8)}, {}
        )
        matrix = CoverageMatrix(table, list(range(8)))
        matrix.select(2)
        real = coverage_module._screened_gains

        def failing(*args):
            raise MemoryError

        monkeypatch.setattr(coverage_module, "_screened_gains", failing)
        with pytest.raises(MemoryError):
            matrix.select(6)
        assert matrix._run.broken
        monkeypatch.setattr(coverage_module, "_screened_gains", real)
        restarted = matrix.select(6)
        assert not matrix._run.broken
        # The restart seeds round 0 from the bounds the broken run
        # captured; only its evaluation count differs from a cold run's.
        assert restarted == _fresh(matrix, 6)
        cold = _fresh(CoverageMatrix(table, list(range(8))), 6)
        assert (restarted.selected, restarted.gains) == (cold.selected, cold.gains)

    def test_no_reference_cycle_between_matrix_and_run(self):
        import gc
        import weakref

        table = InfluenceTable.from_mappings({1: {1, 2}, 2: {2, 3}, 3: {4}}, {})
        matrix = CoverageMatrix(table, [1, 2, 3])
        matrix.select(3)
        sub = matrix.restrict([1, 3])
        sub.select(2)
        refs = [weakref.ref(matrix), weakref.ref(sub), weakref.ref(sub._run)]
        gc.disable()
        try:
            del matrix, sub
            assert all(ref() is None for ref in refs)  # freed by refcount alone
        finally:
            gc.enable()


class _ScalarState(SelectionState):
    """Default (scalar) bounds: the heap-CELF branch of a run."""

    def __init__(self, values, fail_at=None):
        self.candidate_ids = tuple(range(len(values)))
        self._values = list(values)
        self._picked = 0
        self._calls = 0
        self._fail_at = fail_at

    def gain(self, j):
        self._calls += 1
        if self._calls == self._fail_at:
            raise RuntimeError("boom")
        return self._values[j] / (1 + self._picked)

    def add(self, j):
        self._picked += 1


class TestCelfRun:
    def test_outcomes_are_prefixes_of_one_run(self):
        values = [3.0, 5.0, 5.0, 1.0, 4.0]
        run = CelfRun(_ScalarState(values))
        run.extend(2)
        run.extend(5)
        for k in range(1, 6):
            assert run.outcome(k) == celf_select(_ScalarState(values), k)
        with pytest.raises(SolverError):
            run.outcome(6)

    def test_outcome_beyond_the_run_is_refused(self):
        run = CelfRun(_ScalarState([1.0, 2.0]))
        run.extend(1)
        with pytest.raises(SolverError, match="1 rounds"):
            run.outcome(2)

    def test_failed_round_poisons_the_run(self):
        run = CelfRun(_ScalarState([3.0, 2.0, 1.0], fail_at=5))
        with pytest.raises(RuntimeError):
            run.extend(3)
        assert run.broken
        with pytest.raises(SolverError, match="cannot resume"):
            run.extend(3)


def _user(uid, rng):
    return MovingUser(uid, rng.normal(0.0, 5.0, (int(rng.integers(1, 6)), 2)))


def assert_arena_matches(session, live):
    """The session's dataset packs exactly ``live`` (uid -> user), in uid order."""
    dataset = session.current_dataset()
    users = [live[uid] for uid in sorted(live)]
    want = PositionArena.from_users(users)
    got = dataset.arena
    assert got.positions.dtype == want.positions.dtype
    assert got.positions.shape == want.positions.shape
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.offsets.dtype == want.offsets.dtype
    assert np.array_equal(got.offsets, want.offsets)
    assert got.uids.dtype == want.uids.dtype
    assert np.array_equal(got.uids, want.uids)
    assert not got.positions.flags.writeable
    fresh = dataset.with_users(users)
    assert dataset_content_hash(dataset) == dataset_content_hash(fresh)
    return dataset


class TestSplicedArena:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        steps=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    )
    def test_random_churn_equals_a_full_pack(self, seed, steps):
        base = edge_dataset()
        rng = np.random.default_rng(seed)
        session = StreamingMC2LS(base.facilities, base.candidates, k=1)
        live = {}
        for user in base.users:
            session.add_user(user)
            live[user.uid] = user
        assert_arena_matches(session, live)
        gone = {}
        next_uid = 100
        for n_events in steps:
            for _ in range(n_events):
                op = int(rng.integers(0, 4))
                present = session.uids().tolist()
                if op == 0 and len(present) > 1:
                    uid = int(rng.choice(present))
                    gone[uid] = session.remove_user(uid)
                    del live[uid]
                elif op == 1 and gone:
                    uid = sorted(gone)[int(rng.integers(0, len(gone)))]
                    live[uid] = gone.pop(uid)
                    session.add_user(live[uid])  # re-add
                elif op == 2 and present:
                    user = _user(int(rng.choice(present)), rng)
                    session.update_user(user)
                    live[user.uid] = user
                else:
                    live[next_uid] = _user(next_uid, rng)
                    session.add_user(live[next_uid])
                    next_uid += 1
            assert_arena_matches(session, live)

    def test_empty_delta_reuses_the_dataset(self):
        base = edge_dataset()
        session = StreamingMC2LS.from_dataset(base, k=1)
        first = assert_arena_matches(session, {u.uid: u for u in base.users})
        assert session.current_dataset() is first
        session.snapshot()
        assert session.current_dataset() is first

    def test_golden_digest_survives_churn_and_restore(self):
        base = c_like_dataset()
        golden = test_streaming_publish.TestContentDigest.GOLDEN["c_like"]
        rng = np.random.default_rng(7)
        session = StreamingMC2LS(base.facilities, base.candidates, k=2)
        for user in base.users:
            session.add_user(user)
        originals = {u.uid: u for u in base.users}
        live = dict(originals)
        assert dataset_content_hash(assert_arena_matches(session, live)) == golden
        uids = sorted(originals)
        # Far more than 25% of the users move, some leave, some arrive.
        moved = rng.choice(uids, size=len(uids) * 2 // 5, replace=False).tolist()
        left = [u for u in rng.choice(uids, size=60, replace=False).tolist()
                if u not in moved]
        for uid in moved:
            live[uid] = _user(uid, rng)
            session.update_user(live[uid])
        for uid in left:
            session.remove_user(uid)
            del live[uid]
        for uid in range(10_000, 10_050):
            live[uid] = _user(uid, rng)
            session.add_user(live[uid])
        churned = assert_arena_matches(session, live)
        assert dataset_content_hash(churned) != golden
        # Restore the population: re-adds, moves back, arrivals leave.
        for uid in left:
            session.add_user(originals[uid])
        for uid in moved:
            session.update_user(originals[uid])
        for uid in range(10_000, 10_050):
            session.remove_user(uid)
        assert dataset_content_hash(assert_arena_matches(session, originals)) == golden

    def test_splice_refuses_an_unsorted_arena_or_a_kept_uid(self):
        rng = np.random.default_rng(3)
        users = [_user(uid, rng) for uid in (1, 4, 9)]
        unsorted = PositionArena.from_users([users[1], users[0], users[2]])
        with pytest.raises(DataError, match="ascending"):
            unsorted.spliced([4], [_user(4, rng)])
        arena = PositionArena.from_users(users)
        with pytest.raises(DataError, match="ascending"):
            arena.spliced([4], [_user(9, rng)])  # 9 is kept, not stale
        with pytest.raises(DataError, match="ascending"):
            arena.spliced([5, 6], [_user(6, rng), _user(5, rng)])  # out of order

    def test_from_dataset_sorts_an_unsorted_arena_once(self):
        base = edge_dataset()
        shuffled = SpatialDataset.build(base.users[::-1], base.facilities, base.candidates)
        session = StreamingMC2LS.from_dataset(shuffled, k=1)
        assert session.uids().tolist() == sorted(u.uid for u in base.users)
        dataset = assert_arena_matches(session, {u.uid: u for u in base.users})
        assert dataset_content_hash(dataset) == dataset_content_hash(
            StreamingMC2LS.from_dataset(base, k=1).current_dataset()
        )
