"""Delta-maintained prepared instances: the patch-vs-fresh identity suite.

The incremental republish path (PR 6) must be *undetectable* from the
query side: a :meth:`PreparedInstance.patched` instance — dirty rows
re-verified, CSR matrix spliced, CELF bounds warm-started — answers every
query bit-identically to a fresh resolve of the mutated dataset and to
the scalar oracle.  This suite pins that against every registered
solver, spliced or freshly densified matrix and warm or cold CELF start,
exercises
the CSR splice and compaction paths elementwise, and covers the engine's
publish-time migration including its ablation knob and failure fallbacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.capture import CaptureSpec
from repro.entities import MovingUser
from repro.exceptions import ServiceError, SolverError
from repro.influence import BatchInfluenceEvaluator, paper_default_pf
from repro.pruning import PinocchioPruner
from repro.service import (
    DatasetSnapshot,
    PreparedInstance,
    SelectionEngine,
    SelectionQuery,
    solve_queries,
)
from repro.solvers import (
    CoverageMatrix,
    IQTSolver,
    MC2LSProblem,
    patch_resolution,
)
from repro.solvers.registry import SOLVER_FACTORIES
from repro.streaming import StreamingMC2LS
from tests.conftest import build_instance

TAU = 0.6


def make_session(seed=11, n_users=40, n_candidates=10, n_facilities=8, k=4):
    base = build_instance(
        seed=seed,
        n_users=n_users,
        n_candidates=n_candidates,
        n_facilities=n_facilities,
    )
    return StreamingMC2LS.from_dataset(base, k=k, tau=TAU)


def churn(session, moves=(), adds=(), removes=(), seed=0):
    """Apply a deterministic burst of events to a session."""
    rng = np.random.default_rng(seed)
    for uid in moves:
        user = session.user(uid)
        jitter = rng.normal(0.0, 1.0, user.positions.shape)
        session.update_user(MovingUser(uid, user.positions + jitter))
    for uid in adds:
        anchor = session.user(session.uids()[0]).positions
        session.add_user(MovingUser(uid, anchor + rng.normal(0.0, 4.0, anchor.shape)))
    for uid in removes:
        session.remove_user(uid)


def standard_churn(session):
    churn(session, moves=(1, 4, 7), adds=(500, 501), removes=(2, 9), seed=3)


class TestPatchBitIdentity:
    @pytest.mark.parametrize("solver_name", sorted(SOLVER_FACTORIES))
    @pytest.mark.parametrize("densified", [True, False])
    @pytest.mark.parametrize("warm_start", [True, False])
    def test_identical_to_fresh_resolve(self, solver_name, densified, warm_start):
        """``warm_start``: the spliced matrix carries its parent's round-0
        bounds and seeds its run from them (else it runs unseeded).  The
        patched table must also agree with a fresh resolve, and the patched
        selections with a direct solve, by every registered solver."""
        session = make_session()
        snap1 = DatasetSnapshot.from_streaming(session)
        old = PreparedInstance(snap1, TAU)
        if densified:
            old.select(3)  # build the matrix, so the patch splices it
            if not warm_start:
                old.matrix().round0_bounds = None
        standard_churn(session)
        snap2 = DatasetSnapshot.from_streaming(session)

        patched = PreparedInstance.patched(old, snap2)
        fresh = PreparedInstance(snap2, TAU)

        # The query-observable surface: selections, gains, objectives for
        # several k, with and without a candidate mask.
        solver = SOLVER_FACTORIES[solver_name]()
        for k in (1, 2, 4):
            p = patched.select(k)
            problem = MC2LSProblem(snap2.dataset, k=k, tau=TAU)
            for f in (
                fresh.select(k),
                solver.solve(problem),
                oracle.solve(problem),
            ):
                assert p.selected == f.selected
                assert p.gains == f.gains
                assert p.objective == f.objective
        mask = patched.candidate_ids[::2]
        p = patched.select(2, candidate_ids=mask)
        f = fresh.select(2, candidate_ids=mask)
        assert p.selected == f.selected and p.gains == f.gains

        # The resolved relationships themselves: omega_c must match
        # exactly; f_o on every user a candidate influences (the subset
        # any selection reads; resolves may legitimately differ on the
        # rest).
        by_solver = solver.resolve(snap2.dataset, TAU).table
        for table in (fresh.table, by_solver):
            assert patched.table.omega_c == table.omega_c
            for uid in table.influenced_users():
                assert patched.table.f_o.get(uid) == table.f_o.get(uid)

    def test_selection_work_matches_fresh_when_cold(self):
        session = make_session()
        snap1 = DatasetSnapshot.from_streaming(session)
        old = PreparedInstance(snap1, TAU)
        old.matrix()  # built, but no select has captured round-0 bounds
        standard_churn(session)
        snap2 = DatasetSnapshot.from_streaming(session)
        patched = PreparedInstance.patched(old, snap2)
        fresh = PreparedInstance(snap2, TAU)
        # With no bounds to seed from, the patched matrix runs the identical
        # CELF schedule, so even the evaluation counter matches the fresh one.
        assert patched.select(4) == fresh.select(4)

    def test_patch_counters_equal_pruned_scalar_twin(self):
        """The patch prunes before it verifies: its pruning counters equal
        the per-user IA/NIB classification of every dirty row against
        every site, its evaluation counters the scalar early-stop
        evaluator over exactly the pairs that classification leaves to
        verify, and its table the all-pairs oracle's."""
        session = make_session()
        snap1 = DatasetSnapshot.from_streaming(session)
        old = PreparedInstance(snap1, TAU)
        standard_churn(session)
        snap2 = DatasetSnapshot.from_streaming(session)
        patched = PreparedInstance.patched(old, snap2)

        dataset = snap2.dataset
        users = {u.uid: u for u in dataset.users}
        pruner = PinocchioPruner(dataset.abstract_facilities, TAU, paper_default_pf())
        scalar = oracle.InfluenceEvaluator(paper_default_pf(), TAU)
        for uid in snap2.delta.dirty:
            for v in pruner.classify_user(users[uid]).verify:
                scalar.influences(v.x, v.y, users[uid].positions)
        assert pruner.stats.verify > 0
        assert patched.resolved.pruning == pruner.stats
        assert patched.resolved.evaluation == scalar.stats

        want = oracle.resolve_all_pairs(
            dataset, oracle.InfluenceEvaluator(paper_default_pf(), TAU)
        ).table
        assert patched.table.omega_c == want.omega_c
        for uid in snap2.delta.dirty:
            assert patched.table.f_o[uid] == want.f_o[uid]

    def test_patched_provenance_and_cost_accounting(self):
        session = make_session()
        snap1 = DatasetSnapshot.from_streaming(session)
        old = PreparedInstance(snap1, TAU)
        standard_churn(session)
        snap2 = DatasetSnapshot.from_streaming(session)
        patched = PreparedInstance.patched(old, snap2)
        assert old.provenance == "resolved"
        assert patched.provenance == "patched"
        assert patched.patched_users == len(snap2.delta.dirty)
        assert "patch" in patched.resolved.timings
        assert patched.prepare_seconds > 0.0

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_random_event_bursts(self, data):
        session = make_session(seed=23, n_users=25, n_candidates=8, n_facilities=6)
        snap1 = DatasetSnapshot.from_streaming(session)
        old = PreparedInstance(snap1, TAU)
        old.select(3)
        uids = session.uids().tolist()
        moves = data.draw(st.lists(st.sampled_from(uids), unique=True, max_size=6))
        removable = [u for u in uids if u not in moves]
        removes = data.draw(
            st.lists(st.sampled_from(removable), unique=True, max_size=4)
            if removable
            else st.just([])
        )
        n_adds = data.draw(st.integers(min_value=0, max_value=3))
        churn(
            session,
            moves=moves,
            adds=range(900, 900 + n_adds),
            removes=removes,
            seed=data.draw(st.integers(min_value=0, max_value=99)),
        )
        snap2 = DatasetSnapshot.from_streaming(session)
        patched = PreparedInstance.patched(old, snap2)
        fresh = PreparedInstance(snap2, TAU)
        assert patched.table.omega_c == fresh.table.omega_c
        p, f = patched.select(3), fresh.select(3)
        assert p.selected == f.selected and p.gains == f.gains


class TestCoverageMatrixSplice:
    def _tables_and_delta(self):
        session = make_session(seed=5)
        snap1 = DatasetSnapshot.from_streaming(session)
        resolved1 = IQTSolver().resolve(snap1.dataset, TAU)
        cids = tuple(sorted(c.fid for c in snap1.dataset.candidates))
        standard_churn(session)
        snap2 = DatasetSnapshot.from_streaming(session)
        delta = snap2.delta
        resolved2, added_cover = patch_resolution(
            resolved1, snap2.dataset, delta.dirty, delta.removed, TAU, session.pf
        )
        return resolved1, resolved2, added_cover, delta, cids

    def test_splice_is_elementwise_equal_to_fresh(self):
        resolved1, resolved2, added_cover, delta, cids = self._tables_and_delta()
        old = CoverageMatrix(resolved1.table, cids)
        spliced = old.patched(resolved2.table, added_cover, delta.removed)
        dense = CoverageMatrix(resolved2.table, cids)
        np.testing.assert_array_equal(spliced.user_ids, dense.user_ids)
        np.testing.assert_array_equal(spliced.weights, dense.weights)
        np.testing.assert_array_equal(spliced.indptr, dense.indptr)
        np.testing.assert_array_equal(spliced.col, dense.col)

    def test_compaction_threshold_still_identical(self):
        resolved1, resolved2, added_cover, delta, cids = self._tables_and_delta()
        old = CoverageMatrix(resolved1.table, cids)
        # Widen the dirty set to every surviving user: marking survivors
        # dirty with their existing cover is a valid (if wasteful) delta,
        # so a mostly-dirty splice must still match a fresh matrix.
        extra = dict(added_cover)
        for uid in old.user_ids.tolist():
            if uid not in extra and uid not in set(delta.removed):
                extra[int(uid)] = {
                    cid
                    for cid, users in resolved2.table.omega_c.items()
                    if uid in users
                }
        spliced = old.patched(resolved2.table, extra, delta.removed)
        dense = CoverageMatrix(resolved2.table, cids)
        assert spliced.select(3) == dense.select(3)

    def test_warm_start_matches_cold_and_does_less_work(self):
        resolved1, resolved2, added_cover, delta, cids = self._tables_and_delta()
        old = CoverageMatrix(resolved1.table, cids)
        old.select(3)  # capture round-0 bounds
        assert old.round0_bounds is not None
        spliced = old.patched(resolved2.table, added_cover, delta.removed)
        assert spliced.round0_bounds is not None
        dense = CoverageMatrix(resolved2.table, cids)
        warm = spliced.select(4)
        cold = dense.select(4)
        assert warm.selected == cold.selected
        assert warm.gains == cold.gains
        assert warm.evaluations <= cold.evaluations

    def test_round0_capture_is_reused(self):
        resolved1, _, _, _, cids = self._tables_and_delta()
        m = CoverageMatrix(resolved1.table, cids)
        cold = m.select(3)
        m._reset_run()  # the next run starts from the captured bounds
        warm = m.select(3)
        assert warm.selected == cold.selected and warm.gains == cold.gains
        assert warm.evaluations <= cold.evaluations


class TestPatchValidation:
    def test_requires_a_delta(self):
        session = make_session()
        snap1 = DatasetSnapshot.from_streaming(session)
        old = PreparedInstance(snap1, TAU)
        bare = DatasetSnapshot(session.current_dataset())
        with pytest.raises(ServiceError):
            PreparedInstance.patched(old, bare)

    def test_rejects_mismatched_parent(self):
        session = make_session()
        snap1 = DatasetSnapshot.from_streaming(session)
        old = PreparedInstance(snap1, TAU)
        standard_churn(session)
        DatasetSnapshot.from_streaming(session)  # drains the first delta
        churn(session, moves=(3,), seed=8)
        snap3 = DatasetSnapshot.from_streaming(session)
        # snap3's delta chains from snap2, not from old's snapshot.
        with pytest.raises(ServiceError):
            PreparedInstance.patched(old, snap3)

    def test_patch_resolution_rejects_inconsistent_deltas(self):
        session = make_session()
        snap1 = DatasetSnapshot.from_streaming(session)
        resolved = IQTSolver().resolve(snap1.dataset, TAU)
        dataset = snap1.dataset
        present = dataset.users[0].uid
        with pytest.raises(SolverError):
            patch_resolution(
                resolved, dataset, (99999,), (), TAU, session.pf
            )
        with pytest.raises(SolverError):
            patch_resolution(
                resolved, dataset, (), (present,), TAU, session.pf
            )


class TestEngineMigration:
    def _engine_after_republish(self):
        session = make_session(seed=13, n_users=35)
        engine = SelectionEngine(session.snapshot())
        query = SelectionQuery(k=3, tau=TAU)
        engine.execute(query)  # populate the prepared cache
        standard_churn(session)
        engine.publish(session.snapshot())
        return engine, session, query

    def test_republish_migrates_prepared_instances(self):
        engine, session, query = self._engine_after_republish()
        assert engine.stats()["incremental"]["patched"] == 1
        result = engine.execute(query)
        assert result.stats.prepared_cache == "hit"
        entries = engine._prepared.entries_for(engine.snapshot().content_hash)
        assert [inst.provenance for _, inst in entries] == ["patched"]
        # Served selections equal a fresh engine over the same population.
        fresh = SelectionEngine(DatasetSnapshot(session.current_dataset()))
        expect = fresh.execute(query)
        assert result.selected == expect.selected
        assert result.gains == expect.gains
        assert result.objective == expect.objective
        engine.shutdown()
        fresh.shutdown()

    def test_unchained_republish_falls_back_to_invalidation(self):
        session = make_session(seed=17, n_users=30)
        engine = SelectionEngine(session.snapshot())
        query = SelectionQuery(k=3, tau=TAU)
        engine.execute(query)
        standard_churn(session)
        # Publishing a bare snapshot (no delta) must not patch — and must
        # not break: the old entries are simply dropped.
        engine.publish(DatasetSnapshot(session.current_dataset()))
        inc = engine.stats()["incremental"]
        assert inc["patched"] == 0 and inc["skipped"] == 1
        result = engine.execute(query)
        assert result.stats.prepared_cache == "miss"
        engine.shutdown()

    def test_heavy_churn_skips_migration(self):
        session = make_session(seed=19, n_users=20)
        engine = SelectionEngine(session.snapshot())
        query = SelectionQuery(k=2, tau=TAU)
        engine.execute(query)
        churn(session, moves=tuple(session.uids().tolist())[:15], seed=4)
        engine.publish(session.snapshot())
        inc = engine.stats()["incremental"]
        assert inc["patched"] == 0 and inc["skipped"] == 1
        assert engine.execute(query).selected  # still serves correctly
        engine.shutdown()


class TestServingReadsNoCounters:
    def test_serving_never_models_early_stop_counters(self, monkeypatch):
        """Prepares, queries, a patching republish and a k-sweep all run
        with the early-stop model refusing to run: no serving call reads
        a resolution's counters.  Read afterwards, the cold prepare's
        counters are a fresh resolve's."""

        def refuse(*args, **kwargs):
            raise AssertionError("a serving call modelled early-stop counters")

        monkeypatch.setattr(BatchInfluenceEvaluator, "_model_users", refuse)
        session = make_session(seed=23, n_users=40)
        engine = SelectionEngine(max_workers=2)
        try:
            snap1 = engine.publish_streaming(session)
            cids = [c.fid for c in snap1.dataset.candidates][:6]
            queries = [
                SelectionQuery(k=3, tau=TAU),
                SelectionQuery(k=2, tau=TAU, candidate_ids=tuple(cids)),
                SelectionQuery(
                    k=3, tau=TAU, capture=CaptureSpec(model="mnl", mnl_beta=2.0)
                ),
            ]
            for query in queries:
                assert engine.execute(query).stats.result_cache == "miss"
            [(_, prepared)] = engine._prepared.entries_for(snap1.content_hash)
            standard_churn(session)
            engine.publish_streaming(session)
            assert engine.stats()["incremental"]["patched"] == 1
            sweep = solve_queries(
                engine, [SelectionQuery(k=k, tau=TAU) for k in range(1, 5)]
            )
            assert {r.stats.prepared_cache for r in sweep} == {"hit"}
        finally:
            engine.shutdown()
        monkeypatch.undo()
        want = IQTSolver().resolve(snap1.dataset, TAU, session.pf).evaluation
        assert prepared.resolved.evaluation == want


class TestRestrictedMatrixCache:
    def test_masks_evict_through_counted_lru(self):
        from repro.service import prepared as prepared_mod

        session = make_session(seed=29, n_users=30, n_candidates=12)
        snap = DatasetSnapshot.from_streaming(session)
        inst = PreparedInstance(snap, TAU)
        bound = prepared_mod._MAX_RESTRICTED
        cids = inst.candidate_ids
        # More distinct masks than the bound: the earliest must be evicted.
        masks = []
        for i in range(len(cids)):
            for j in range(i + 1, len(cids)):
                masks.append(tuple(c for t, c in enumerate(cids) if t not in (i, j)))
        masks = masks[: bound + 4]
        assert len(masks) > bound
        seen = set()
        for mask in masks:
            inst.select(2, candidate_ids=mask)
            seen.add(mask)
        stats = inst.restricted_cache_stats()
        assert stats.maxsize == bound
        assert stats.size <= bound
        assert stats.evictions >= len(seen) - bound
        assert stats.misses == len(seen)
        # A repeated mask is a hit, not a rebuild.
        inst.select(2, candidate_ids=masks[-1])
        assert inst.restricted_cache_stats().hits >= 1
