"""Serving-engine behaviour under pluggable capture models.

Covers the cache-key seam (capture joins the result key; an unset spec
and an explicit evenly-split spec share one key), the one prepared
table every capture model selects over, and streaming republish (the
patched table serves every capture model).
"""

import pytest

from repro import oracle, paper_default_pf
from repro.capture import CaptureSpec, MNLCaptureModel, SiteUtilities
from repro.entities import MovingUser
from repro.service import SelectionEngine, SelectionQuery
from repro.solvers import IQTSolver, MC2LSProblem
from repro.streaming import StreamingMC2LS
from tests.conftest import build_instance


#: One set-independent, one set-aware and the default capture model.
SPECS = (
    CaptureSpec(),
    CaptureSpec(model="huff", huff_utility=0.8),
    CaptureSpec(model="mnl", mnl_beta=2.0),
)


@pytest.fixture()
def dataset():
    return build_instance(seed=9, n_users=45, n_candidates=12, n_facilities=7)


class TestCacheKeys:
    def test_capture_key_separates_results(self, dataset):
        with SelectionEngine(dataset) as engine:
            default = engine.execute(SelectionQuery(k=3))
            mnl = engine.execute(
                SelectionQuery(k=3, capture=CaptureSpec(model="mnl", mnl_beta=2.0))
            )
            assert mnl.stats.result_cache == "miss"
            # Different betas are different keys.
            mnl_b3 = engine.execute(
                SelectionQuery(k=3, capture=CaptureSpec(model="mnl", mnl_beta=3.0))
            )
            assert mnl_b3.stats.result_cache == "miss"
            again = engine.execute(
                SelectionQuery(k=3, capture=CaptureSpec(model="mnl", mnl_beta=2.0))
            )
            assert again.stats.result_cache == "hit"
            assert again.selected == mnl.selected
            assert default.selected is not None

    def test_default_spec_shares_legacy_key(self, dataset):
        with SelectionEngine(dataset) as engine:
            engine.execute(SelectionQuery(k=3))
            explicit = engine.execute(
                SelectionQuery(k=3, capture=CaptureSpec(model="evenly-split"))
            )
            assert explicit.stats.result_cache == "hit"

    def test_world_seed_is_part_of_the_key(self, dataset):
        with SelectionEngine(dataset) as engine:
            a = engine.execute(
                SelectionQuery(
                    k=3,
                    capture=CaptureSpec(model="fixed-worlds", worlds=8, world_seed=1),
                )
            )
            b = engine.execute(
                SelectionQuery(
                    k=3,
                    capture=CaptureSpec(model="fixed-worlds", worlds=8, world_seed=2),
                )
            )
            assert b.stats.result_cache == "miss"
            again = engine.execute(
                SelectionQuery(
                    k=3,
                    capture=CaptureSpec(model="fixed-worlds", worlds=8, world_seed=1),
                )
            )
            assert again.stats.result_cache == "hit"
            assert again.selected == a.selected


class TestOnePreparedTable:
    def test_one_resolve_serves_every_capture(self, dataset):
        """Evenly-split, Huff and MNL queries at one τ share one resolve;
        each equals the direct IQT solve under its capture model."""
        pf = paper_default_pf()
        table = IQTSolver().resolve(dataset, 0.7, pf).table
        cids = sorted(c.fid for c in dataset.candidates)
        mask = tuple(cids[::2])
        with SelectionEngine(dataset) as engine:
            for spec in SPECS:
                model = spec.build(dataset, pf)
                served = engine.execute(SelectionQuery(k=4, capture=spec))
                direct = IQTSolver().solve(
                    MC2LSProblem(dataset, k=4, tau=0.7, pf=pf, capture=model)
                )
                assert served.selected == direct.selected
                assert served.gains == direct.gains
                assert served.objective == direct.objective
                assert served.selected == oracle.select(
                    table, cids, 4, capture=model
                ).selected
                masked = engine.execute(
                    SelectionQuery(k=2, capture=spec, candidate_ids=mask)
                )
                assert masked.stats.prepared_cache == "hit"
                assert masked.selected == oracle.select(
                    table.restricted(set(mask)), mask, 2, capture=model
                ).selected
            assert engine.stats()["prepared_cache"]["misses"] == 1


class TestBitIdentityWithDirectSolve:
    def test_mnl_engine_matches_direct_solver(self, dataset):
        pf = paper_default_pf()
        model = MNLCaptureModel(SiteUtilities(dataset, pf), beta=2.0)
        direct = IQTSolver().solve(
            MC2LSProblem(dataset, k=4, tau=0.7, pf=pf, capture=model)
        )
        with SelectionEngine(dataset) as engine:
            served = engine.execute(
                SelectionQuery(
                    k=4, pf=pf, capture=CaptureSpec(model="mnl", mnl_beta=2.0)
                )
            )
        assert served.selected == direct.selected
        assert served.objective == direct.objective
        assert served.gains == direct.gains

    def test_candidate_mask_and_scalar_kernel(self, dataset):
        spec = CaptureSpec(model="mnl", mnl_beta=1.5)
        mask = tuple(range(0, 8))
        with SelectionEngine(dataset) as engine:
            fast = engine.execute(
                SelectionQuery(k=3, capture=spec, candidate_ids=mask)
            )
        table = IQTSolver().resolve(dataset, 0.7).table
        slow = oracle.select(
            table.restricted(set(mask)),
            mask,
            3,
            capture=spec.build(dataset, paper_default_pf()),
        )
        assert fast.selected == slow.selected
        assert set(fast.selected) <= set(mask)


class TestStreamingRepublish:
    def _churned(self, session, seed=0):
        import numpy as np

        rng = np.random.default_rng(seed)
        uids = session.uids().tolist()[:3]
        for uid in uids:
            user = session.user(uid)
            session.update_user(
                MovingUser(uid, user.positions + rng.normal(0, 0.4, user.positions.shape))
            )

    def test_every_capture_is_served_from_the_patched_table(self, dataset):
        session = StreamingMC2LS.from_dataset(dataset, k=3, tau=0.7)
        queries = [SelectionQuery(k=3, capture=spec) for spec in SPECS]
        with SelectionEngine(session.snapshot()) as engine:
            for query in queries:
                engine.execute(query)
            self._churned(session)
            engine.publish(session.snapshot())
            inc = engine.stats()["incremental"]
            assert (inc["patched"], inc["failed"]) == (1, 0)
            served = [engine.execute(q) for q in queries]
        with SelectionEngine(session.current_dataset()) as fresh_engine:
            fresh = [fresh_engine.execute(q) for q in queries]
        for got, want in zip(served, fresh):
            assert got.stats.result_cache == "miss"
            assert got.stats.prepared_cache == "hit"
            assert got.selected == want.selected
            assert got.gains == want.gains
            assert got.objective == want.objective

    def test_default_prepared_instances_still_patch(self, dataset):
        session = StreamingMC2LS.from_dataset(dataset, k=3, tau=0.7)
        with SelectionEngine(session.snapshot()) as engine:
            engine.execute(SelectionQuery(k=3))
            self._churned(session)
            engine.publish(session.snapshot())
            inc = engine.stats()["incremental"]
            assert inc["patched"] >= 1
            assert inc["failed"] == 0
