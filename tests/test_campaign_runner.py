"""Campaign runner: memoized planning, incremental re-runs, isolation.

All grids here are tiny (the smoke population: 5% users, 8-12
candidates) so inline runs complete in seconds; the worker-pool path is
exercised once with 2 workers and once under an impossible timeout.
"""

import json
from types import SimpleNamespace

import pytest

from repro.bench import datasets
from repro.campaign import (
    Aggregator,
    CampaignRunner,
    CampaignSpec,
    DatasetAxis,
    ResultStore,
    RunPoint,
    execute_point,
    fig_runtime_sweep_spec,
    grid,
    plan_campaign,
)
from repro.campaign import points as points_module
from repro.campaign import runner as runner_module
from repro.exceptions import CampaignError
from repro.influence import EvaluationStats, paper_default_pf

TINY = DatasetAxis(kind="C", users_frac=0.05, n_candidates=8,
                   n_facilities=16)


def _spec(ks=(2, 3), taus=(0.7,), name="t", **kwargs):
    g = grid("g1", [TINY], solvers=("iqt",), taus=taus, ks=ks, x="k",
             repeats=2, **kwargs)
    return CampaignSpec(name=name, grids=(g,))


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestPlanning:
    def test_fresh_store_plans_everything(self, store):
        plan = plan_campaign(_spec(), store)
        assert len(plan.tasks) == 2
        assert plan.cached == []
        assert plan.total == 2

    def test_resume_false_replans_completed_points(self, store):
        CampaignRunner(_spec(), store).run()
        plan = plan_campaign(_spec(), store, resume=False)
        assert len(plan.tasks) == 2
        assert plan.cached == []


class TestInlineRuns:
    def test_run_executes_and_persists_every_point(self, store):
        report = CampaignRunner(_spec(), store).run()
        assert report.ok
        assert (report.total, report.executed, report.cached) == (2, 2, 0)
        assert len(store.keys()) == 2
        for record in store.records():
            assert record["timing"]["repeats"] == 2
            assert len(record["result"]["selected"]) == record["params"]["k"]

    def test_second_run_is_pure_cache(self, store):
        CampaignRunner(_spec(), store).run()
        report = CampaignRunner(_spec(), store).run()
        assert (report.executed, report.cached) == (0, 2)

    def test_grid_extension_reuses_prior_points(self, store):
        CampaignRunner(_spec(ks=(2,)), store).run()
        report = CampaignRunner(_spec(ks=(2, 3)), store).run()
        assert (report.executed, report.cached) == (1, 1)
        # And the original point's record is untouched.
        assert len(store.keys()) == 2

    def test_records_are_deterministic_across_runs(self, store, tmp_path):
        """Two independent stores produce byte-identical deterministic
        sections (params/dataset_hash/x/result) for every point."""
        other = ResultStore(tmp_path / "other")
        CampaignRunner(_spec(), store).run()
        CampaignRunner(_spec(), other).run()
        assert store.keys() == other.keys()
        for key in store.keys():
            a, b = store.get(key), other.get(key)
            for part in ("params", "dataset_hash", "x", "result"):
                assert a[part] == b[part], part

    def test_progress_messages_emitted(self, store):
        lines = []
        CampaignRunner(_spec(), store).run(progress=lines.append)
        assert any("2 to run" in line for line in lines)
        assert sum("ok" in line for line in lines) == 2

    def test_store_from_an_earlier_digest_format_reruns_its_points(self, store):
        """A memo entry and a record written under an earlier content
        digest are ignored: every point re-runs once, under its new key."""
        old_hash = "0" * 64
        store.root.mkdir(parents=True)
        (store.root / "dataset_hashes.json").write_text(
            json.dumps({store.axis_param_hash(TINY): old_hash})
        )
        (g, point), = _spec(ks=(2,)).points()
        store.put({"key": point.key(old_hash), "grid": g.name})
        report = CampaignRunner(_spec(), store).run()
        assert report.ok
        assert (report.executed, report.cached) == (2, 0)
        assert all(r["dataset_hash"] != old_hash for r in store.records() if "result" in r)
        assert CampaignRunner(_spec(), store).run().executed == 0


class TestExecutePoint:
    def test_expected_key_contradiction_refused(self, store):
        task = plan_campaign(_spec(), store).tasks[0]
        with pytest.raises(CampaignError, match="key mismatch"):
            execute_point(task.grid, task.params, expected_key="f" * 32)

    def test_compete_workload_records_round(self):
        g = grid("duel", [TINY], solvers=("iqt",), ks=(2,),
                 workload="compete", series="capture", repeats=2,
                 captures=({"model": "evenly-split"},))
        spec = CampaignSpec(name="d", grids=(g,))
        _, point = spec.points()[0]
        record = execute_point("duel", point.params(), campaign="d")
        assert set(record["result"]) >= {
            "leader_initial", "rival_selected", "erosion", "recovered",
        }
        assert record["timing"]["repeats"] == 2


class TestSharedPoints:
    """A key planned by several grids executes once; every grid still
    counts and reads it as its own point."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_two_grids_sharing_a_point_run_it_once(self, store, workers):
        shared = CampaignSpec(name="s", grids=tuple(
            grid(name, [TINY], solvers=("iqt",), ks=(2,), x="k", repeats=2)
            for name in ("g1", "g2")
        ))
        report = CampaignRunner(shared, store, workers=workers).run()
        assert report.ok and (report.total, report.executed) == (2, 1)
        assert len(store.keys()) == 1
        aggregator = Aggregator(shared, store)
        assert aggregator.completion() == {
            "g1": {"total": 1, "complete": 1},
            "g2": {"total": 1, "complete": 1},
        }
        tables = aggregator.tables()
        assert tables["g1"] == tables["g2"] and len(tables["g1"]) == 1

    @pytest.fixture
    def tiny_bench(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_USERS_C", "120")
        monkeypatch.setenv("REPRO_BENCH_USERS_N", "100")
        datasets.population.cache_clear()
        datasets.dataset.cache_clear()
        yield
        datasets.population.cache_clear()
        datasets.dataset.cache_clear()

    def test_fig_runtime_sweep_executes_208_of_240(
        self, tmp_path, monkeypatch, tiny_bench
    ):
        """The default point recurs in the five Fig. 10-14 grids of each
        kind.  Its tables equal those of every grid run in a store of its
        own.  Points run through a stand-in executor whose record depends
        only on the key, as a real record's deterministic part does."""
        executed = []

        def stand_in(grid_name, params, campaign="", expected_key=None):
            executed.append(expected_key)
            point = RunPoint.from_params(grid_name, params)
            dataset = point.dataset.build()
            return {
                "key": expected_key,
                "x": points_module._x_values(dataset, point),
                "result": {
                    "selected": [1],
                    "evaluations": int(expected_key[:4], 16),
                    "positions_touched": int(expected_key[4:8], 16),
                },
                "timing": {
                    "median_s": int(expected_key[8:12], 16) / 1e6,
                    "spread_s": 0.0,
                    "repeats": 1,
                },
            }

        monkeypatch.setattr(runner_module, "execute_point", stand_in)
        spec = fig_runtime_sweep_spec(repeats=1)
        store = ResultStore(tmp_path / "all")
        report = CampaignRunner(spec, store).run()
        assert (report.total, report.executed) == (240, 208)
        assert len(set(executed)) == 208
        aggregator = Aggregator(spec, store)
        assert all(
            c["complete"] == c["total"] == 20
            for c in aggregator.completion().values()
        )
        for g in spec.grids:
            alone = CampaignSpec(name=spec.name, grids=(g,))
            own = ResultStore(tmp_path / g.name)
            assert CampaignRunner(alone, own).run().executed == 20
            assert aggregator.rows(g) == Aggregator(alone, own).rows(g)


class TestWorkerPool:
    def test_pool_run_matches_inline_records(self, store, tmp_path):
        inline = ResultStore(tmp_path / "inline")
        CampaignRunner(_spec(), inline).run()
        report = CampaignRunner(_spec(), store, workers=2).run()
        assert report.ok and report.executed == 2
        assert store.keys() == inline.keys()
        for key in store.keys():
            a, b = store.get(key), inline.get(key)
            for part in ("params", "dataset_hash", "x", "result"):
                assert a[part] == b[part], part

    def test_timeout_fails_points_without_storing_them(self, store):
        # 120 repeats take 0.2-0.3 s per point in a fresh worker, so a
        # 0.1s deadline fires before the point finishes.
        slow = CampaignSpec(
            name="slow",
            grids=(grid("g1", [TINY], solvers=("iqt",), ks=(2, 3), x="k",
                        repeats=120),),
        )
        report = CampaignRunner(slow, store, workers=1, timeout_s=0.1).run()
        assert not report.ok
        assert len(report.failed) == 2
        assert all("timeout" in reason for _, _, reason in report.failed)
        assert store.keys() == []
        failures = (store.root / "failures.jsonl").read_text().splitlines()
        assert len(failures) == 2

    def test_failed_points_retry_on_next_run(self, store):
        slow = CampaignSpec(
            name="slow",
            grids=(grid("g1", [TINY], solvers=("iqt",), ks=(2,), x="k",
                        repeats=120),),
        )
        CampaignRunner(slow, store, workers=1, timeout_s=0.1).run()
        assert store.keys() == []
        report = CampaignRunner(slow, store, workers=1).run()
        assert report.ok and report.executed == 1

    def test_negative_workers_rejected(self, store):
        with pytest.raises(CampaignError, match="workers"):
            CampaignRunner(_spec(), store, workers=-1)


class TestWarmUpSolve:
    """A process's first solve with a solver name runs once, untimed."""

    @staticmethod
    def stub_factory(calls, drift_at=None):
        class Counting:
            def solve(self, problem):
                calls.append(problem)
                n = len(calls)
                return SimpleNamespace(
                    selected=(n,) if n == drift_at else (0,),
                    gains=(1.0,),
                    objective=1.0,
                    total_time=float(n),
                    evaluation=EvaluationStats(),
                )

        return Counting

    @staticmethod
    def points(solvers, repeats=3):
        g = grid("w", [TINY], solvers=solvers, ks=(2,), repeats=repeats)
        return [p for _, p in CampaignSpec(name="w", grids=(g,)).points()]

    def test_warm_up_once_per_solver_name(self, monkeypatch):
        monkeypatch.setattr(points_module, "_warmed", set())
        calls = []
        for name in ("iqt", "baseline"):
            monkeypatch.setitem(
                points_module.SOLVER_FACTORIES, name, self.stub_factory(calls)
            )
        iqt, baseline = self.points(("iqt", "baseline"))
        dataset = iqt.dataset.build()
        pf = paper_default_pf()

        _, times = points_module._solve_workload(dataset, iqt, pf)
        # Call 1 is the warm-up; the timed repeats are calls 2-4.
        assert times == (2.0, 3.0, 4.0)
        _, times = points_module._solve_workload(dataset, iqt, pf)
        assert times == (5.0, 6.0, 7.0)
        _, times = points_module._solve_workload(dataset, baseline, pf)
        assert times == (9.0, 10.0, 11.0)
        assert len(calls) == 11
        assert points_module._warmed == {"iqt", "baseline"}

    @pytest.mark.parametrize("drift_at", [2, 3, 4])
    def test_determinism_check_covers_every_timed_repeat(
        self, monkeypatch, drift_at
    ):
        monkeypatch.setattr(points_module, "_warmed", set())
        calls = []
        monkeypatch.setitem(
            points_module.SOLVER_FACTORIES,
            "iqt",
            self.stub_factory(calls, drift_at=drift_at),
        )
        (point,) = self.points(("iqt",))
        with pytest.raises(CampaignError, match="nondeterministic"):
            points_module._solve_workload(
                point.dataset.build(), point, paper_default_pf()
            )
