"""Experiment definitions: one function per table/figure of the paper.

Each function runs the paper's protocol at the configured benchmark scale
and returns the rows the corresponding artifact reports.  The bench files
under ``benchmarks/`` are thin wrappers that time a headline operation
with pytest-benchmark and register these row tables for the terminal
summary.  The runtime sweeps of Figs. 10–16 are not here: they are the
grids of the ``fig-runtime-sweep`` campaign
(:func:`repro.campaign.fig_runtime_sweep_spec`), which times every point
with repeats, median and spread.
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..data import compute_stats, mbr_overlap_fraction
from ..oracle import greedy_select, lazy_greedy_select
from ..pruning import measure_iquadtree_pruning, measure_pinocchio_pruning
from ..solvers import (
    BaselineGreedySolver,
    ExactSolver,
    IQTSolver,
    IQTVariant,
    MC2LSProblem,
)
from . import datasets
from .datasets import DEFAULT_D_HAT, DEFAULT_K, DEFAULT_TAU, TAU_SWEEP


# ----------------------------------------------------------------------
# Fig. 7 — effect of the IS and NIR pruning rules
# ----------------------------------------------------------------------
def fig07a_rule_effect(kind: str) -> List[Dict]:
    """Fraction of (facility, user) pairs decided by IS vs NIR, per τ."""
    ds = datasets.dataset(kind)
    rows = []
    for tau in TAU_SWEEP:
        stats, _ = measure_iquadtree_pruning(
            ds.arena, ds.abstract_facilities, tau, _pf(), DEFAULT_D_HAT, ds.region
        )
        rows.append(
            {
                "dataset": kind,
                "tau": tau,
                "IS_confirmed_frac": stats.confirmed_fraction,
                "NIR_pruned_frac": stats.pruned_fraction,
                "verify_frac": stats.verify_fraction,
            }
        )
    return rows


def fig07b_variant_effect(kind: str) -> List[Dict]:
    """Pruning effect and runtime of IQT-C vs IQT vs IQT-PINO, per τ."""
    ds = datasets.dataset(kind)
    variants = [IQTVariant.IQT_C, IQTVariant.IQT, IQTVariant.IQT_PINO]
    rows = []
    for tau in TAU_SWEEP:
        row: Dict = {"dataset": kind, "tau": tau}
        problem = MC2LSProblem(ds, k=DEFAULT_K, tau=tau)
        for variant in variants:
            result = IQTSolver(variant=variant).solve(problem)
            assert result.pruning is not None
            row[f"{variant.value}_saved_frac"] = result.pruning.saved_fraction
            row[f"{variant.value}_s"] = result.total_time
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Fig. 8 — IS vs IA and NIR vs NIB, head to head
# ----------------------------------------------------------------------
def fig08_rule_comparison(kind: str) -> List[Dict]:
    """Confirmed/pruned pair fractions of the four rules, per τ."""
    ds = datasets.dataset(kind)
    rows = []
    for tau in TAU_SWEEP:
        iq_stats, _ = measure_iquadtree_pruning(
            ds.arena, ds.abstract_facilities, tau, _pf(), DEFAULT_D_HAT, ds.region
        )
        pino_stats = measure_pinocchio_pruning(ds.arena, ds.abstract_facilities, tau, _pf())
        rows.append(
            {
                "dataset": kind,
                "tau": tau,
                "IS_confirmed": iq_stats.confirmed_fraction,
                "IA_confirmed": pino_stats.confirmed_fraction,
                "NIR_pruned": iq_stats.pruned_fraction,
                "NIB_pruned": pino_stats.pruned_fraction,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 9 — dataset characterisation
# ----------------------------------------------------------------------
def fig09_distributions() -> List[Dict]:
    """Distribution statistics distinguishing the C and N datasets."""
    rows = []
    for kind in ("C", "N"):
        ds = datasets.dataset(kind)
        row = compute_stats(ds).as_row()
        row["mbr_overlap_frac"] = mbr_overlap_fraction(ds)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table I — IQT vs IQT-PINO runtime as abstract facilities grow
# ----------------------------------------------------------------------
def table1_iqt_vs_pino(kind: str = "N", tau: float = 0.9) -> List[Dict]:
    """Wall time of IQT vs IQT-PINO varying |C ∪ F| (paper: 300 → 1100).

    The paper runs this at τ = 0.9, the only setting where IQT-PINO's
    extra IA pruning shows any gain — and still loses on time.
    """
    rows = []
    for total in (300, 500, 700, 900, 1100):
        n_c = total // 3
        n_f = total - n_c
        ds = datasets.dataset(kind, n_candidates=n_c, n_facilities=n_f)
        problem = MC2LSProblem(ds, k=DEFAULT_K, tau=tau)
        iqt = IQTSolver(variant=IQTVariant.IQT).solve(problem)
        pino = IQTSolver(variant=IQTVariant.IQT_PINO).solve(problem)
        rows.append(
            {
                "abstract_facilities": total,
                "IQT_s": iqt.total_time,
                "IQT-PINO_s": pino.total_time,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table II — index construction cost
# ----------------------------------------------------------------------
def table2_index_build() -> List[Dict]:
    """IQuad-tree vs R-tree construction time, total and per object."""
    from ..spatial import IQuadTree, RTree

    rows = []
    for kind in ("C", "N"):
        ds = datasets.dataset(kind, n_candidates=100, n_facilities=200)
        t0 = time.perf_counter()
        IQuadTree(ds.arena, DEFAULT_D_HAT, DEFAULT_TAU, _pf(), ds.region)
        iq_elapsed = time.perf_counter() - t0
        n_positions = ds.n_positions
        t0 = time.perf_counter()
        tree = RTree()
        for v in ds.abstract_facilities:
            tree.insert_point(v.location, v)
        rt_elapsed = time.perf_counter() - t0
        rows.append(
            {
                "dataset": kind,
                "IQuadTree_s": iq_elapsed,
                "IQT_positions": n_positions,
                "IQT_ms_per_obj": iq_elapsed / n_positions * 1e3,
                "RTree_s": rt_elapsed,
                "RT_objects": len(ds.abstract_facilities),
                "RT_ms_per_obj": rt_elapsed / len(ds.abstract_facilities) * 1e3,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Effect of d̂ (§VII prose) and ablations
# ----------------------------------------------------------------------
def fig_dhat_leaf_diagonal(kind: str) -> List[Dict]:
    """IQT runtime and index share as the leaf diagonal d̂ sweeps 1 → 2.5 km."""
    ds = datasets.dataset(kind)
    rows = []
    for d_hat in (1.0, 1.5, 2.0, 2.5):
        problem = MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU)
        result = IQTSolver(d_hat=d_hat).solve(problem)
        rows.append(
            {
                "dataset": kind,
                "d_hat_km": d_hat,
                "IQT_s": result.total_time,
                "index_s": result.timings.get("index", 0.0),
                "index_share": result.timings.get("index", 0.0) / result.total_time,
                "saved_frac": result.pruning.saved_fraction if result.pruning else 0.0,
            }
        )
    return rows


def ablation_early_stopping(kind: str) -> List[Dict]:
    """IQT's verification cost with and without PINOCCHIO early stopping.

    One solve: its early-stop counter model gives the ``True`` row, its
    full-scan count of the same decisions (``rows_scanned`` /
    ``positions_scanned``) the ``False`` row.
    """
    ds = datasets.dataset(kind)
    result = IQTSolver().solve(MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU))
    stats = result.evaluation
    return [
        {
            "dataset": kind,
            "early_stopping": early,
            "IQT_s": result.total_time,
            "positions_touched": touched,
            "evaluations": evaluations,
        }
        for early, touched, evaluations in (
            (True, stats.positions_touched, stats.total_evaluations),
            (False, stats.positions_scanned, stats.rows_scanned),
        )
    ]


def ablation_exact_rounded(kind: str) -> List[Dict]:
    """NIR via the rounded square's MBR (paper) vs the exact shape."""
    ds = datasets.dataset(kind)
    problem = MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU)
    rows = []
    for exact in (False, True):
        result = IQTSolver(exact_rounded=exact).solve(problem)
        assert result.pruning is not None
        rows.append(
            {
                "dataset": kind,
                "exact_rounded": exact,
                "IQT_s": result.total_time,
                "pruned_frac": result.pruning.pruned_fraction,
                "verify_frac": result.pruning.verify_fraction,
            }
        )
    return rows


def ablation_greedy(kind: str = "N") -> List[Dict]:
    """Eager vs CELF lazy greedy, plus quality vs the exact optimum.

    The exact solver runs on a reduced instance (|C| = 12, k = 4) to keep
    enumeration tractable; the greedy comparison runs at full scale.
    """
    ds = datasets.dataset(kind)
    problem = MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU)
    reference = BaselineGreedySolver().solve(problem)
    cids = [c.fid for c in ds.candidates]

    t0 = time.perf_counter()
    eager = greedy_select(reference.table, cids, problem.k)
    eager_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    lazy = lazy_greedy_select(reference.table, cids, problem.k)
    lazy_s = time.perf_counter() - t0
    assert lazy.selected == eager.selected

    small = datasets.dataset(kind, n_candidates=12, n_facilities=50)
    small_problem = MC2LSProblem(small, k=4, tau=DEFAULT_TAU)
    exact = ExactSolver().solve(small_problem)
    greedy_small = BaselineGreedySolver().solve(small_problem)
    ratio = (
        greedy_small.objective / exact.objective if exact.objective > 0 else 1.0
    )
    return [
        {
            "dataset": kind,
            "eager_evals": eager.evaluations,
            "lazy_evals": lazy.evaluations,
            "eager_s": eager_s,
            "lazy_s": lazy_s,
            "greedy_over_exact": ratio,
            "guarantee": 1 - 1 / 2.718281828,
        }
    ]


def _pf():
    from ..influence import paper_default_pf

    return paper_default_pf()
