"""Declarative campaign specs: parameter grids expanded into run points.

A :class:`CampaignSpec` is the portable description of one experiment
campaign — a named list of :class:`CampaignGrid`\\ s, each a cartesian
parameter grid (dataset spec × solver × capture model × τ × k, with a
repeats count and an optional per-point timeout).  A grid expands
deterministically into :class:`RunPoint`\\ s, the memoization unit of
the campaign layer: one point = one workload executed ``repeats`` times
under one fully pinned parameter combination.

The hash-key contract (what the on-disk result store keys on):

* the **dataset** enters the key through its realized
  :func:`~repro.service.dataset_content_hash` — *not* through the axis
  parameters that generated it.  Two axis specs that generate identical
  data share one cached point; any change that alters a coordinate
  (scale env vars, generator edits, seeds) changes the key and forces a
  re-run.
* the **run parameters** enter through a canonical JSON hash of
  ``(workload, solver, capture, τ, k, k_rival, repeats)``.  Capture
  params are canonicalised first (:func:`canonical_capture`):
  parameters foreign to the named model are dropped, exactly like
  :meth:`~repro.capture.CaptureSpec.cache_key`, so an ``evenly-split``
  point never re-runs because an ignored ``mnl_beta`` changed.

Keys are therefore stable across processes, hosts and axis orderings —
the property the resumability tests pin.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..capture import REGISTERED_MODELS, CaptureSpec
from ..exceptions import CampaignError
from ..solvers import SOLVER_FACTORIES

#: Solver names a campaign point may run (the shared solver registry).
CAMPAIGN_SOLVERS: Tuple[str, ...] = tuple(SOLVER_FACTORIES)

#: Workloads a grid can declare: a plain resolve+select solve, or one
#: two-player best-response round (the capture-duel protocol).
WORKLOADS: Tuple[str, ...] = ("solve", "compete")

#: Axis names an aggregation can use as the table's x column.
X_AXES: Tuple[str, ...] = ("users", "candidates", "facilities", "r", "tau", "k")

SPEC_VERSION = 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_capture(params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """A capture-param dict reduced to its objective-relevant fields.

    Mirrors :meth:`~repro.capture.CaptureSpec.cache_key`: the returned
    dict carries exactly the parameters the named model reads, so two
    declarations differing only in foreign params hash identically.
    Unknown model names raise the registry's actionable error.
    """
    spec = CaptureSpec(**(params or {}))
    key = spec.cache_key()
    canonical: Dict[str, Any] = {"model": key[0]}
    if spec.model == "huff":
        canonical["huff_utility"] = float(spec.huff_utility)
    elif spec.model == "mnl":
        canonical["mnl_beta"] = float(spec.mnl_beta)
    elif spec.model == "fixed-worlds":
        canonical["mnl_beta"] = float(spec.mnl_beta)
        canonical["worlds"] = int(spec.worlds)
        canonical["world_seed"] = int(spec.world_seed)
    return canonical


@dataclass(frozen=True)
class DatasetAxis:
    """One declarative dataset point: a benchmark population + sampling.

    Builds through :mod:`repro.bench.datasets`, so campaign points run
    on byte-identical data to the ``bench_fig*`` scripts (same cached
    populations, same candidate/facility sampling seed, same
    ``REPRO_BENCH_USERS_*`` scale knobs).  ``users_frac`` subsamples
    users (Fig. 10 protocol, seed 3); ``r`` subsamples positions per
    user (Figs. 15–16 protocol, seed 4).
    """

    kind: str = "C"
    n_candidates: Optional[int] = None
    n_facilities: Optional[int] = None
    users_frac: Optional[float] = None
    r: Optional[int] = None
    sample_seed: int = 1
    users_seed: int = 3
    r_seed: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("C", "N"):
            raise CampaignError(
                f"dataset kind must be 'C' or 'N', got {self.kind!r}"
            )
        if self.users_frac is not None and not 0.0 < self.users_frac <= 1.0:
            raise CampaignError(
                f"users_frac must be in (0, 1], got {self.users_frac}"
            )
        if self.r is not None and self.r < 1:
            raise CampaignError(f"r must be >= 1, got {self.r}")

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        for key in ("n_candidates", "n_facilities", "users_frac", "r"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        for key, default in (
            ("sample_seed", 1), ("users_seed", 3), ("r_seed", 4)
        ):
            if getattr(self, key) != default:
                out[key] = getattr(self, key)
        return out

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "DatasetAxis":
        known = {
            "kind", "n_candidates", "n_facilities", "users_frac", "r",
            "sample_seed", "users_seed", "r_seed",
        }
        unknown = set(spec) - known
        if unknown:
            raise CampaignError(
                f"unknown dataset axis fields: {sorted(unknown)}"
            )
        return cls(**spec)

    def build(self):
        """Materialise the dataset (cached populations; deterministic)."""
        from ..bench import datasets as bench_datasets

        kwargs: Dict[str, Any] = {"seed": self.sample_seed}
        if self.n_candidates is not None:
            kwargs["n_candidates"] = self.n_candidates
        if self.n_facilities is not None:
            kwargs["n_facilities"] = self.n_facilities
        ds = bench_datasets.dataset(self.kind, **kwargs)
        if self.users_frac is not None and self.users_frac < 1.0:
            n = max(1, int(len(ds.arena) * self.users_frac))
            if n < len(ds.arena):
                ds = ds.subsample_users(n, seed=self.users_seed)
        if self.r is not None:
            ds = ds.subsample_positions(self.r, seed=self.r_seed)
        return ds

    def label(self) -> str:
        parts = [self.kind]
        if self.users_frac is not None:
            parts.append(f"u{self.users_frac:g}")
        if self.n_candidates is not None:
            parts.append(f"c{self.n_candidates}")
        if self.n_facilities is not None:
            parts.append(f"f{self.n_facilities}")
        if self.r is not None:
            parts.append(f"r{self.r}")
        return "-".join(parts)


@dataclass(frozen=True)
class RunPoint:
    """One fully pinned parameter combination — the memoization unit."""

    grid: str
    workload: str
    dataset: DatasetAxis
    solver: str
    capture: Tuple[Tuple[str, Any], ...]  # canonical capture params, sorted
    tau: float
    k: int
    repeats: int
    k_rival: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise CampaignError(
                f"unknown workload {self.workload!r}; one of {WORKLOADS}"
            )
        if self.solver not in CAMPAIGN_SOLVERS:
            raise CampaignError(
                f"unknown solver {self.solver!r}; one of {CAMPAIGN_SOLVERS}"
            )
        if self.repeats < 1:
            raise CampaignError(f"repeats must be >= 1, got {self.repeats}")
        if self.k < 1:
            raise CampaignError(f"k must be >= 1, got {self.k}")

    # ------------------------------------------------------------------
    @property
    def capture_params(self) -> Dict[str, Any]:
        return dict(self.capture)

    def series_value(self, axis: str) -> str:
        """This point's value along a grid's series axis."""
        return self.solver if axis == "solver" else self.capture_params["model"]

    def run_params(self) -> Dict[str, Any]:
        """The key-relevant run parameters (dataset handled separately)."""
        params: Dict[str, Any] = {
            "workload": self.workload,
            "solver": self.solver,
            "capture": self.capture_params,
            "tau": float(self.tau),
            "k": int(self.k),
            "repeats": int(self.repeats),
        }
        if self.workload == "compete":
            params["k_rival"] = self.k_rival
        return params

    def params(self) -> Dict[str, Any]:
        """Everything the executor needs, JSON-portable."""
        params = self.run_params()
        params["dataset"] = self.dataset.as_dict()
        return params

    def key(self, dataset_hash: str) -> str:
        """Content-hash key binding run params to the realized dataset.

        ``dataset_hash`` is the dataset's
        :func:`~repro.service.dataset_content_hash`; the run params are
        hashed in canonical JSON form.  Stable across processes, hosts
        and axis orderings.
        """
        payload = canonical_json(
            {"dataset_hash": dataset_hash, "params": self.run_params()}
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    @classmethod
    def from_params(cls, grid: str, params: Dict[str, Any]) -> "RunPoint":
        """Rebuild a point from its serialised :meth:`params` form."""
        return cls(
            grid=grid,
            workload=params["workload"],
            dataset=DatasetAxis.from_dict(params["dataset"]),
            solver=params["solver"],
            capture=tuple(sorted(canonical_capture(params["capture"]).items())),
            tau=float(params["tau"]),
            k=int(params["k"]),
            repeats=int(params["repeats"]),
            k_rival=params.get("k_rival"),
        )


@dataclass(frozen=True)
class CampaignGrid:
    """One cartesian grid within a campaign.

    Axes (each a sequence; singletons are fine): ``datasets``,
    ``solvers``, ``captures``, ``taus``, ``ks``, plus the per-point
    ``repeats``.
    ``x`` names the aggregation's x column (one of :data:`X_AXES`);
    ``series`` names the pivoted axis (``solver`` or ``capture``).
    """

    name: str
    datasets: Tuple[DatasetAxis, ...]
    solvers: Tuple[str, ...] = ("iqt",)
    captures: Tuple[Tuple[Tuple[str, Any], ...], ...] = (
        (("model", "evenly-split"),),
    )
    taus: Tuple[float, ...] = (0.7,)
    ks: Tuple[int, ...] = (10,)
    workload: str = "solve"
    x: str = "k"
    series: str = "solver"
    repeats: int = 3
    k_rival: Optional[int] = None
    timeout_s: Optional[float] = None
    title: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("grid name must be non-empty")
        if self.x not in X_AXES:
            raise CampaignError(f"unknown x axis {self.x!r}; one of {X_AXES}")
        if self.series not in ("solver", "capture"):
            raise CampaignError(
                f"series must be 'solver' or 'capture', got {self.series!r}"
            )
        if not self.datasets:
            raise CampaignError(f"grid {self.name!r} declares no datasets")

    def points(self) -> Iterator[RunPoint]:
        """Expand the grid in deterministic declaration order."""
        for dataset in self.datasets:
            for solver in self.solvers:
                for capture in self.captures:
                    for tau in self.taus:
                        for k in self.ks:
                            yield RunPoint(
                                grid=self.name,
                                workload=self.workload,
                                dataset=dataset,
                                solver=solver,
                                capture=capture,
                                tau=float(tau),
                                k=int(k),
                                repeats=self.repeats,
                                k_rival=self.k_rival,
                            )

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "workload": self.workload,
            "x": self.x,
            "series": self.series,
            "repeats": self.repeats,
            "datasets": [d.as_dict() for d in self.datasets],
            "solvers": list(self.solvers),
            "captures": [dict(c) for c in self.captures],
            "taus": list(self.taus),
            "ks": list(self.ks),
        }
        if self.k_rival is not None:
            out["k_rival"] = self.k_rival
        if self.timeout_s is not None:
            out["timeout_s"] = self.timeout_s
        if self.title:
            out["title"] = self.title
        return out

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "CampaignGrid":
        known = {
            "name", "workload", "x", "series", "repeats", "datasets",
            "solvers", "captures", "taus", "ks", "k_rival", "timeout_s",
            "title",
        }
        unknown = set(spec) - known
        if unknown:
            raise CampaignError(
                f"unknown grid fields in {spec.get('name', '?')!r}: "
                f"{sorted(unknown)}"
            )
        return cls(
            name=spec["name"],
            datasets=tuple(
                DatasetAxis.from_dict(d) for d in spec["datasets"]
            ),
            solvers=tuple(spec.get("solvers", ("iqt",))),
            captures=tuple(
                tuple(sorted(canonical_capture(c).items()))
                for c in spec.get("captures", ({"model": "evenly-split"},))
            ),
            taus=tuple(float(t) for t in spec.get("taus", (0.7,))),
            ks=tuple(int(k) for k in spec.get("ks", (10,))),
            workload=spec.get("workload", "solve"),
            x=spec.get("x", "k"),
            series=spec.get("series", "solver"),
            repeats=int(spec.get("repeats", 3)),
            k_rival=spec.get("k_rival"),
            timeout_s=spec.get("timeout_s"),
            title=spec.get("title", ""),
        )


def grid(
    name: str,
    datasets: Sequence[DatasetAxis],
    captures: Sequence[Dict[str, Any]] = ({"model": "evenly-split"},),
    **kwargs: Any,
) -> CampaignGrid:
    """Convenience constructor taking plain dicts for capture axes."""
    return CampaignGrid(
        name=name,
        datasets=tuple(datasets),
        captures=tuple(
            tuple(sorted(canonical_capture(c).items())) for c in captures
        ),
        **kwargs,
    )


@dataclass(frozen=True)
class CampaignSpec:
    """A named list of grids — the unit `campaign run` executes."""

    name: str
    grids: Tuple[CampaignGrid, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign name must be non-empty")
        names = [g.name for g in self.grids]
        if len(names) != len(set(names)):
            raise CampaignError(f"duplicate grid names in {self.name!r}")

    def points(self) -> List[Tuple[CampaignGrid, RunPoint]]:
        return [(g, p) for g in self.grids for p in g.points()]

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "description": self.description,
            "grids": [g.as_dict() for g in self.grids],
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "CampaignSpec":
        version = int(spec.get("version", SPEC_VERSION))
        if version > SPEC_VERSION:
            raise CampaignError(
                f"campaign spec version {version} is newer than supported "
                f"({SPEC_VERSION})"
            )
        return cls(
            name=spec["name"],
            grids=tuple(CampaignGrid.from_dict(g) for g in spec["grids"]),
            description=spec.get("description", ""),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "CampaignSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"cannot read campaign spec {path}: {exc}"
            ) from exc
        return cls.from_dict(payload)

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"
        )
