"""Table II — index construction: IQuad-tree (users) vs R-tree (facilities).

Expected shape: the IQuad-tree indexes two to three orders of magnitude
more objects (positions) than the R-tree indexes facilities, yet its
per-object cost is comparable or lower.
"""

from repro.bench import record_table
from repro.bench.datasets import DEFAULT_D_HAT, DEFAULT_TAU, dataset
from repro.bench.experiments import table2_index_build
from repro.influence import paper_default_pf
from repro.spatial import IQuadTree


def test_table2_index_build(benchmark):
    ds = dataset("C")

    def build():
        return IQuadTree(ds.arena, DEFAULT_D_HAT, DEFAULT_TAU, paper_default_pf(), ds.region)

    benchmark(build)
    rows = table2_index_build()
    record_table("Table II - index construction time", rows)
    for row in rows:
        assert row["IQT_positions"] > row["RT_objects"]
