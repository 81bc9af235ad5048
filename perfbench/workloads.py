"""The benchmark's workloads: inputs made from the seed, and the queries.

Sizes are far below the ones the paper (and the probes behind ROADMAP.md)
use, so that one run, with its Spark start-up, warm-up and correctness
check, fits in about a minute and a half on 4 cores. What each workload
stresses does not depend on the size: it is set by which plan the query
takes (P_gld, or P_plw) and by whether Spark is involved at all.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pandas as pd
from repro.bench.suites import FIXPOINT_CAP  # a runaway closure fails, not hangs

@dataclass
class Query:
    qid: str
    # A CRPQ in the repo's syntax (Spark workloads), or a μ-RA term over
    # ``env`` with its own oracle (local-engines).
    text: str | None = None
    term: object = None
    env: dict[str, pd.DataFrame] = field(default_factory=dict)
    oracle: Callable[[int], tuple[int, int]] | None = None  # rows → digest
    row_cap: int = FIXPOINT_CAP


@dataclass
class Inputs:
    queries: list[Query]
    graphs: dict[str, dict[str, int]]  # name → {"edges": …, "nodes": …}
    triples: pd.DataFrame | None = None  # Spark workloads: the one graph
    consts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    systems: tuple[str, str]  # (primary, baseline)
    make: Callable[[int, str], Inputs]  # (seed, scale) → inputs

    @property
    def spark(self) -> bool:
        return self.systems[0] == "dist"


def _graph_info(edges: pd.DataFrame) -> dict[str, int]:
    nodes = pd.concat([edges["src"], edges["dst"]]).nunique()
    return {"edges": int(len(edges)), "nodes": int(nodes)}


# -- yago-closure ---------------------------------------------------------------

YAGO_EDGES = {"bench": 5_000, "tiny": 1_500}

# yago-closure runs one free-endpoint query, so that Spark start-up and
# warm-up leave room for many passes in the timed window: Q25, the
# co-actor closure followed by hasChild+, which `auto` runs as P_gld (a
# driver loop with a shuffle per iteration) while the BigDatalog-like plan
# runs it as P_plw (mapInPandas partition-local loops).


def _yago(*qids: str):
    def make(seed: int, scale: str) -> Inputs:
        from repro.core.paper_queries import YAGO_QUERIES
        from repro.graphs.yago import yago_lite

        n = YAGO_EDGES[scale]
        triples, consts = yago_lite(n, seed=seed)
        return Inputs(
            queries=[Query(qid, text=YAGO_QUERIES[qid]) for qid in qids],
            graphs={f"yago_lite_{n}": _graph_info(triples)},
            triples=triples,
            consts=dict(consts),
        )

    return make


# -- local-engines ---------------------------------------------------------------

# Three graphs of each kind per run (seeds derived from --seed), so that
# one unusually deep tree or dense closure does not set a run's numbers.
LOCAL_GRAPHS = 3
TC_NODES = {"bench": 700, "tiny": 150}
SG_NODES = {"bench": 700, "tiny": 200}


def _local(seed: int, scale: str) -> Inputs:
    from repro.core.queries import same_generation_term
    from repro.core.rpq import parse_query
    from repro.core.terms import Fix, Rel, Union_, Var, compose
    from repro.graphs.generators import edges_to_triples, erdos_renyi, random_tree

    from verify import crpq_oracle, same_generation_oracle

    tc = Fix("X", Union_(Rel("R"), compose(Var("X"), Rel("R"), "m0")))
    tc_q = parse_query("?src, ?dst <- ?src e+ ?dst")
    queries, graphs = [], {}
    for i in range(LOCAL_GRAPHS):
        sub = seed * LOCAL_GRAPHS + i
        rnd = erdos_renyi(TC_NODES[scale], 0.01, seed=sub)
        tree = random_tree(SG_NODES[scale], seed=sub)
        # same_generation_term reads R as (child, parent).
        up = tree.rename(columns={"src": "dst", "dst": "src"})[["src", "dst"]]
        queries += [
            Query(f"tc{i}", term=tc, env={"R": rnd},
                  oracle=lambda rows, g=rnd: crpq_oracle(tc_q, edges_to_triples(g), {}, rows)),
            Query(f"sg{i}", term=same_generation_term("R"), env={"R": up},
                  oracle=lambda rows, g=up: same_generation_oracle(g)),
        ]
        graphs[f"rnd_{TC_NODES[scale]}_0.01#{i}"] = _graph_info(rnd)
        graphs[f"tree_{SG_NODES[scale]}#{i}"] = _graph_info(tree)
    return Inputs(queries=queries, graphs=graphs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("yago-closure", ("dist", "bdl"), _yago("Q25")),
        Workload("local-engines", ("pandas", "duckdb"), _local),
    )
}
