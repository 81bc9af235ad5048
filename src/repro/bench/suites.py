"""Experiment suites — one function per paper table/figure.

Each suite returns a list of :class:`repro.bench.harness.Measurement`
and prints a progress row per run; jobs/*.py are thin spark-submit
wrappers around them. Scales: REPRO_SCALE=quick (CI smoke) vs bench
(EXPERIMENTS.md numbers); both are far below the paper's cluster scale,
see DESIGN.md §4.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..baselines.bigdatalog import eval_crpq_bigdatalog
from ..baselines.pregel import eval_crpq_pregel
from ..core.compiler_pandas import eval_pandas
from ..core.compiler_spark import FixConfig, eval_spark
from ..core.compiler_sql import eval_duckdb
from ..core.cost import GraphStats
from ..core.paper_queries import UNIPROT_QUERIES, YAGO_QUERIES, uniprot_consts
from ..core.planner import evaluate_ucrpq, plan_crpq
from ..core.query2mu import GRAPH, crpq_to_term
from ..core.queries import anbn_term, reach_term, same_generation_term
from ..core.rewriter import rewrite
from ..core.rpq import parse_query
from ..graphs.generators import add_labels, erdos_renyi, random_tree, snap_lite
from ..graphs.registry import TABLE1
from ..graphs.stats import summarize
from ..graphs.uniprot import uniprot
from ..graphs.yago import yago_lite
from .harness import Measurement, bench_scale, measure

PREGEL_CAP = 3_000_000
# Per-fixpoint capacity for every engine — runaway closures become
# "fail" data points, the way the paper reports crashes/timeouts.
FIXPOINT_CAP = 5_000_000
# Myria's row cap in Fig. 11; it models Myria's crashes on large closures
# (it "even crashes for rnd_10k_0.001" on same-generation). Figs. 12–14
# use 2M (see run_query_suite).
MYRIA_CAP = 30_000_000


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


def run_table1(with_tc: bool = True) -> list[dict]:
    """Generate every dataset; report edges/nodes (+ exact TC size for
    the synthetics the paper reports one for)."""
    rows = []
    for spec in TABLE1:
        edges = spec.make()
        s = summarize(edges, with_tc=with_tc and spec.compute_tc)
        row = {
            "ours": spec.name,
            "paper": spec.paper_name,
            "edges": s.edges,
            "nodes": s.nodes,
            "tc": s.tc_size if s.tc_size >= 0 else None,
            "paper_edges": spec.paper_edges,
            "paper_nodes": spec.paper_nodes,
            "paper_tc": spec.paper_tc,
        }
        print(
            f"  {row['ours']:<18} edges={row['edges']:>9} nodes={row['nodes']:>8} "
            f"tc={row['tc'] if row['tc'] is not None else '-':>10}   "
            f"(paper {row['paper']}: edges={row['paper_edges']} nodes={row['paper_nodes']} "
            f"tc={row['paper_tc'] or '-'})",
            flush=True,
        )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Shared runners
# ---------------------------------------------------------------------------


def warmup_spark(spark: SparkSession) -> None:
    """Warm python workers, codegen and the broadcast/mapInPandas paths
    once per suite, so the first timed run is not charged JVM/worker
    spin-up (≈3–4 s of one-time cost observed locally)."""
    import pandas as pd

    pdf = pd.DataFrame({"src": range(500), "dst": range(500)})
    df = spark.createDataFrame(pdf)
    df.join(df.withColumnRenamed("src", "x"), on="dst").count()
    df.mapInPandas(lambda it: it, schema=df.schema).count()
    df.localCheckpoint().count()


def yago_bundle(spark: SparkSession, n_edges: int, seed: int = 0):
    tri, consts = yago_lite(n_edges, seed=seed)
    gdf = spark.createDataFrame(tri).cache()
    gdf.count()
    return tri, consts, gdf, GraphStats.from_pandas(tri)


def uniprot_bundle(spark: SparkSession, n_edges: int, seed: int = 0):
    tri, _ = uniprot(n_edges, seed=seed)
    consts = uniprot_consts(tri)
    gdf = spark.createDataFrame(tri).cache()
    gdf.count()
    return tri, consts, gdf, GraphStats.from_pandas(tri)


def run_query_suite(
    spark: SparkSession,
    dataset_name: str,
    tri: pd.DataFrame,
    gdf: DataFrame,
    stats: GraphStats,
    consts: dict,
    queries: dict[str, str],
    systems: list[str],
) -> list[Measurement]:
    """The generic (queries × systems) grid used by Figs. 9/13/14."""
    warmup_spark(spark)
    out = []
    for qid, qtext in queries.items():
        q = parse_query(qtext)
        for system in systems:
            if system in ("dist-mura", "dist-mura-gld"):
                cfg = FixConfig("gld" if system.endswith("gld") else "auto", row_cap=FIXPOINT_CAP)
                fn = lambda: evaluate_ucrpq(spark, q, gdf, consts, stats, cfg)
            elif system == "bigdatalog":
                fn = lambda: eval_crpq_bigdatalog(
                    spark, gdf, q, consts, cfg=FixConfig(row_cap=FIXPOINT_CAP)
                )
            elif system == "graphx":
                fn = lambda: eval_crpq_pregel(spark, gdf, q, consts, max_rows=PREGEL_CAP)
            # Centralized μ-RA (§V-C, [11] on PostgreSQL) runs the planner's
            # term on DuckDB (DESIGN.md §4); its row cap models the paper's
            # timeouts on exploding closures. Myria (§VI) recurses semi-
            # naively on one machine without optimizing fixpoints (no pushed
            # joins, merging or reversal): pandas on the naive Query2Mu term.
            elif system == "centralized":
                fn = lambda: eval_duckdb(
                    plan_crpq(q, stats, consts).term, {GRAPH: tri}, FIXPOINT_CAP
                )
            elif system == "myria":
                # 2M-row cap ≙ the paper's Myria failures on closures
                # beyond ~500k records (§V-E4), at our 1:20 scale.
                fn = lambda: eval_pandas(crpq_to_term(q, consts), {GRAPH: tri}, 2_000_000)
            else:  # pragma: no cover
                raise ValueError(system)
            out.append(measure(system, qid, dataset_name, fn))
    return out


# ---------------------------------------------------------------------------
# Fig. 7 — P_plw^s vs P_plw^pg on Yago
# ---------------------------------------------------------------------------

# The paper's Fig. 7 queries, then Yago queries whose fixpoints all have a
# stable column. Of the paper's six, all but Q1 have a fixpoint without
# one, which runs as P_gld whatever plan is forced; the table prints those
# cells as the fallback reason.
FIG7_QUERIES = ["Q1", "Q8", "Q9", "Q19", "Q22", "Q24", "Q4", "Q12", "Q14", "Q15"]


def run_fig7(spark: SparkSession, n_edges: int | None = None) -> list[Measurement]:
    """Each measurement's note lists the plan every fixpoint ran
    (``cfg.chosen``): a forced P_plw without a stable column runs P_gld
    and records why, and :func:`format_table` prints that reason in place
    of the time."""
    n_edges = n_edges or (60_000 if bench_scale() == "bench" else 3_000)
    tri, consts, gdf, stats = yago_bundle(spark, n_edges)
    warmup_spark(spark)
    out = []
    for qid in FIG7_QUERIES:
        q = parse_query(YAGO_QUERIES[qid])
        for strategy, name in (("plw_s", "plw-setrdd"), ("plw_pg", "plw-duckdb")):
            cfg = FixConfig(strategy=strategy, row_cap=FIXPOINT_CAP)
            m = measure(
                name, qid, f"yago_lite_{n_edges}",
                lambda: evaluate_ucrpq(spark, q, gdf, consts, stats, cfg),
            )
            if m.seconds is not None:
                m.note = ", ".join(cfg.chosen)
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# Fig. 9 — Yago, all systems
# ---------------------------------------------------------------------------

FIG9_SYSTEMS = ["dist-mura", "dist-mura-gld", "bigdatalog", "graphx", "centralized"]


def run_fig9(
    spark: SparkSession,
    n_edges: int | None = None,
    queries: list[str] | None = None,
    systems: list[str] | None = None,
) -> list[Measurement]:
    n_edges = n_edges or (60_000 if bench_scale() == "bench" else 3_000)
    tri, consts, gdf, stats = yago_bundle(spark, n_edges)
    qs = {k: YAGO_QUERIES[k] for k in (queries or sorted(YAGO_QUERIES, key=lambda x: int(x[1:])))}
    return run_query_suite(
        spark, f"yago_lite_{n_edges}", tri, gdf, stats, consts, qs, systems or FIG9_SYSTEMS
    )


# ---------------------------------------------------------------------------
# Fig. 10 — concatenated closures a1+/.../an+
# ---------------------------------------------------------------------------


def concat_graph(n_nodes: int = 1000, p: float = 0.1, n_labels: int = 10, seed: int = 0):
    labels = [f"l{i}" for i in range(n_labels)]
    return add_labels(erdos_renyi(n_nodes, p, seed=seed), labels, seed=seed + 1)


def concat_query(n: int) -> str:
    body = "/".join(f"l{i}+" for i in range(n))
    return f"?x, ?y <- ?x {body} ?y"


def run_fig10(
    spark: SparkSession,
    ns: list[int] | None = None,
    systems: list[str] | None = None,
    n_nodes: int | None = None,
) -> list[Measurement]:
    n_nodes = n_nodes or (1000 if bench_scale() == "bench" else 200)
    ns = ns or ([2, 3, 4, 5, 6, 8, 10] if bench_scale() == "bench" else [2, 3])
    tri = concat_graph(n_nodes=n_nodes)
    gdf = spark.createDataFrame(tri).cache()
    gdf.count()
    stats = GraphStats.from_pandas(tri)
    systems = systems or ["dist-mura", "bigdatalog", "graphx", "centralized"]
    qs = {f"n={n}": concat_query(n) for n in ns}
    return run_query_suite(spark, f"rnd_{n_nodes}_10lbl", tri, gdf, stats, {}, qs, systems)


# ---------------------------------------------------------------------------
# Fig. 11 — μ-RA terms (aⁿbⁿ, same generation, reach)
# ---------------------------------------------------------------------------


def _term_on_spark(spark, term, env_pdfs, strategy="auto"):
    env = {k: spark.createDataFrame(v) for k, v in env_pdfs.items()}
    return eval_spark(term, env, spark, FixConfig(strategy=strategy, row_cap=FIXPOINT_CAP))


def run_fig11(spark: SparkSession, quick: bool | None = None) -> list[Measurement]:
    quick = bench_scale() == "quick" if quick is None else quick
    warmup_spark(spark)
    out: list[Measurement] = []

    # aⁿbⁿ on a labeled random graph
    ab = add_labels(erdos_renyi(200 if quick else 800, 0.02, seed=2), ["a", "b"], seed=3)
    t_ab = anbn_term()
    for system in ("dist-mura", "bigdatalog", "myria", "centralized"):
        fn = {
            "dist-mura": lambda: _term_on_spark(spark, t_ab, {"G": ab}),
            "bigdatalog": lambda: _term_on_spark(spark, t_ab, {"G": ab}),
            "myria": lambda: eval_pandas(t_ab, {"G": ab}, MYRIA_CAP),
            "centralized": lambda: eval_duckdb(t_ab, {"G": ab}),
        }[system]
        out.append(measure(system, "anbn", f"rnd_{len(ab)}e_ab", fn))

    # same generation on trees and a random graph (paper Figs. 11–12 data)
    for name, edges in _sg_datasets(quick):
        rel = edges.rename(columns={"src": "dst", "dst": "src"})[["src", "dst"]]
        t_sg = same_generation_term("G")
        for system in ("dist-mura", "bigdatalog", "myria", "centralized"):
            fn = {
                "dist-mura": lambda: _term_on_spark(spark, t_sg, {"G": rel}),
                "bigdatalog": lambda: _term_on_spark(spark, t_sg, {"G": rel}),
                "myria": lambda: eval_pandas(t_sg, {"G": rel}, MYRIA_CAP),
                "centralized": lambda: eval_duckdb(t_sg, {"G": rel}),
            }[system]
            out.append(measure(system, "same-gen", name, fn))

    # reach on random graphs and the snap-lite facebook graph
    for name, edges in _reach_datasets(quick):
        src = int(edges["src"].mode().iloc[0])
        term = rewrite(reach_term(src, "G"), {"G": frozenset({"src", "dst"})})
        # BigDatalog/Myria: magic sets seed from the source, but the
        # antiprojection is not pushed into the recursion.
        naive = reach_term(src, "G")
        for system in ("dist-mura", "bigdatalog", "myria", "centralized"):
            fn = {
                "dist-mura": lambda: _term_on_spark(spark, term, {"G": edges}),
                "bigdatalog": lambda: _term_on_spark(spark, naive, {"G": edges}),
                "myria": lambda: eval_pandas(naive, {"G": edges}, MYRIA_CAP),
                "centralized": lambda: eval_duckdb(term, {"G": edges}),
            }[system]
            out.append(measure(system, "reach", name, fn))
    return out


def _sg_datasets(quick: bool):
    if quick:
        return [("tree_300", random_tree(300, seed=6))]
    return [
        ("tree_1k", random_tree(1000, seed=6)),
        ("tree_3k", random_tree(3000, seed=7)),
        ("rnd_400_0.01", erdos_renyi(400, 0.01, seed=8)),
    ]


def _reach_datasets(quick: bool):
    if quick:
        return [("rnd_300_0.01", erdos_renyi(300, 0.01, seed=9))]
    return [
        ("rnd_1k_0.01", erdos_renyi(1000, 0.01, seed=1)),
        ("rnd_1k_0.05", erdos_renyi(1000, 0.05, seed=4)),
        ("facebook_lite", snap_lite("facebook", seed=0)),
    ]


# ---------------------------------------------------------------------------
# Fig. 12 — Myria vs Dist-μ-RA on same generation, growing size
# ---------------------------------------------------------------------------


def run_fig12(spark: SparkSession) -> list[Measurement]:
    quick = bench_scale() == "quick"
    sizes = [("tree_500", random_tree(500, seed=1)), ("tree_1500", random_tree(1500, seed=2))]
    if not quick:
        sizes += [
            ("tree_4k", random_tree(4000, seed=3)),
            ("rnd_300_0.01", erdos_renyi(300, 0.01, seed=4)),
            ("rnd_600_0.01", erdos_renyi(600, 0.01, seed=5)),
        ]
    warmup_spark(spark)
    out = []
    for name, edges in sizes:
        rel = edges.rename(columns={"src": "dst", "dst": "src"})[["src", "dst"]]
        t_sg = same_generation_term("G")
        out.append(
            measure("dist-mura", "same-gen", name, lambda: _term_on_spark(spark, t_sg, {"G": rel}))
        )
        out.append(
            measure(
                "myria", "same-gen", name,
                lambda: eval_pandas(t_sg, {"G": rel}, 2_000_000),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figs. 13/14 — Uniprot suites; Fig. 8 — scaling
# ---------------------------------------------------------------------------


def run_fig13(
    spark: SparkSession, n_edges: int | None = None, systems: list[str] | None = None
) -> list[Measurement]:
    n_edges = n_edges or (10_000 if bench_scale() == "bench" else 2_500)
    tri, consts, gdf, stats = uniprot_bundle(spark, n_edges)
    qs = {k: UNIPROT_QUERIES[k] for k in sorted(UNIPROT_QUERIES, key=lambda x: int(x[1:]))}
    return run_query_suite(
        spark,
        f"uniprot_{n_edges}",
        tri,
        gdf,
        stats,
        consts,
        qs,
        systems or ["dist-mura", "bigdatalog", "graphx"],
    )


def run_fig14(spark: SparkSession, n_edges: int | None = None) -> list[Measurement]:
    n_edges = n_edges or (5_000 if bench_scale() == "bench" else 1_500)
    tri, consts, gdf, stats = uniprot_bundle(spark, n_edges)
    qs = {k: UNIPROT_QUERIES[k] for k in sorted(UNIPROT_QUERIES, key=lambda x: int(x[1:]))}
    return run_query_suite(
        spark, f"uniprot_{n_edges}", tri, gdf, stats, consts, qs, ["dist-mura", "myria"]
    )


FIG8_QUERIES = ["Q26", "Q29", "Q31", "Q33", "Q36", "Q40", "Q43", "Q46"]


def run_fig8(
    spark: SparkSession, sizes: list[int] | None = None, queries: list[str] | None = None
) -> list[Measurement]:
    sizes = sizes or ([10_000, 50_000, 100_000] if bench_scale() == "bench" else [2_000, 5_000])
    queries = queries or FIG8_QUERIES
    out = []
    for n in sizes:
        tri, consts, gdf, stats = uniprot_bundle(spark, n)
        qs = {k: UNIPROT_QUERIES[k] for k in queries}
        out += run_query_suite(
            spark, f"uniprot_{n}", tri, gdf, stats, consts, qs, ["dist-mura", "bigdatalog"]
        )
        gdf.unpersist()
    return out
