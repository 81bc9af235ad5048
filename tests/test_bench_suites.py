"""Smoke tests of the benchmark harness and experiment suites (tiny
scales), so every jobs/*.py code path is exercised by `pytest tests/`."""
import pandas as pd
import pytest

from repro.bench.harness import Measurement, format_row, format_table, measure, timed
from repro.bench.suites import (
    FIG7_QUERIES,
    concat_graph,
    concat_query,
    run_fig7,
    run_fig10,
    run_fig12,
    run_query_suite,
    run_table1,
    uniprot_bundle,
    yago_bundle,
)
from repro.core.paper_queries import UNIPROT_QUERIES, YAGO_QUERIES


class TestHarness:
    def test_timed_ok(self):
        secs, rows, note = timed(lambda: [1, 2, 3])
        assert secs is not None and rows == 3 and note == ""

    def test_timed_failure_is_a_data_point(self):
        secs, rows, note = timed(lambda: 1 / 0)
        assert secs is None and "ZeroDivisionError" in note

    def test_measure_and_format(self, capsys):
        m = measure("sys", "q", "ds", lambda: [1])
        assert m.status == "ok"
        out = capsys.readouterr().out
        assert "sys" in out and "q" in out

    def test_format_table_marks_failures(self):
        ms = [
            Measurement("a", "q1", "d", 1.5, 10),
            Measurement("b", "q1", "d", None, None, "boom"),
        ]
        table = format_table("T", ms)
        assert "fail" in table and "1.50s" in table

    def test_format_table_prints_fallback_reason(self):
        ms = [
            Measurement("a", "q1", "d", 1.5, 10, "plw_s, gld(no-stable-column)"),
            Measurement("a", "q2", "d", 2.5, 10, "plw_s, plw_s"),
        ]
        table = format_table("T", ms)
        assert "| q1 | gld(no-stable-column) |" in table and "1.50s" not in table
        assert "2.50s" in table

    def test_format_row_fail(self):
        assert "fail" in format_row(Measurement("s", "q", "d", None))


class TestSuitesTiny:
    def test_table1_no_tc(self):
        rows = run_table1(with_tc=False)
        assert len(rows) == 15
        assert all(r["edges"] > 0 for r in rows)

    def test_fig7_tiny(self, spark):
        ms = run_fig7(spark, n_edges=1200)
        assert len(ms) == 2 * len(FIG7_QUERIES)
        assert all(m.seconds is not None for m in ms)
        # both implementations return identical row counts per query
        by_q = {}
        for m in ms:
            by_q.setdefault(m.query, set()).add(m.rows)
        assert all(len(v) == 1 for v in by_q.values())
        # each note lists the plan every fixpoint ran: the forced one, or
        # the fallback, which the table prints in place of the time
        forced = {"plw-setrdd": "plw_s", "plw-duckdb": "plw_pg"}
        for m in ms:
            assert set(m.note.split(", ")) <= {forced[m.system], "gld(no-stable-column)"}
        q9 = [m for m in ms if m.query == "Q9"]
        assert all(m.note == "gld(no-stable-column)" for m in q9)
        assert "| Q9 | gld(no-stable-column) | gld(no-stable-column) |" in format_table("Fig. 7", ms)

    def test_query_suite_systems_agree(self, spark):
        tri, consts, gdf, stats = yago_bundle(spark, 1200, seed=1)
        qs = {"Q9": YAGO_QUERIES["Q9"], "Q19": YAGO_QUERIES["Q19"]}
        ms = run_query_suite(
            spark, "tiny", tri, gdf, stats, consts, qs,
            ["dist-mura", "dist-mura-gld", "bigdatalog", "graphx", "centralized", "myria"],
        )
        for qid in qs:
            counts = {m.rows for m in ms if m.query == qid and m.seconds is not None}
            assert len(counts) == 1, f"{qid}: systems disagree: {counts}"

    def test_uniprot_suite_agree(self, spark):
        tri, consts, gdf, stats = uniprot_bundle(spark, 1000, seed=2)
        qs = {"Q43": UNIPROT_QUERIES["Q43"]}
        ms = run_query_suite(
            spark, "tiny", tri, gdf, stats, consts, qs,
            ["dist-mura", "bigdatalog", "myria"],
        )
        counts = {m.rows for m in ms if m.seconds is not None}
        assert len(counts) == 1

    def test_fig10_tiny(self, spark):
        ms = run_fig10(spark, ns=[2], systems=["dist-mura", "bigdatalog"], n_nodes=120)
        ok = [m for m in ms if m.seconds is not None]
        assert {m.rows for m in ok} and len({m.rows for m in ok}) == 1

    def test_concat_query_text(self):
        assert concat_query(3) == "?x, ?y <- ?x l0+/l1+/l2+ ?y"

    def test_concat_graph_labels(self):
        tri = concat_graph(n_nodes=100, n_labels=4)
        assert set(tri.label.unique()) <= {f"l{i}" for i in range(4)}
