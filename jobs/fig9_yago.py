"""Reproduce paper Fig. 9: running times of Q1–Q25 on (scaled) Yago for
Dist-μ-RA, Dist-μ-RA forced to P_gld, BigDatalog-like, GraphX/Pregel-like
and centralized μ-RA (DuckDB)."""
from repro.bench.harness import format_table
from repro.bench.session import spark_session
from repro.bench.suites import run_fig9


def main() -> None:
    with spark_session("fig9") as spark:
        ms = run_fig9(spark)
    print(format_table("Fig. 9 — Yago running times", ms))


if __name__ == "__main__":
    main()
