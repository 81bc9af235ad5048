"""Reproduce paper Fig. 13: Q26–Q50 on (scaled) uniprot_1M for
Dist-μ-RA, BigDatalog-like and GraphX/Pregel-like."""
from repro.bench.harness import format_table
from repro.bench.session import spark_session
from repro.bench.suites import run_fig13


def main() -> None:
    with spark_session("fig13") as spark:
        ms = run_fig13(spark)
    print(format_table("Fig. 13 — uniprot running times", ms))


if __name__ == "__main__":
    main()
