"""Reproduce paper Fig. 12: Myria vs Dist-μ-RA on same-generation with
growing dataset size (Myria capacity-fails on the larger random graph,
as in the paper)."""
from repro.bench.harness import format_table
from repro.bench.session import spark_session
from repro.bench.suites import run_fig12


def main() -> None:
    with spark_session("fig12") as spark:
        ms = run_fig12(spark)
    print(format_table("Fig. 12 — same generation, Myria vs Dist-μ-RA", ms))


if __name__ == "__main__":
    main()
