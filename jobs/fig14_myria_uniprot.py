"""Reproduce paper Fig. 14: Myria vs Dist-μ-RA on (scaled)
uniprot_100k, all Q26–Q50."""
from repro.bench.harness import format_table
from repro.bench.session import spark_session
from repro.bench.suites import run_fig14


def main() -> None:
    with spark_session("fig14") as spark:
        ms = run_fig14(spark)
    print(format_table("Fig. 14 — uniprot, Myria vs Dist-μ-RA", ms))


if __name__ == "__main__":
    main()
