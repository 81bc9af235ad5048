"""Reproduce paper Fig. 11: the non-UCRPQ μ-RA terms (aⁿbⁿ,
same-generation, reach) across systems and datasets."""
from repro.bench.harness import format_table
from repro.bench.session import spark_session
from repro.bench.suites import run_fig11


def main() -> None:
    with spark_session("fig11") as spark:
        ms = run_fig11(spark)
    print(format_table("Fig. 11 — μ-RA query running times", ms))


if __name__ == "__main__":
    main()
