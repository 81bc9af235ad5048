"""Reproduce paper Fig. 7: P_plw^s (SetRDD-style pandas local loops) vs
P_plw^pg (per-partition DuckDB, the PostgreSQL substitute) on Yago
queries."""
from repro.bench.harness import format_table
from repro.bench.session import spark_session
from repro.bench.suites import run_fig7


def main() -> None:
    with spark_session("fig7") as spark:
        ms = run_fig7(spark)
    print(format_table("Fig. 7 — P_plw implementations on yago_lite", ms))


if __name__ == "__main__":
    main()
