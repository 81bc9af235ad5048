"""Reproduce paper Fig. 10: concatenated closures a1+/…/an+ (n=2..10) on
a 10-label random graph — the class-C6 stress test where fixpoint
merging + join pushing beat every baseline."""
from repro.bench.harness import format_table
from repro.bench.session import spark_session
from repro.bench.suites import run_fig10


def main() -> None:
    with spark_session("fig10") as spark:
        ms = run_fig10(spark)
    print(format_table("Fig. 10 — concatenated closures", ms))


if __name__ == "__main__":
    main()
