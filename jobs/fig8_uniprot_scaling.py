"""Reproduce paper Fig. 8: Dist-μ-RA vs BigDatalog-like on uniprot
graphs of growing size (1:100 scale: 10k/50k/100k edges), representative
query subset (see EXPERIMENTS.md)."""
from repro.bench.harness import format_table
from repro.bench.session import spark_session
from repro.bench.suites import run_fig8


def main() -> None:
    with spark_session("fig8") as spark:
        ms = run_fig8(spark)
    print(format_table("Fig. 8 — uniprot scaling", ms))


if __name__ == "__main__":
    main()
