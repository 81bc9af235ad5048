"""Timing harness shared by jobs/ (full paper tables) and benchmarks/
(pytest-benchmark subsets).

Measurements mirror the paper's reporting: wall-clock seconds per
(system, query, dataset); a failure (CapacityError or any exception) is
recorded the way the paper marks crashes — "absence of a time in a
figure means that the query evaluation has failed".
"""
from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Measurement:
    system: str
    query: str
    dataset: str
    seconds: Optional[float]  # None ⇔ failed
    rows: Optional[int] = None
    note: str = ""

    @property
    def status(self) -> str:
        return "ok" if self.seconds is not None else "fail"


def timed(fn: Callable[[], object]) -> tuple[Optional[float], Optional[int], str]:
    """Run fn; returns (seconds|None, result-row-count|None, note)."""
    t0 = time.perf_counter()
    try:
        out = fn()
        rows = None
        if hasattr(out, "toPandas"):  # Spark DataFrame: count() is an action,
            rows = int(out.count())  # include it in the measured time
        secs = time.perf_counter() - t0
        if rows is None and out is not None and hasattr(out, "__len__"):
            rows = len(out)
        return secs, rows, ""
    except Exception as e:  # noqa: BLE001 — a crash is a data point here
        return None, None, f"{type(e).__name__}: {str(e)[:90]}"


def measure(system: str, query: str, dataset: str, fn: Callable[[], object]) -> Measurement:
    secs, rows, note = timed(fn)
    m = Measurement(system, query, dataset, secs, rows, note)
    print(format_row(m), flush=True)
    return m


def format_row(m: Measurement) -> str:
    t = f"{m.seconds:8.2f}s" if m.seconds is not None else "    fail "
    r = f"{m.rows:>10}" if m.rows is not None else "         -"
    return f"  {m.dataset:<16} {m.query:<10} {m.system:<18} {t} rows={r} {m.note}"


def fell_back(m: Measurement) -> str:
    """The first fallback label (``gld(<reason>)``) among the plans listed
    in ``m.note``, or "" if no fixpoint of the run fell back."""
    return next((p for p in m.note.split(", ") if p.startswith("gld(")), "")


def format_table(title: str, ms: list[Measurement]) -> str:
    """Markdown table: rows = (dataset, query), columns = systems."""
    systems = sorted({m.system for m in ms})
    keys = []
    for m in ms:
        k = (m.dataset, m.query)
        if k not in keys:
            keys.append(k)
    lines = [f"### {title}", ""]
    lines.append("| dataset | query | " + " | ".join(systems) + " | result rows |")
    lines.append("|---" * (len(systems) + 3) + "|")
    by = {(m.dataset, m.query, m.system): m for m in ms}
    for ds, q in keys:
        cells = []
        rows_val = "-"
        for s in systems:
            m = by.get((ds, q, s))
            if m is None:
                cells.append("·")
            elif m.seconds is None:
                cells.append("fail")
            else:
                cells.append(fell_back(m) or f"{m.seconds:.2f}s")
                if m.rows is not None:
                    rows_val = str(m.rows)
        lines.append(f"| {ds} | {q} | " + " | ".join(cells) + f" | {rows_val} |")
    return "\n".join(lines) + "\n"


def bench_scale() -> str:
    """'bench' (default) or 'quick' via REPRO_SCALE — jobs use it to size
    graphs; 'quick' keeps every job under ~a minute for smoke runs."""
    return os.environ.get("REPRO_SCALE", "bench")
