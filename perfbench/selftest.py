"""Self-test of the benchmark at tiny scale (about two minutes on 4 cores).

    python3 perfbench/selftest.py

For every workload, in a child process of its own, it checks that

* an untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, and that an injected failing query lowers ``ok_frac`` and is
  counted in ``failed`` instead of aborting the run;
* a traced run prints every per-layer metric with its unit, every count
  repeats exactly across its traced passes, and a count that differs from
  an earlier run's record is caught;

and that the benchmark exits non-zero, printing no result, in a
directory holding only BENCHMARK.json and perfbench/.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def inject_failure(inputs) -> None:
    """Append a query that fails: a row cap of 1 makes the Spark plans
    raise CapacityError (in the Spark driver or a worker); the local engines
    get a term over a relation that does not exist."""
    from repro.core.terms import Rel
    from workloads import Query

    q = inputs.queries[0]
    if q.text is not None:
        inputs.queries.append(Query("inject", text=q.text, row_cap=1))
    else:
        inputs.queries.append(Query("inject", term=Rel("missing"), env={}))


def child(workload: str, trace: bool) -> int:
    sys.path.insert(0, str(HERE))
    import run

    err = run.prepare()
    if err:
        print(err, file=sys.stderr)
        return 2
    try:
        record = run.run(workload, seed=7, seconds=1, trace=trace, scale="tiny",
                         inject=None if trace else inject_failure)
        if trace:
            record["across_runs"] = across_runs(run, record)
    finally:
        run.cleanup()
    print(json.dumps({k: record.get(k) for k in
                      ("correct", "problems", "attempted", "failed", "failures", "metrics",
                       "across_runs")}))
    return 0


def across_runs(run, record) -> bool:
    """repeat_across_runs accepts the run's own record and catches one
    count changed in it."""
    path = run.OUT / f"selftest-earlier-{record['env']['workload']}.json"
    try:
        path.write_text(json.dumps(record, default=str))
        same = run.repeat_across_runs(record, path)
        earlier = json.loads(path.read_text())
        earlier["metrics"][run.EXACT[0]]["value"] += 1
        path.write_text(json.dumps(earlier))
        changed = run.repeat_across_runs(record, path)
    finally:
        path.unlink(missing_ok=True)
    return not same and len(changed) == 1


def check(workload: str, trace: bool, spec: dict) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "selftest.py"), "--child", workload, str(int(trace))],
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        return [f"{workload} trace={int(trace)}: exit {out.returncode}\n{out.stderr[-3000:]}"]
    r = json.loads(out.stdout.strip().splitlines()[-1])
    errors = []
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = r["metrics"]
    for m in want:
        if m["name"] not in got:
            errors.append(f"missing metric {m['name']}")
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{m['name']}: unit {got[m['name']]['unit']} != {m['unit']}")
    if set(got) - {m["name"] for m in want}:
        errors.append(f"unexpected metrics {sorted(set(got) - {m['name'] for m in want})}")
    if not r["correct"]:
        errors.append(f"wrong results or counts that did not repeat: {r['problems']}")
    if trace:
        if r["failed"]:
            errors.append(f"unexpected failures: {r['failures']}")
        if not r["across_runs"]:
            errors.append("a count changed between runs was not caught")
    else:
        injected = [f for f in r["failures"] if f["query"] == "inject"]
        others = [f for f in r["failures"] if f["query"] != "inject"]
        if others:
            errors.append(f"unexpected failures: {others}")
        if not injected or r["failed"] == 0 or not got["ok_frac"]["value"] < 1:
            errors.append(f"injected failure not counted: failed={r['failed']}")
    return [f"{workload} trace={int(trace)}: {e}" for e in errors]


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the benchmark must refuse."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "local-engines", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        return [f"bare directory: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        return child(sys.argv[2], sys.argv[3] == "1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare_directory()
    for w in spec["workloads"]:
        for trace in (False, True):
            errs = check(w["name"], trace, spec)
            print(f"{w['name']:16s} trace={int(trace)}: {'ok' if not errs else 'FAIL'}", flush=True)
            errors += errs
    for e in errors:
        print(e)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
