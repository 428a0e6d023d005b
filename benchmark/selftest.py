#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes (seconds, not minutes):

    python3 benchmark/selftest.py

For every workload, shrunk to window 10, layers [4, 2] and 2 members, it
checks that a traced run passes its output checks and measures every
layer, that every named metric prints with a unit, and that the final JSON carries exactly the
metrics BENCHMARK.json lists. It then makes a command fail (its config
file is missing, so the CLI exits 2) and checks that the failure is
counted in error_rate rather than dropped, and that a traced function
that no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run
import traced_cli


def toy(w: run.Workload) -> run.Workload:
    return replace(w, name=f"selftest_{w.name}", window=10, layers=(4, 2),
                   members=2, train_units=(3, 20, 30), test_units=(5, 6, 25))


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_reporting(contract: dict) -> None:
    check({w["name"] for w in contract["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    for w in map(toy, run.WORKLOADS.values()):
        work = run.WORK / w.name
        try:
            result = run.run(w, seed=3, seconds=0.0, trace=True, work=work,
                             setup_repeats=1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        check(result["correct"], f"{w.name}: {result['errors']}")
        check(not result["absent"], f"{w.name}: absent {result['absent']}")
        check(not result["not_called"],
              f"{w.name}: not measured {result['not_called']}")
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                final = run.report(result, trace)
            lines = out.getvalue().splitlines()
            named = {ln.split()[0]: ln.split()[2] for ln in lines
                     if ln.startswith("  ") and len(ln.split()) >= 3}
            expected = {name: run.METRIC_UNITS[name]
                        for name in result["end_to_end"]}
            if trace:
                expected |= dict(run.PER_LAYER)
            for name, unit in expected.items():
                check(named.get(name) == unit,
                      f"{w.name}: {name} not printed with unit {unit}")
            listed = {m["name"]: m["unit"] for m in contract[section]}
            check(set(final["metrics"]) == set(listed),
                  f"{w.name}: JSON metrics differ from BENCHMARK.json "
                  f"{section}: {sorted(set(final['metrics']) ^ set(listed))}")
            for name, entry in final["metrics"].items():
                check(entry["unit"] == listed[name] and
                      isinstance(entry["value"], float),
                      f"{w.name}: {name} has {entry}")
        print(f"ok {w.name}: {result['attempted']} commands, "
              f"{len(run.PER_LAYER)} per-layer metrics")


def check_failure_counted() -> None:
    w = toy(run.WORKLOADS["evaluate"])
    work = run.WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = run.setup(w, 4, work)
        good = run.iteration(w, run.Checker(w, inputs), work)
        (work / "bench.yaml").unlink()
        bad = run.iteration(w, run.Checker(w, inputs), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check(all(r.ok for r in good), f"clean iteration failed: {good}")
    check(all(r.exit_code == 2 for r in bad),
          f"missing config should exit 2: {[r.exit_code for r in bad]}")
    e2e = run.end_to_end(w, inputs, [1.0], [good, bad])
    check(e2e["error_rate"] == 0.5, f"error_rate {e2e['error_rate']}, "
          "expected 0.5 (3 of 6 commands failed)")
    print("ok failing command: exit 2 counted, error_rate 0.5")


def check_absent_function() -> None:
    sys.path.insert(0, str(run.SRC))
    import rulens.cli  # noqa: F401 -- loads the modules the tracer patches
    tracer = traced_cli.Tracer()
    tracer.install({"metrics": ("kde", "no_such_function")})
    check(tracer.absent == ["metrics.no_such_function"],
          f"absent functions {tracer.absent}")
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        (Path(tmp) / "evaluate.json").write_text(json.dumps({
            "import_s": 0.3, "exit": 0, "spans": [], "counters": {},
            "counter_errors": {}, "absent": ["metrics.kde"]}))
        metrics, missing, _ = run.per_layer(Path(tmp), ("evaluate",))
    check({"metrics.kde.s", "metrics.kde.values"} <= set(missing)
          and metrics["metrics.kde.s"] == 0.0,
          f"absent metrics not reported: {missing}")
    print("ok absent function: reported as absent")


def main() -> int:
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_reporting(contract)
    check_failure_counted()
    check_absent_function()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
