#!/usr/bin/env python3
"""Benchmark of the rulens command line, run from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its inputs from the seed (benchmark/gen.py), does the
workload's set-up at least three times, then runs the workload's CLI
commands as child processes, one at a time in a closed loop, until S
seconds have passed. Every command's outputs are checked. The last line
of standard output is one JSON object: end-to-end metrics (medians over
the loop's iterations) with --trace 0, per-layer metrics (medians over
three extra traced passes over the whole CLI pipeline, through
benchmark/traced_cli.py) with --trace 1. The lines before it give every
metric by name and unit, the artifact digests and the environment. See
benchmark/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = WORK / "digests.json"

TRACE_REPEATS = 3                # traced iterations; per-layer values are medians
SETUP_REPEATS = 3                # at least; cheap set-ups repeat until
SETUP_MIN_S = 1.0                # this much time is spent, for a steady median
COMMAND_TIMEOUT_S = 150.0
Z95 = 1.959963984540054          # central 95% normal quantile
Z_TOL = 1e-8                     # the CLI's quantile approximation is ~1e-9
TSV_TOL = 1e-12                  # u_tot == u_al + u_ep
CROSS_TOL = 1e-9                 # the same reading from two commands, or
                                 # from a command and benchmark/reference.py


@dataclass(frozen=True)
class Workload:
    name: str
    train_units: tuple[int, int, int]     # count, shortest, longest
    test_units: tuple[int, int, int]      # count, shortest kept, longest kept
    members: int
    timed: tuple[str, ...]                # commands, in loop order
    window: int = 100
    layers: tuple[int, ...] = (32, 16)
    epochs: int = 1


# Why each workload exists: benchmark/README.md and BENCHMARK.json. Sizes
# are scaled so one iteration takes a few seconds on two cores.
WORKLOADS = {w.name: w for w in (
    # backprop through time, Adam and clipping; no inference
    Workload("train", train_units=(6, 128, 362), test_units=(10, 45, 334),
             members=3, timed=("ingest", "train")),
    # B=1 inference over whole histories; the checkpoint is set-up work
    Workload("evaluate", train_units=(2, 104, 112), test_units=(12, 45, 334),
             members=15, timed=("evaluate", "uncertainty", "predict")),
    # one batch per unit holds all its windows; short units are skipped
    Workload("window_profile", train_units=(2, 104, 112),
             test_units=(14, 60, 160), members=15,
             timed=("uncertainty_windows",)),
)}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]
COMMAND_METRICS = {"ingest": "ingest_s", "train": "train_s",
                   "evaluate": "evaluate_s", "uncertainty": "uncertainty_s",
                   "uncertainty_windows": "uncertainty_s",
                   "predict": "predict_s"}
# printed with the end-to-end metrics but not in BENCHMARK.json: they exist
# only on some workloads, or are 0 on a correct program
METRIC_UNITS = dict(END_TO_END) | {
    "ingest_s": "s", "train_s": "s", "evaluate_s": "s", "uncertainty_s": "s",
    "predict_s": "s", "train_windows_per_s": "1/s", "error_rate": "ratio"}

PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.cmd_ingest.self_s", "s"),
    ("cli.cmd_train.self_s", "s"),
    ("cli.cmd_evaluate.self_s", "s"),
    ("cli.cmd_uncertainty.self_s", "s"),
    ("cli.cmd_predict.self_s", "s"),
    ("cmapss.parse_cmapss.s", "s"),
    ("cmapss.parse_cmapss.rows", "count"),
    ("cmapss.prepare_split.s", "s"),
    ("cmapss.save_archive.s", "s"),
    ("cmapss.load_archive.s", "s"),
    ("cmapss.load_archive.windows", "count"),
    ("network.grad.calls", "count"),
    ("network.grad.s", "s"),
    ("network.grad.ms_p50", "ms"),
    ("network.grad.gflops", "GFLOP/s"),
    ("network.adam_step.s", "s"),
    ("network.clip_global_norm.s", "s"),
    ("network.clip_global_norm.clipped_ratio", "ratio"),
    ("network.train_pnn.self_s", "s"),
    ("ensemble.predict_ensemble.s", "s"),
    ("ensemble.dataset_uncertainty_profile.self_s", "s"),
    ("ensemble.dataset_uncertainty_profile.units_skipped", "count"),
    ("ensemble.decompose_uncertainty.calls", "count"),
    ("ensemble.decompose_uncertainty.s", "s"),
    ("ensemble.aggregate.calls", "count"),
    ("ensemble.aggregate.s", "s"),
    ("metrics.unit_predictions.self_s", "s"),
    ("metrics.report_from_predictions.s", "s"),
    ("metrics.interval_bounds.calls", "count"),
    ("metrics.kde.s", "s"),
    ("metrics.kde.values", "count"),
    ("checkpoints.save_member.s", "s"),
    ("checkpoints.save_member.bytes", "bytes"),
    ("checkpoints.load_member.calls", "count"),
    ("checkpoints.load_member.s", "s"),
    ("checkpoints.load_ensemble.s", "s"),
    ("checkpoints.write_ensemble_manifest.s", "s"),
    ("trace.overhead_s", "s"),
]


class CheckFailed(Exception):
    pass


# ----------------------------------------------------------------------
# inputs and commands
# ----------------------------------------------------------------------

@dataclass
class Inputs:
    train_lengths: list[int]
    test_lengths: list[int]
    ruls: list[int]

    def train_windows(self, window: int) -> int:
        return sum(max(0, n - window + 1) for n in self.train_lengths)


def generate(w: Workload, seed: int, work: Path) -> Inputs:
    data = work / "data"
    data.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    train = gen.write_train(data / "train.txt", rng, gen.ladder(*w.train_units))
    paths = {"test": data / "test.txt", "shifted": data / "shifted.txt",
             "rul": data / "rul.txt"}
    shifts = {"test": 0.0, "shifted": 1.0} if "uncertainty" in w.timed \
        else {"test": 0.0}
    test, ruls = gen.write_test(paths, rng, gen.ladder(*w.test_units),
                                (5, 120), shifts)
    config = {
        "data": {"train_file": "data/train.txt", "test_file": "data/test.txt",
                 "rul_file": "data/rul.txt"},
        "preprocessing": {"window_length": w.window},
        "architecture": {"recurrent_layers": list(w.layers)},
        "training": {"max_epochs": w.epochs},
        "ensemble": {"members": w.members},
        "output_dir": "out",
    }
    (work / "bench.yaml").write_text(json.dumps(config, indent=2) + "\n")
    return Inputs(train, test, ruls)


def predict_unit(inputs: Inputs) -> int:
    """The test unit of median length, so every seed predicts the same work."""
    median = sorted(inputs.test_lengths)[len(inputs.test_lengths) // 2]
    return inputs.test_lengths.index(median) + 1


def argv_for(command: str, inputs: Inputs) -> list[str]:
    cfg = ["--config", "bench.yaml"]
    return {
        "ingest": ["ingest", *cfg, "--out", "archive", "--force"],
        "train": ["train", *cfg, "--archive", "archive", "--out", "ckpt",
                  "--force"],
        "evaluate": ["evaluate", *cfg, "--checkpoint", "ckpt",
                     "--archive", "archive", "--out", "reports", "--per-unit"],
        "uncertainty": ["uncertainty", *cfg, "--checkpoint", "ckpt",
                        "--test", "fd=data/test.txt",
                        "--test", "shifted=data/shifted.txt", "--out", "unc"],
        "uncertainty_windows": ["uncertainty", *cfg, "--checkpoint", "ckpt",
                                "--test", "fd=data/test.txt", "--per-window",
                                "--out", "unc"],
        "predict": ["predict", *cfg, "--checkpoint", "ckpt",
                    "--archive", "archive", "--unit",
                    str(predict_unit(inputs)), "--out", "traces"],
    }[command]


ARTIFACTS = {"ingest": ("archive",), "train": ("ckpt",),
             "evaluate": ("reports",), "uncertainty": ("unc",),
             "uncertainty_windows": ("unc",), "predict": ("traces",)}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

@dataclass
class CommandResult:
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.error


def child_env() -> dict[str, str]:
    """The caller's environment with src/ importable. BLAS thread settings
    are passed through untouched, so the default threading is measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH", "")] if p])
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, float, int]:
    """Run one child to its end -> (wall s, cpu s, peak RSS MB, exit code).

    The child is reaped with wait4, so its CPU time and peak RSS are its
    own; a child still running after COMMAND_TIMEOUT_S is killed.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def run_command(command: str, argv: list[str], work: Path,
                check) -> CommandResult:
    log = work / "logs" / f"{command}.log"
    log.parent.mkdir(exist_ok=True)
    wall, cpu, rss, code = run_child(argv, work, log)
    result = CommandResult(command, wall, cpu, rss, code)
    if code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        result.error = f"exit {code}: {' '.join(tail)}"
    else:
        try:
            check(command, work)
        except (CheckFailed, OSError, ValueError, KeyError,
                IndexError) as exc:
            result.error = f"output check: {exc}"
    return result


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "rulens.cli", *args]


def traced_argv(args: list[str], spans: Path) -> list[str]:
    return [sys.executable, str(BENCH / "traced_cli.py"), str(spans), "--",
            *args]


# ----------------------------------------------------------------------
# output checks (tolerances are stated next to each)
# ----------------------------------------------------------------------

def read_tsv(path: Path) -> list[dict[str, float]]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, map(float, ln.split("\t")))) for ln in lines[1:]]


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_decomposition(rows: list[dict[str, float]], where: str) -> None:
    """u_tot == u_al + u_ep to TSV_TOL, u_ep >= 0 (a mixture's variance is
    at least the geometric mean of its members'), all finite."""
    for r in rows:
        vals = (r["u_al"], r["u_ep"], r["u_tot"])
        require(all(math.isfinite(v) for v in vals), f"{where}: non-finite {r}")
        require(abs(r["u_tot"] - r["u_al"] - r["u_ep"])
                <= TSV_TOL * max(1.0, abs(r["u_tot"])),
                f"{where}: u_tot != u_al + u_ep in {r}")
        require(r["u_ep"] >= -TSV_TOL, f"{where}: negative epistemic {r}")


def check_density(path: Path) -> None:
    """A density curve integrates to 1 within 2%."""
    rows = read_tsv(path)
    grid = np.array([r["grid"] for r in rows])
    dens = np.array([r["density"] for r in rows])
    require(np.isfinite(dens).all() and (dens >= 0).all(),
            f"{path.name}: bad density values")
    area = float(np.sum((dens[1:] + dens[:-1]) * np.diff(grid)) / 2.0)
    require(abs(area - 1.0) < 0.02, f"{path.name}: integrates to {area}")


def close(a: float, b: float, tol: float = CROSS_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_interval(r: dict[str, float], where: str) -> None:
    """The 95% interval is mean -+ Z95 sigma, to Z_TOL relative."""
    half = (r["upper"] - r["lower"]) / 2.0
    require(r["sigma"] > 0 and abs(half - Z95 * r["sigma"]) <= Z_TOL * half
            and close((r["upper"] + r["lower"]) / 2.0, r["mean"]),
            f"{where}: interval is not mean -+ z sigma in {r}")


class Checker:
    """Checks each command's outputs against values derived from the
    generated inputs and against the other commands' outputs. The first
    check of an inference command in a run also compares a sample of its
    readings with benchmark/reference.py; later iterations must give the
    same artifact digest, so they need not repeat it."""

    def __init__(self, w: Workload, inputs: Inputs):
        self.w = w
        self.inputs = inputs
        self.referenced: set[str] = set()

    def reference_model(self, command: str, work: Path):
        """-> (architecture, members, normalizer), or None once done."""
        if command in self.referenced:
            return None
        self.referenced.add(command)
        arch, members = reference.load_members(work / "ckpt")
        return arch, members, reference.normalizer(work / "data" / "train.txt")

    def check_reference(self, ref, x: np.ndarray, rows: list[dict],
                        step: int, keys: tuple[str, ...], where: str) -> None:
        arch, members, norm = ref
        expected = reference.mixture(arch, members, norm(x))
        for r, i in zip(rows, range(step, step + len(rows))):
            require(all(close(r[k], expected[k][i]) for k in keys),
                    f"{where}: {[(k, r[k], expected[k][i]) for k in keys]} "
                    "differs from the reference mixture")

    def __call__(self, command: str, work: Path) -> None:
        getattr(self, "check_" + command)(work)

    def check_ingest(self, work: Path) -> None:
        manifest = json.loads((work / "archive" / "manifest.json").read_text())
        expected = self.inputs.train_windows(self.w.window)
        require(manifest["n_train_windows"] == expected,
                f"{manifest['n_train_windows']} windows, expected {expected}")
        require(manifest["n_train_units"] == len(self.inputs.train_lengths)
                and manifest["n_test_units"] == len(self.inputs.test_lengths),
                "unit counts differ from the generated files")

    def check_train(self, work: Path) -> None:
        ens = json.loads((work / "ckpt" / "ensemble.json").read_text())
        require(ens["n_members"] == self.w.members,
                f"{ens['n_members']} members, expected {self.w.members}")
        for rel in ens["member_files"]:
            with open(work / "ckpt" / rel, "rb") as fh:
                header = json.loads(fh.readline())
            losses = header["history"]["epoch_losses"]
            require(len(losses) == self.w.epochs
                    and all(math.isfinite(v) for v in losses),
                    f"{rel}: epoch losses {losses}")

    def check_evaluate(self, work: Path) -> None:
        report = json.loads((work / "reports" / "report.json").read_text())
        m = report["metrics"]
        n_units = len(self.inputs.test_lengths)
        require(m["n"] == n_units, f"report n={m['n']}, expected {n_units}")
        require(all(math.isfinite(m[k]) for k in ("rmse", "score", "nmpiw")),
                f"non-finite report metrics {m}")
        require(0.0 <= m["picp"] <= 1.0, f"picp {m['picp']} outside [0, 1]")
        rows = read_tsv(work / "reports" / "per_unit.tsv")
        require(len(rows) == n_units, f"{len(rows)} per-unit rows")
        check_decomposition(rows, "per_unit.tsv")
        covered = 0
        for r, rul in zip(rows, self.inputs.ruls):
            require(r["true_rul"] == rul, f"unit {r['unit']}: true RUL "
                    f"{r['true_rul']}, generated {rul}")
            check_interval(r, f"unit {r['unit']}")
            covered += int(r["covered"])
        require(close(m["picp"], covered / n_units), "picp != covered share")

    def check_uncertainty(self, work: Path) -> None:
        out = work / "unc"
        summary = json.loads((out / "summary.json").read_text())
        n_units = len(self.inputs.test_lengths)
        for name in ("fd", "shifted"):
            rows = read_tsv(out / f"{name}_uncertainty.tsv")
            require(len(rows) == n_units == summary["datasets"][name]["n"],
                    f"{name}: {len(rows)} rows for {n_units} units")
            check_decomposition(rows, f"{name}_uncertainty.tsv")
            for kind in ("aleatoric", "epistemic"):
                check_density(out / f"{name}_{kind}_density.tsv")
        require(sorted(summary["epistemic_ordering"]) == ["fd", "shifted"],
                "summary lacks the two-dataset ordering")
        # the last-step reading of each unit must match evaluate's
        per_unit = read_tsv(work / "reports" / "per_unit.tsv")
        for r, e in zip(read_tsv(out / "fd_uncertainty.tsv"), per_unit):
            require(r["unit"] == e["unit"] and all(
                close(r[k], e[k]) for k in ("u_al", "u_ep", "u_tot")),
                f"unit {r['unit']}: uncertainty differs from evaluate")

    def check_uncertainty_windows(self, work: Path) -> None:
        out = work / "unc"
        rows = read_tsv(out / "fd_uncertainty.tsv")
        window = self.w.window
        expected = [(uid, end)
                    for uid, n in enumerate(self.inputs.test_lengths, start=1)
                    for end in range(window, n + 1)]
        got = [(int(r["unit"]), int(r["end_cycle"])) for r in rows]
        require(got == expected, f"{len(got)} window rows, expected "
                f"{len(expected)} (units shorter than {window} skipped)")
        check_decomposition(rows, "fd_uncertainty.tsv")
        for kind in ("aleatoric", "epistemic"):
            check_density(out / f"fd_{kind}_density.tsv")
        summary = json.loads((out / "summary.json").read_text())
        require(summary["datasets"]["fd"]["n"] == len(expected),
                "summary row count differs")
        ref = self.reference_model("uncertainty_windows", work)
        if ref is not None:     # the last window of every long-enough unit
            units = reference.read_units(work / "data" / "test.txt")
            last = {(int(r["unit"]), int(r["end_cycle"])): r for r in rows}
            for uid, x in enumerate(units, start=1):
                if len(x) >= window:
                    self.check_reference(
                        ref, x[-window:], [last[(uid, len(x))]], window - 1,
                        ("u_al", "u_ep", "u_tot"), f"unit {uid} last window")

    def check_predict(self, work: Path) -> None:
        uid = predict_unit(self.inputs)
        rows = read_tsv(work / "traces" / f"test_unit_{uid}.tsv")
        require(len(rows) == self.inputs.test_lengths[uid - 1],
                f"{len(rows)} trace steps")
        for r in rows:
            check_interval(r, f"step {r['step']}")
        # the mixture mean and sigma at the last step must match evaluate's
        e = read_tsv(work / "reports" / "per_unit.tsv")[uid - 1]
        last = rows[-1]
        require(close(last["mean"], e["mean"]) and close(last["sigma"], e["sigma"]),
                f"unit {uid}: predict ({last['mean']}, {last['sigma']}) != "
                f"evaluate ({e['mean']}, {e['sigma']})")
        require(last["target"] == e["true_rul"], "last-step target != true RUL")
        ref = self.reference_model("predict", work)
        if ref is not None:     # every step of the unit's whole history
            x = reference.read_units(work / "data" / "test.txt")[uid - 1]
            self.check_reference(ref, x, rows, 0, ("mean", "sigma"),
                                 f"predict unit {uid}")
            self.check_reference(ref, x, [e], len(x) - 1,
                                 ("u_al", "u_ep", "u_tot"),
                                 f"evaluate unit {uid}")


def digest(work: Path, w: Workload) -> str:
    """SHA-256 over every artifact the timed commands write."""
    h = hashlib.sha256()
    dirs = sorted({d for c in w.timed for d in ARTIFACTS[c]})
    for d in dirs:
        for path in sorted((work / d).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(work)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def setup(w: Workload, seed: int, work: Path) -> Inputs:
    """Generate inputs in a new directory; for inference workloads also
    ingest and train the checkpoint through the CLI (never by writing
    member files directly)."""
    work.mkdir(parents=True)
    inputs = generate(w, seed, work)
    if w.timed[0] != "ingest":
        check = Checker(w, inputs)
        for command in ("ingest", "train"):
            result = run_command(command, cli_argv(argv_for(command, inputs)),
                                 work, check)
            if not result.ok:
                raise SystemExit(f"set-up {command} failed: {result.error}")
    return inputs


def traced_commands(w: Workload) -> tuple[str, ...]:
    """The whole CLI pipeline on the workload's inputs: its set-up and timed
    commands plus the rest, so every layer is measured on every workload.
    Only the layers under the timed commands move its end-to-end metrics."""
    profile = "uncertainty" if "uncertainty" in w.timed else "uncertainty_windows"
    return ("ingest", "train", "evaluate", profile, "predict")


def iteration(w: Workload, check: Checker, work: Path,
              trace_dir: Path | None = None) -> list[CommandResult]:
    """One pass over the timed commands, or, with a trace directory, one
    traced pass over traced_commands(w)."""
    results = []
    for command in w.timed if trace_dir is None else traced_commands(w):
        args = argv_for(command, check.inputs)
        argv = (cli_argv(args) if trace_dir is None
                else traced_argv(args, trace_dir / f"{command}.json"))
        results.append(run_command(command, argv, work, check))
    return results


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(w: Workload, inputs: Inputs, setups: list[float],
               iterations: list[list[CommandResult]]) -> dict[str, float]:
    good = [it for it in iterations if all(r.ok for r in it)] or iterations
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([sum(r.wall_s for r in it) for it in good]),
        "cpu_s": median([sum(r.cpu_s for r in it) for it in good]),
        "peak_rss_mb": median([max(r.rss_mb for r in it) for it in good]),
    }
    for command in w.timed:
        metrics[COMMAND_METRICS[command]] = median(
            [r.wall_s for it in good for r in it if r.command == command])
    if "train" in w.timed:
        metrics["train_windows_per_s"] = (
            w.members * inputs.train_windows(w.window) * w.epochs
            / metrics["train_s"])
    attempted = sum(len(it) for it in iterations)
    metrics["error_rate"] = sum(not r.ok for it in iterations
                                for r in it) / attempted
    return metrics


def per_layer(trace_dir: Path, commands: tuple[str, ...]) -> tuple[dict, list, list]:
    """Per-layer metrics from one traced iteration's span files ->
    (metrics, absent functions, functions never called)."""
    inclusive: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    imports, absent = [], set()
    for command in commands:
        path = trace_dir / f"{command}.json"
        if not path.is_file():      # the command died before its spans
            continue                # were written; it counts as failed
        data = json.loads(path.read_text())
        imports.append(data["import_s"])
        absent.update(data["absent"])
        absent.update(data["counter_errors"])
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            inclusive.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)

    metrics = {"cli.import_s": median(imports) if imports else 0.0}
    missing, idle = [], []
    for name, _ in PER_LAYER:
        if name in metrics or name == "trace.overhead_s":
            continue
        fn, stat = name.rsplit(".", 1)
        if fn in absent or name in absent:
            missing.append(name)
            metrics[name] = 0.0
            continue
        calls = inclusive.get(fn, [])
        if not calls:
            idle.append(name)
        total = sum(calls)
        if stat == "s":
            value = total
        elif stat == "self_s":
            value = self_s.get(fn, 0.0)
        elif stat == "calls":
            value = len(calls)
        elif stat == "ms_p50":
            value = 1e3 * median(calls) if calls else 0.0
        elif stat == "gflops":    # computed flops / measured seconds
            value = counters.get(name, 0.0) / total / 1e9 if total else 0.0
        elif stat == "clipped_ratio":
            value = counters.get(name, 0) / len(calls) if calls else 0.0
        else:
            value = counters.get(name, 0)
        metrics[name] = float(value)
    return metrics, missing, idle


def blas_info() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "lib*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def cpu_quota() -> str:
    """The cgroup CPU limit, read-only: v2 cpu.max or v1 cfs quota/period."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.is_file():
        return v2.read_text().strip()
    v1 = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    if v1.is_file():
        period = v1.with_name("cpu.cfs_period_us").read_text().strip()
        return f"{v1.read_text().strip()} {period}"
    return "unknown"


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cpu_quota(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def record_digest(key: str, value: str) -> str | None:
    """Store this run's digest; return the earlier one if it differed."""
    known = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    previous = known.get(key)
    known[key] = value
    DIGESTS.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return previous if previous not in (None, value) else None


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run -> result dict (see the module docstring)."""
    # compile and cache the package's bytecode before anything is timed
    WORK.mkdir(exist_ok=True)
    warm = run_child([sys.executable, "-c", "import rulens.cli"], ROOT,
                     WORK / "warmup.log")
    if warm[3] != 0:
        raise SystemExit("cannot import rulens.cli from src/")

    setups = []
    while len(setups) < setup_repeats or sum(setups) < SETUP_MIN_S:
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        inputs = setup(w, seed, work)
        setups.append(time.perf_counter() - start)

    check = Checker(w, inputs)
    iterations: list[list[CommandResult]] = []
    digests: list[str] = []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        iterations.append(iteration(w, check, work))
        digests.append(digest(work, w))
    e2e = end_to_end(w, inputs, setups, iterations)
    results = [r for it in iterations for r in it]

    layers, missing, idle = {}, [], []
    if trace:
        runs, totals = [], []
        for k in range(TRACE_REPEATS):
            trace_dir = work / "trace" / str(k)
            trace_dir.mkdir(parents=True)
            traced = iteration(w, check, work, trace_dir)
            results += traced
            digests.append(digest(work, w))
            totals.append(sum(r.wall_s for r in traced if r.command in w.timed))
            runs.append(per_layer(trace_dir, traced_commands(w)))
        layers = {name: median([r[0][name] for r in runs]) for name in runs[0][0]}
        missing, idle = runs[0][1], runs[0][2]
        layers["trace.overhead_s"] = median(totals) - e2e["wall_s"]

    deterministic = len(set(digests)) == 1
    changed_from = record_digest(f"{w.name}:{seed}", digests[0])
    failed = sum(not r.ok for r in results)
    return {
        "workload": w.name, "seed": seed, "iterations": len(iterations),
        "end_to_end": e2e, "per_layer": layers,
        "absent": missing, "not_called": idle,
        "digest": digests[0], "deterministic": deterministic,
        "digest_changed_from": changed_from,
        "errors": [f"{r.command}: {r.error}" for r in results if not r.ok],
        "attempted": len(results), "failed": failed,
        "correct": failed == 0 and deterministic,
        "environment": environment(),
    }


def report(result: dict, trace: bool) -> dict:
    """Print the readable lines; return the final JSON object."""
    w = result["workload"]
    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"workload {w}, seed {result['seed']}: {result['iterations']} "
          f"timed iterations, {result['attempted']} commands attempted, "
          f"{result['failed']} failed")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<22} {value:>14.6g} {METRIC_UNITS[name]}")
    if trace:
        for name, unit in PER_LAYER:
            note = (" (absent)" if name in result["absent"]
                    else " (not called)" if name in result["not_called"] else "")
            print(f"  {name:<50} {result['per_layer'][name]:>14.6g} {unit}{note}")
        print(f"  tracing overhead: {result['per_layer']['trace.overhead_s']:.3f} s "
              f"over the untraced median wall_s")
    print(f"artifact sha256 {result['digest']} "
          f"({'identical' if result['deterministic'] else 'DIFFERS'} across iterations)")
    if result["digest_changed_from"]:
        print(f"note: digest changed since the last run of this workload and "
              f"seed in this checkout (was {result['digest_changed_from']})")
    for err in result["errors"]:
        print(f"error: {err}")
    if trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rulens" / "cli.py").is_file():
        print(f"error: no rulens sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = WORK / w.name
    try:
        result = run(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
