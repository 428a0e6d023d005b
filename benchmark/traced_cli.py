"""Run one ``rulens`` CLI command in-process with spans around the public
functions of each module, then write the spans out.

    python3 traced_cli.py SPANS_JSON -- <rulens arguments>

Each traced function is wrapped once and the wrapper is rebound in every
loaded ``rulens`` module that holds the function by name, so calls made
through ``cli``'s imports, through another module's imports and from
inside the defining module all pass through it. Spans (name, start, end,
parent) and a few counts stay in memory until the command returns. A
traced function that no longer exists is listed as absent instead of
failing the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# module -> public functions whose calls are timed
TRACED = {
    "cmapss": ("parse_cmapss", "prepare_split", "save_archive", "load_archive"),
    "network": ("train_pnn", "grad", "adam_step", "clip_global_norm"),
    "ensemble": ("predict_ensemble", "dataset_uncertainty_profile",
                 "decompose_uncertainty", "aggregate"),
    "metrics": ("unit_predictions", "report_from_predictions",
                "interval_bounds", "kde"),
    "checkpoints": ("save_member", "load_member", "load_ensemble",
                    "write_ensemble_manifest"),
    "cli": ("cmd_ingest", "cmd_train", "cmd_evaluate", "cmd_uncertainty",
            "cmd_predict"),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def grad_flops(args, kwargs, result) -> float:
    """Matmul flops of one grad call, computed from the shapes: the LSTM
    and dense forward products, and twice as many in the backward pass."""
    params = _arg(args, kwargs, 0, "params")
    batch, steps, width = _arg(args, kwargs, 1, "inputs").shape
    forward = 0
    for hidden in params.arch.recurrent_layers:
        forward += 2 * batch * steps * (width + hidden) * 4 * hidden
        width = hidden
    for out in params.arch.dense_layers:
        forward += 2 * batch * steps * width * out
        width = out
    return 3.0 * forward


def parsed_rows(args, kwargs, result) -> int:
    return sum(len(unit) for unit in result)


def archive_windows(args, kwargs, result) -> int:
    return len(result[0].train_windows)


def clipped(args, kwargs, result) -> int:
    max_norm = _arg(args, kwargs, 1, "max_norm")
    return int(max_norm > 0 and result[1] > max_norm)


def units_skipped(args, kwargs, result) -> int:
    units = _arg(args, kwargs, 1, "units")
    return len(units) - len({row.unit_id for row in result})


def kde_values(args, kwargs, result) -> int:
    values = _arg(args, kwargs, 0, "values")
    return int(getattr(values, "size", len(values)))


def member_bytes(args, kwargs, result) -> int:
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# per-layer metric -> f(args, kwargs, result), summed over calls; the
# benchmark divides the gflops and clipped_ratio sums by time and calls
COUNTERS = {
    "cmapss.parse_cmapss.rows": parsed_rows,
    "cmapss.load_archive.windows": archive_windows,
    "network.grad.gflops": grad_flops,
    "network.clip_global_norm.clipped_ratio": clipped,
    "ensemble.dataset_uncertainty_profile.units_skipped": units_skipped,
    "metrics.kde.values": kde_values,
    "checkpoints.save_member.bytes": member_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}

    def wrap(self, name: str, fn):
        hooks = {key: hook for key, hook in COUNTERS.items()
                 if key.rsplit(".", 1)[0] == name}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            for key, hook in hooks.items():
                try:
                    self.counters[key] = (self.counters.get(key, 0)
                                          + hook(args, kwargs, result))
                except (AttributeError, TypeError, ValueError, KeyError,
                        IndexError, OSError) as exc:
                    self.counter_errors[key] = repr(exc)
            return result
        return traced

    def install(self, traced: dict = TRACED) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "rulens"
                                         or key.startswith("rulens."))]
        for mod_name, functions in traced.items():
            owner = sys.modules.get(f"rulens.{mod_name}")
            for fn_name in functions:
                name = f"{mod_name}.{fn_name}"
                original = getattr(owner, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    import rulens.cli
    for mod_name in TRACED:
        __import__(f"rulens.{mod_name}")
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = rulens.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "exit": code,
                       "spans": tracer.spans, "counters": tracer.counters,
                       "counter_errors": tracer.counter_errors,
                       "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
