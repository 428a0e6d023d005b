#!/usr/bin/env python3
"""End-to-end FD001 experiment: ingest, train, evaluate, uncertainty, trace.

Runs the CLI commands in sequence against one config and stops at the first
failure, propagating its exit code. With --preset desk this is a sub-hour
smoke reproduction (5 members, 30 epochs); without it the full 15-member
profile runs for hours. If test_FD002.txt / test_FD003.txt sit next to the
FD001 files, the cross-dataset uncertainty comparison is included.
"""

import argparse
import time
from pathlib import Path

import yaml

from rulens.cli import main as rulens_main


def _step(name: str, argv: list[str]) -> None:
    print(f"\n=== {name}: rulens {' '.join(argv)}")
    start = time.monotonic()
    rc = rulens_main(argv)
    print(f"=== {name} finished in {time.monotonic() - start:.1f}s (rc={rc})")
    if rc != 0:
        raise SystemExit(rc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="configs/fd001.yaml")
    ap.add_argument("--preset", default="",
                    help="config preset, e.g. 'desk' for the reduced profile")
    existing = ap.add_mutually_exclusive_group()
    existing.add_argument("--force", action="store_true",
                          help="overwrite the existing archive and checkpoint")
    existing.add_argument("--resume", action="store_true",
                          help="re-ingest (deterministic, same fingerprint) "
                               "and reuse finished member checkpoints")
    ap.add_argument("--trace-unit", type=int, default=34,
                    help="test unit for the per-cycle prediction trace")
    args = ap.parse_args(argv)

    cfg = yaml.safe_load(Path(args.config).read_text())
    run_dir = Path(cfg["output_dir"])
    test_file = Path(cfg["data"]["test_file"])
    shared = ["--config", args.config]
    if args.preset:
        shared += ["--preset", args.preset]
    ingest_flags = ["--force"] if args.force or args.resume else []
    train_flags = (["--force"] if args.force else
                   ["--resume"] if args.resume else [])

    _step("ingest", ["ingest", *shared, *ingest_flags])
    _step("train", ["train", *shared, *train_flags,
                    "--archive", str(run_dir / "archive")])
    _step("evaluate", ["evaluate", *shared,
                       "--checkpoint", str(run_dir / "checkpoint"),
                       "--archive", str(run_dir / "archive"),
                       "--per-unit"])

    # sibling datasets share the column layout, so the trained stats apply
    tests = [f"fd001={test_file}"]
    for sibling in ("FD002", "FD003"):
        cand = test_file.parent / f"test_{sibling}.txt"
        if cand.is_file():
            tests.append(f"{sibling.lower()}={cand}")
        else:
            print(f"note: {cand} not found; skipping {sibling} comparison")
    unc = ["uncertainty", *shared,
           "--checkpoint", str(run_dir / "checkpoint")]
    for spec in tests:
        unc += ["--test", spec]
    _step("uncertainty", unc)

    _step("predict", ["predict", *shared,
                      "--checkpoint", str(run_dir / "checkpoint"),
                      "--archive", str(run_dir / "archive"),
                      "--unit", str(args.trace_unit)])

    print(f"\nall artifacts under {run_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
