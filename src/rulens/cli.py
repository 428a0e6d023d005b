"""Command-line front end: ingest, train, evaluate, uncertainty, predict.

One structured config file drives everything; a few flags override common
knobs. Every artifact embeds the resolved config and the fingerprints of
its inputs, and all files are written atomically (temp + rename) without
timestamps, so identical runs produce byte-identical outputs.

Exit codes: 0 success, 1 internal/numeric failure, 2 user/input error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

# A second OpenBLAS thread nearly doubled `train` CPU time at equal wall time
# (2 vCPU) and made gradient bits depend on the core count: one unless chosen.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import yaml

from . import cmapss
from .atomic import atomic_write
from .checkpoints import (load_ensemble, load_member, member_path,
                          member_provenance, save_member,
                          write_ensemble_manifest)
from .config import RunConfig, load_config
from .ensemble import (EnsembleModel, dataset_uncertainty_profile, read_out,
                       train_ensemble)
from .errors import DataIntegrityError, DivergenceError, RulensError
from .metrics import (interval_bounds, kde, report_from_predictions,
                      report_to_dict, report_to_text, unit_predictions)
from .network import Architecture

logger = logging.getLogger("rulens")

REPORT_VERSION = 1

USER_ERRORS = (FileNotFoundError, FileExistsError, NotADirectoryError,
               IsADirectoryError, PermissionError, ValueError, KeyError,
               yaml.YAMLError)


def _fmt(value) -> str:
    # shortest round-trip form; covers numpy scalars, whose repr is not bare
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def _write_tsv(path: Path, comments: list[str], header: list[str],
               rows) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append("\t".join(header))
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(args, config: RunConfig, default_leaf: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(config.output_dir) / default_leaf


def _load_run_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "members", None) is not None:
        overrides["ensemble"] = {"members": args.members}
    return load_config(args.config, preset=args.preset or None,
                       overrides=overrides or None)


def _require_file(path: str, what: str) -> Path:
    if not path:
        raise ValueError(f"config is missing the {what} path")
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _arch_for(config: RunConfig, n_features: int) -> Architecture:
    return Architecture(input_dim=n_features,
                        recurrent_layers=config.architecture.recurrent_layers,
                        dense_layers=config.architecture.dense_layers)


def cmd_ingest(args) -> int:
    config = _load_run_config(args)
    train_path = _require_file(config.data.train_file, "training data file")
    test_path = _require_file(config.data.test_file, "test data file")
    rul_path = None
    if config.data.rul_file:
        rul_path = _require_file(config.data.rul_file, "true-RUL file")

    train_units = cmapss.parse_cmapss(train_path)
    test_units = cmapss.parse_cmapss(test_path)
    if rul_path is not None:
        test_units = cmapss.load_true_rul(rul_path, test_units)
    else:
        logger.warning("no RUL file configured; the archive will not "
                       "support evaluation")
    split = cmapss.prepare_split(train_units, test_units, config.preprocessing)

    out = _out_dir(args, config, "archive")
    manifest = cmapss.save_archive(split, out, config.resolved(),
                                   force=args.force)
    print(f"{len(split.train_units)} train units, "
          f"{len(split.test_units)} test units")
    print(f"{manifest['n_train_windows']} training windows of length "
          f"{split.prep.window_length}, "
          f"{len(split.prep.norm_stats.feature_names)} features")
    print(f"archive written to {out} "
          f"(fingerprint {split.prep.fingerprint[:12]})")
    return 0


def _clear_checkpoint(ckpt_dir: Path) -> None:
    (ckpt_dir / "ensemble.json").unlink(missing_ok=True)
    for f in (ckpt_dir / "members").glob("member_*.ckpt"):
        f.unlink()


def cmd_train(args) -> int:
    """Train the members, or with --resume keep each finished one whose
    inputs are unchanged: the command decides which members train and
    writes each one's file as it comes back, in member order, then the
    ensemble manifest."""
    config = _load_run_config(args)
    split, _ = cmapss.load_archive(args.archive)
    prep = split.prep
    windows, targets = cmapss.build_windows(
        split.train_units, prep.window_length, prep.stride, prep.rul_cap)
    if not windows:
        raise ValueError("archive holds no training windows")
    arch = _arch_for(config, len(prep.norm_stats.feature_names))
    n_members = config.ensemble.members
    base_seed = config.ensemble.base_seed
    seeds = range(base_seed, base_seed + n_members)
    data_fingerprint = prep.fingerprint
    ckpt_dir = _out_dir(args, config, "checkpoint")

    if (ckpt_dir / "ensemble.json").exists() and not (args.force or args.resume):
        raise FileExistsError(
            f"checkpoint already exists at {ckpt_dir} "
            "(use --force to overwrite or --resume to keep finished members)")
    if args.force:
        _clear_checkpoint(ckpt_dir)

    print(f"training {n_members} members (seeds {base_seed}.."
          f"{base_seed + n_members - 1}) on {len(windows)} windows, "
          f"architecture {arch.to_dict()}")
    vectors = np.empty((n_members, arch.n_params()))

    def reuse(k: int, seed: int) -> bool:
        """Member k's finished vector into vectors, if everything that
        determined it is unchanged."""
        path = member_path(ckpt_dir, k)
        if not path.is_file():
            return False
        try:
            vector, manifest = load_member(path)
        except (DataIntegrityError, OSError) as exc:
            logger.warning("member %d: cannot resume (%s); retraining", k, exc)
            return False
        expected = member_provenance(seed, arch, config.training,
                                     data_fingerprint)
        stale = sorted(key for key, value in expected.items()
                       if manifest.get(key) != value)
        if stale:
            logger.warning("member %d: checkpoint differs in %s; retraining",
                           k, ", ".join(stale))
            return False
        print(f"member {k}: reusing finished checkpoint")
        vectors[k] = vector
        return True

    def save(k: int, vector, history) -> None:
        save_member(member_path(ckpt_dir, k), arch, seeds[k], vector,
                    history, config.training, data_fingerprint)
        vectors[k] = vector
        print(f"member {k}: best loss {history.best_loss:.5f} at epoch "
              f"{history.best_epoch}, stopped ({history.stop_reason}) "
              f"after {history.stop_epoch} epochs")

    jobs = [(k, seed) for k, seed in enumerate(seeds)
            if not (args.resume and reuse(k, seed))]
    train_ensemble(arch, (windows, targets), config.training, jobs, save)
    model = EnsembleModel(arch, vectors, seeds, base_seed, prep)
    fingerprint = write_ensemble_manifest(ckpt_dir, model, config.training,
                                          config.resolved())
    print(f"checkpoint written to {ckpt_dir} (fingerprint {fingerprint[:12]})")
    return 0


def _check_pairing(model: EnsembleModel, split: cmapss.DatasetSplit) -> None:
    trained_on, archive = model.prep.fingerprint, split.prep.fingerprint
    if trained_on != archive:
        raise DataIntegrityError(
            "checkpoint/archive mismatch: the checkpoint was trained on a "
            "different preprocessing pipeline than this archive "
            f"({trained_on[:12]} vs {archive[:12]})")


def cmd_evaluate(args) -> int:
    config = _load_run_config(args)
    model, ckpt_manifest = load_ensemble(args.checkpoint)
    split, _ = cmapss.load_archive(args.archive)
    _check_pairing(model, split)
    if not split.test_units:
        raise ValueError("archive holds no test units")
    if any(u.true_final_rul is None for u in split.test_units):
        raise ValueError("archive lacks true RUL values; re-ingest with the "
                         "RUL file configured")

    ev = config.evaluation
    unit_ids, cycles, targets, dec = unit_predictions(
        model, split.test_units, per_step=ev.per_window)
    lower, upper = interval_bounds(dec.mean, dec.variance, ev.alpha)
    report = report_from_predictions(dec.mean, targets, (lower, upper),
                                     ev.alpha, ev.score_convention)

    out = _out_dir(args, config, "reports")
    extra = {
        "n_members": len(model.vectors),
        "checkpoint_fingerprint": ckpt_manifest["fingerprint"],
        "archive_fingerprint": split.prep.fingerprint,
    }
    for key, value in sorted((ev.reference or {}).items()):
        extra[f"reference_{key}"] = value
    atomic_write(out / "report.txt", report_to_text(report, extra))
    _write_json(out / "report.json", {
        "format_version": REPORT_VERSION,
        "kind": "rulens-evaluation",
        "metrics": report_to_dict(report),
        "reference": ev.reference,
        "checkpoint_fingerprint": ckpt_manifest["fingerprint"],
        "archive_fingerprint": split.prep.fingerprint,
        "config": config.resolved(),
    })
    if args.per_unit:
        covered = (lower <= targets) & (targets <= upper)
        _write_tsv(
            out / "per_unit.tsv",
            [f"checkpoint_fingerprint {ckpt_manifest['fingerprint']}",
             f"config {config.resolved_json()}"],
            ["unit", "cycle", "true_rul", "mean", "sigma", "lower", "upper",
             "covered", "u_al", "u_ep", "u_tot"],
            zip(unit_ids, cycles, targets, dec.mean, np.sqrt(dec.variance),
                lower, upper, covered.astype(int),
                dec.aleatoric, dec.epistemic, dec.total))
    print(report_to_text(report).rstrip())
    print(f"report written to {out}")
    return 0


def _parse_named_paths(specs: list[str]) -> list[tuple[str, Path]]:
    named: dict[str, Path] = {}
    for spec in specs:
        name, sep, raw = spec.partition("=")
        if not sep or not name or not raw:
            raise ValueError(f"--test expects NAME=PATH, got {spec!r}")
        # NAME prefixes the output file names inside --out
        if name in (".", "..") or "/" in name or os.sep in name:
            raise ValueError(f"--test NAME must be a plain file-name part, "
                             f"got {name!r}")
        if name in named:
            raise ValueError(f"--test NAME {name!r} given twice")
        named[name] = _require_file(raw, f"test data file {name}")
    return list(named.items())


def cmd_uncertainty(args) -> int:
    config = _load_run_config(args)
    model, ckpt_manifest = load_ensemble(args.checkpoint)
    datasets = _parse_named_paths(args.test)
    out = _out_dir(args, config, "uncertainty")
    comments = [f"checkpoint_fingerprint {ckpt_manifest['fingerprint']}",
                f"config {config.resolved_json()}"]

    summary: dict[str, dict] = {}
    for name, path in datasets:
        units = model.prep.apply(cmapss.parse_cmapss(path))
        unit_ids, end_cycles, dec = dataset_uncertainty_profile(
            model, units, per_window=args.per_window)
        if not unit_ids.size:
            raise ValueError(f"dataset {name}: no uncertainty readings "
                             "(all units shorter than one window?)")
        _write_tsv(out / f"{name}_uncertainty.tsv", comments,
                   ["unit", "end_cycle", "u_al", "u_ep", "u_tot"],
                   zip(unit_ids, end_cycles, dec.aleatoric, dec.epistemic,
                       dec.total))
        for kind in ("aleatoric", "epistemic"):
            try:
                curve = kde(getattr(dec, kind))
            except ValueError as exc:
                logger.warning("%s %s: skipping density curve (%s)",
                               name, kind, exc)
                continue
            _write_tsv(out / f"{name}_{kind}_density.tsv",
                       comments + [f"bandwidth {curve.bandwidth!r}"],
                       ["grid", "density"],
                       zip(curve.grid, curve.density))
        summary[name] = {
            "n": unit_ids.size,
            "mean_aleatoric": float(np.mean(dec.aleatoric)),
            "mean_epistemic": float(np.mean(dec.epistemic)),
            "mean_total": float(np.mean(dec.total)),
        }
        print(f"{name}: n={summary[name]['n']} "
              f"mean u_al={summary[name]['mean_aleatoric']:.4f} "
              f"mean u_ep={summary[name]['mean_epistemic']:.4f}")

    payload = {
        "format_version": REPORT_VERSION,
        "kind": "rulens-uncertainty",
        "datasets": summary,
        "checkpoint_fingerprint": ckpt_manifest["fingerprint"],
        "config": config.resolved(),
        "per_window": bool(args.per_window),
    }
    if len(summary) >= 2:
        ordered = sorted(summary, key=lambda n: summary[n]["mean_epistemic"],
                         reverse=True)
        lowest = ordered[-1]
        gaps = {name: summary[name]["mean_epistemic"]
                - summary[lowest]["mean_epistemic"] for name in ordered}
        payload["epistemic_ordering"] = ordered
        payload["epistemic_gaps_vs_lowest"] = gaps
        print("epistemic ordering: " + " > ".join(ordered))
        for name in ordered[:-1]:
            print(f"  mean u_ep gap {name} - {lowest}: {gaps[name]:.4f}")
    _write_json(out / "summary.json", payload)
    print(f"uncertainty outputs written to {out}")
    return 0


def cmd_predict(args) -> int:
    config = _load_run_config(args)
    model, ckpt_manifest = load_ensemble(args.checkpoint)
    split, _ = cmapss.load_archive(args.archive)
    _check_pairing(model, split)
    units = split.test_units if args.split == "test" else split.train_units
    by_id = {u.unit_id: u for u in units}
    if args.unit not in by_id:
        raise ValueError(f"unit {args.unit} not in the {args.split} split; "
                         f"available ids: {sorted(by_id)}")
    unit = by_id[args.unit]

    _, _, dec = read_out(model, [unit], [np.arange(len(unit))])
    sigma = np.sqrt(dec.variance)
    lower, upper = interval_bounds(dec.mean, dec.variance,
                                   config.evaluation.alpha)
    if args.split == "test" and unit.true_final_rul is None:
        target = np.full(len(unit.cycles), np.nan)
    else:
        target = cmapss.make_rul_targets(unit, split.prep.rul_cap)

    out = _out_dir(args, config, "traces")
    trace_path = out / f"{args.split}_unit_{args.unit}.tsv"
    _write_tsv(
        trace_path,
        [f"checkpoint_fingerprint {ckpt_manifest['fingerprint']}",
         f"alpha {config.evaluation.alpha!r}",
         f"config {config.resolved_json()}"],
        ["step", "target", "mean", "sigma", "lower", "upper"],
        zip(unit.cycles, target, dec.mean, sigma, lower, upper))
    print(f"trace with {len(unit.cycles)} steps written to {trace_path}")
    print(f"last step: mean {dec.mean[-1]:.2f}, sigma {sigma[-1]:.2f}, "
          f"interval [{lower[-1]:.2f}, {upper[-1]:.2f}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="path to the YAML config file")
    shared.add_argument("--preset", default="",
                        help="named config preset (e.g. 'desk' for a "
                             "reduced-scale smoke profile)")
    shared.add_argument("--out", help="output directory (overrides the "
                                      "config's output_dir layout)")
    shared.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="rulens",
        description="Ensembles of probabilistic LSTM networks for remaining "
                    "useful life prediction with decomposed uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[shared],
                       help="parse, normalize and window the raw data files")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing archive")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", parents=[shared],
                       help="train the ensemble on an ingested archive")
    p.add_argument("--archive", required=True, help="ingested dataset archive")
    p.add_argument("--members", type=int,
                   help="override the number of ensemble members")
    existing = p.add_mutually_exclusive_group()
    existing.add_argument("--force", action="store_true",
                          help="clear an existing checkpoint and retrain "
                               "every member")
    existing.add_argument("--resume", action="store_true",
                          help="keep finished members whose inputs are "
                               "unchanged")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[shared],
                       help="compute RMSE/score/PICP/NMPIW on the test split")
    p.add_argument("--checkpoint", required=True, help="ensemble checkpoint")
    p.add_argument("--archive", required=True, help="ingested dataset archive")
    p.add_argument("--per-unit", action="store_true",
                   help="also write the per-unit prediction table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("uncertainty", parents=[shared],
                       help="uncertainty profiles and density curves for "
                            "raw test files, normalized with the "
                            "checkpoint's training stats")
    p.add_argument("--checkpoint", required=True, help="ensemble checkpoint")
    p.add_argument("--test", action="append", required=True,
                   metavar="NAME=PATH",
                   help="raw test data file, repeatable")
    p.add_argument("--per-window", action="store_true",
                   help="one reading per sliding window instead of one per unit")
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("predict", parents=[shared],
                       help="per-time-step prediction trace for one unit")
    p.add_argument("--checkpoint", required=True, help="ensemble checkpoint")
    p.add_argument("--archive", required=True, help="ingested dataset archive")
    p.add_argument("--unit", type=int, required=True, help="unit id")
    p.add_argument("--split", choices=("test", "train"), default="test")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except RulensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
