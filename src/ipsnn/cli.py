"""Command-line entry point: train, analyze, selftest.

`train` runs the sequential-task paradigm from a JSON config file and
leaves a self-validating run directory (metrics.csv, events.log,
checkpoints/, recordings/, config copy, manifest). `analyze` post-processes
a finished run directory into plot-ready CSV tables and tensor containers.
`selftest` exercises the built-in verification suites.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from . import analysis, manifest, modularity, tensorio, verification
from .harness import ExperimentConfig, run_family, state_from_checkpoint
from .plasticity import FAMILIES
from .tasks import PeriodSchedule, generate_task

REQUIRED_CONFIG_KEYS = ("family", "convergence_threshold")
# settings that no longer exist; run directories written before their
# removal hold them at their only supported value, false
RETIRED_CONFIG_KEYS = ("noise_scaled_by_leak", "reset_passthrough")


class ConfigError(Exception):
    pass


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in REQUIRED_CONFIG_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required config key: {key}")
    for key in RETIRED_CONFIG_KEYS:
        if raw.pop(key, False) is not False:
            raise ConfigError(f"retired config key {key} must be false or absent")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    if "mask_override" in merged and merged["mask_override"] is not None:
        merged["mask_override"] = tuple(merged["mask_override"])
    try:
        return ExperimentConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _default_run_dir(config: ExperimentConfig) -> str:
    root = os.environ.get("IPSNN_OUT_ROOT", "runs")
    name = f"{config.family.lower()}-{config.variant}-{config.seed}"
    return os.path.join(root, name)


def _execute_run(config: ExperimentConfig, run_dir: str,
                 verbose: bool = False) -> tuple[int, str]:
    os.makedirs(run_dir, exist_ok=True)
    config.output_dir = run_dir
    # keep the exact resolved configuration next to the artifacts
    with open(os.path.join(run_dir, manifest.CONFIG_COPY_NAME), "w") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        metrics, run = run_family(config, log_fn=print if verbose else None)
    except Exception as exc:  # surface IO/numeric aborts with context
        return 1, f"run aborted: {exc}"
    finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest.write_manifest(
        run_dir, seeds={"experiment": config.seed}, started=started,
        finished=finished,
        extra={"family": config.family, "variant": config.variant,
               "mask": list(run.mask_bits),
               "tasks_run": len(run.outcomes),
               "failure_count": metrics.failure_count,
               "early_stopped": run.early_stopped})
    return 0, (f"run complete: {len(run.outcomes)} tasks, "
               f"{metrics.failure_count} failures -> {run_dir}")


def _seed_job(args):
    config, run_dir = args
    return _execute_run(config, run_dir)


def cmd_train(args) -> int:
    overrides = {"family": args.family, "variant": args.variant,
                 "seed": args.seed}
    try:
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seeds = None
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            print("error: --seeds must be a comma-separated integer list",
                  file=sys.stderr)
            return 2
    if args.dry_run:
        print(f"config ok: family={config.family} variant={config.variant} "
              f"seed={config.seed} n_tasks={config.n_tasks} "
              f"threshold={config.threshold}"
              + (f" seeds={seeds}" if seeds else ""))
        return 0
    if seeds is None:
        run_dir = args.out or config.output_dir or _default_run_dir(config)
        code, message = _execute_run(config, run_dir, verbose=args.verbose)
        print(message, file=sys.stderr if code else sys.stdout)
        return code
    # one independent, isolated run per seed through a bounded pool
    root = args.out or config.output_dir or _default_run_dir(config)
    jobs = []
    for seed in seeds:
        cfg = replace(config, seed=seed, output_dir=None)
        jobs.append((cfg, os.path.join(root, f"seed-{seed}")))
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_seed_job, jobs))
    else:
        results = [_seed_job(j) for j in jobs]
    worst = 0
    for (cfg, run_dir), (code, message) in zip(jobs, results):
        print(f"[seed {cfg.seed}] {message}",
              file=sys.stderr if code else sys.stdout)
        worst = max(worst, code)
    return worst


def _run_config(run_dir: str) -> ExperimentConfig:
    return load_config(os.path.join(run_dir, manifest.CONFIG_COPY_NAME))


def _config_hash(run_dir: str) -> str:
    return manifest.sha256_file(os.path.join(run_dir, manifest.CONFIG_COPY_NAME))


def _recording_paths(run_dir: str) -> list[tuple[int, str]]:
    rec_dir = os.path.join(run_dir, "recordings")
    if not os.path.isdir(rec_dir):
        return []
    out = []
    for name in sorted(os.listdir(rec_dir)):
        if name.startswith("task_") and name.endswith(".rec"):
            out.append((int(name[5:-4]), os.path.join(rec_dir, name)))
    return out


def _require_recordings(run_dir: str) -> list[tuple[int, str]]:
    recs = _recording_paths(run_dir)
    if not recs:
        raise FileNotFoundError(
            f"no recordings under {run_dir}/recordings; "
            "re-run training with record_every >= 1")
    return recs


def _write_csv(path: str, header: list[str], rows, config_hash: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_sha256={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_analyze(args) -> int:
    run_dir = args.run
    try:
        cfg_hash = _config_hash(run_dir)
        if args.what == "stats":
            return _analyze_stats(run_dir, cfg_hash)
        if args.what == "modularity":
            return _analyze_modularity(run_dir, cfg_hash, args)
        if args.what == "pca":
            return _analyze_pca(run_dir, cfg_hash, args)
        if args.what == "lesion":
            return _analyze_lesion(run_dir, cfg_hash, args)
    except (FileNotFoundError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def _analyze_stats(run_dir: str, cfg_hash: str) -> int:
    rows = []
    for task_index, path in _require_recordings(run_dir):
        trials, _ = tensorio.load_recording(path)
        stats = analysis.membrane_stats([t["v"] for t in trials], task_index)
        rows.append([task_index, repr(stats.v_mean), repr(stats.v_var),
                     repr(stats.corr_mean), repr(stats.corr_var),
                     stats.excluded_pairs])
    out = os.path.join(run_dir, "stats.csv")
    _write_csv(out, ["task_index", "v_mean", "v_var", "corr_mean", "corr_var",
                     "excluded_pairs"], rows, cfg_hash)
    print(f"wrote {out} ({len(rows)} tasks)")
    return 0


def _analyze_modularity(run_dir: str, cfg_hash: str, args) -> int:
    rows = []
    allegiance_tensors = {}
    for task_index, path in _require_recordings(run_dir):
        trials, _ = tensorio.load_recording(path)
        v = np.concatenate([t["v"] for t in trials], axis=0)
        net = modularity.build_layers(v, args.window, args.stride,
                                      gamma=args.gamma, coupling=args.coupling)
        assignment = modularity.louvain_optimize(net, seed=args.seed,
                                                 restarts=args.restarts)
        report = modularity.modularity_report(net, assignment)
        rows.append([task_index, repr(report.q),
                     repr(report.mean_communities),
                     repr(report.mean_stationarity), net.n_layers])
        allegiance_tensors[f"task_{task_index:06d}"] = report.allegiance
    out = os.path.join(run_dir, "modularity.csv")
    _write_csv(out, ["task_index", "q", "mean_communities",
                     "mean_stationarity", "n_layers"], rows, cfg_hash)
    tens = os.path.join(run_dir, "allegiance.tens")
    tensorio.save_tensors(tens, allegiance_tensors,
                          {"kind": "allegiance", "config_sha256": cfg_hash,
                           "window": args.window, "stride": args.stride})
    print(f"wrote {out} and {tens} ({len(rows)} tasks)")
    return 0


def _analyze_pca(run_dir: str, cfg_hash: str, args) -> int:
    config = _run_config(run_dir)
    schedule = PeriodSchedule.from_dt(config.dt_ms)
    task_indices, task_traces = [], []
    for task_index, path in _require_recordings(run_dir):
        trials, _ = tensorio.load_recording(path)
        task_indices.append(task_index)
        task_traces.append([t["trace"] for t in trials])
    emb = analysis.pca_delay(task_traces, schedule, n_components=args.components)
    rows = []
    for i, task_index in enumerate(task_indices):
        coords = [repr(c) for c in emb.task_coords[i]]
        step = repr(float(emb.step_sizes[i - 1])) if i > 0 else ""
        rows.append([task_index] + coords + [step])
    out = os.path.join(run_dir, "pca.csv")
    header = (["task_index"]
              + [f"pc{j + 1}" for j in range(emb.task_coords.shape[1])]
              + ["step_from_previous"])
    _write_csv(out, header, rows, cfg_hash)
    tens = os.path.join(run_dir, "pca_basis.tens")
    tensorio.save_tensors(
        tens, {"basis": emb.basis, "mean": emb.mean,
               "explained_variance": emb.explained_variance},
        {"kind": "pca", "config_sha256": cfg_hash,
         "median_step_size": emb.median_step_size,
         "ensemble_variance": emb.ensemble_variance})
    print(f"wrote {out} and {tens}: median step {emb.median_step_size:.4g}, "
          f"ensemble variance {emb.ensemble_variance:.4g}")
    return 0


def _analyze_lesion(run_dir: str, cfg_hash: str, args) -> int:
    config = _run_config(run_dir)
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    if not os.path.isdir(ckpt_dir):
        raise FileNotFoundError(f"no checkpoints under {run_dir}")
    indexed = sorted((int(n[5:-5]), n) for n in os.listdir(ckpt_dir)
                     if n.startswith("task_") and n.endswith(".ckpt"))
    if len(indexed) < 2:
        raise FileNotFoundError(
            "lesion analysis needs checkpoints for the last two tasks")
    # penultimate boundary: properties from task K-2, next task is K-1
    extract_index = indexed[-2][0]
    state = state_from_checkpoint(
        os.path.join(ckpt_dir, indexed[-2][1]), config)
    current_task = generate_task(config.family, extract_index, config.seed,
                                 config.dt_ms)
    next_task = generate_task(config.family, extract_index + 1, config.seed,
                              config.dt_ms)
    properties = args.property.split(",") if args.property else None
    if properties is None:
        properties = ["tau_d", "tau_s", "theta"]
        if config.n_dendrites == 0:
            properties.remove("tau_d")
    rows = []
    for prop in properties:
        bins = analysis.bin_neurons(state.configured.props, prop)
        report = analysis.lesion_eval(state, bins, current_task, next_task,
                                      config)
        for b in range(analysis.N_BINS):
            rows.append([prop, b, int(report.bin_sizes[b]),
                         repr(float(report.current_task_loss[b])),
                         int(report.next_task_iterations[b]),
                         repr(report.baseline_loss),
                         report.baseline_iterations,
                         int(bins.degenerate)])
    out = os.path.join(run_dir, "lesion.csv")
    _write_csv(out, ["property", "bin", "bin_size", "current_task_loss",
                     "next_task_iterations", "baseline_loss",
                     "baseline_iterations", "degenerate"], rows, cfg_hash)
    print(f"wrote {out} (extracted at task {extract_index})")
    return 0


def cmd_selftest(args) -> int:
    failed_names = []

    def report(line: str) -> None:
        print(line)
        if line.startswith("FAIL"):
            failed_names.append(line.split()[1].rstrip(":"))

    ok = verification.run_selftest(fast=args.fast, report=report)
    if not ok:
        print(f"selftest failed: {', '.join(failed_names)}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipsnn",
        description="Spiking networks with gated intrinsic plasticity: "
                    "train, analyze, selftest.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the sequential-task paradigm")
    p_train.add_argument("--config", required=True, help="JSON config file")
    p_train.add_argument("--family", choices=list(FAMILIES))
    p_train.add_argument("--variant", choices=["ip2", "vanilla", "random-mask"])
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--out", help="run directory (default runs/<name>)")
    p_train.add_argument("--dry-run", action="store_true",
                         help="validate the config and exit")
    p_train.add_argument("--seeds",
                         help="comma-separated seed list: one isolated run "
                              "per seed under <out>/seed-<s>")
    p_train.add_argument("--workers", type=int, default=1,
                         help="bounded worker pool for --seeds runs")
    p_train.add_argument("--verbose", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_an = sub.add_parser("analyze", help="post-process a finished run")
    p_an.add_argument("what", choices=["lesion", "stats", "modularity", "pca"])
    p_an.add_argument("--run", required=True, help="run directory")
    p_an.add_argument("--window", type=int, default=50)
    p_an.add_argument("--stride", type=int, default=50)
    p_an.add_argument("--gamma", type=float, default=1.0)
    p_an.add_argument("--coupling", type=float, default=1.0)
    p_an.add_argument("--restarts", type=int, default=16)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--components", type=int, default=2)
    p_an.add_argument("--property",
                      help="comma-separated property ids for lesion analysis")
    p_an.set_defaults(func=cmd_analyze)

    p_self = sub.add_parser("selftest", help="run the verification suites")
    p_self.add_argument("--fast", action="store_true",
                        help="skip Monte-Carlo checks")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
