"""Pinned-budget benchmark of ipsnn training and run analyses.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One workload per call, in one process, through
the program's public entry point ``ipsnn.cli.main``, in cycles that fill the
seconds: a few train rounds (one ``ipsnn train`` call each), then one
analyze round (``ipsnn analyze modularity``, ``lesion``, ``stats``, ``pca`` on
the last train round's run directory). Every round repeats the same seeded
config, so rounds are identical work; each timing reported is the best round
of the run. ``--trace 1`` wraps the program's public functions
and reports per-layer figures instead of the end-to-end ones. The last line
of standard output is the JSON result; see README.md in this directory.
"""

import time

# Interpreter start-up is CPU-bound, so the CPU time spent before this line
# dates the process start; set-up time is measured from there.
_PROCESS_START = time.perf_counter() - time.process_time()

import os

if __name__ == "__main__":
    # One BLAS thread: on a two-core machine a second thread's busy-wait
    # slows the interpreter thread that drives every timestep.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, "work")
# the program under test is this checkout's source tree, not an installed copy
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))

# importing numpy and ipsnn is part of the cold set-up
import checks
from ipsnn import cli
from tracing import Tracer
from workloads import (ANALYSES, FAMILY_MASK, WORKLOADS, expected_analyze_counts,
                       expected_train_counts)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quiet(fn, *args):
    """Call into the program with its progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


class Bench:
    def __init__(self, workload, seed: int, seconds: float, work: str, tracer):
        self.w = workload
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(workload.train_config(seed), fh)
        self.attempted = 0
        self.failed = 0
        self.samples = {"train_iter_per_s": [], "run_dir_mb": [],
                        "analyze_modularity_s": [], "analyze_lesion_s": []}
        self.metrics_csv = []  # metrics.csv bytes of every train round
        self.run_dir = None
        self.nonempty_bins = None
        self.peak_rss_mb = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def train_round(self) -> None:
        run_dir = os.path.join(self.work, f"train-{len(self.samples['run_dir_mb'])}")
        with self.span("bench.train_round"):
            t0 = time.perf_counter()
            code = quiet(cli.main, ["train", "--config", self.config_path,
                                    "--out", run_dir])
            elapsed = time.perf_counter() - t0
        self.samples["train_iter_per_s"].append(self.w.n_tasks * self.w.iters / elapsed)
        self.samples["run_dir_mb"].append(dir_bytes(run_dir) / 1e6)
        self.attempted += self.w.n_tasks
        csv_path = os.path.join(run_dir, "metrics.csv")
        if code != 0 or not os.path.exists(csv_path):
            self.failed += self.w.n_tasks
        else:
            finite = sum(math.isfinite(x) for x in checks.final_losses(run_dir))
            self.failed += self.w.n_tasks - finite
            with open(csv_path, "rb") as fh:
                self.metrics_csv.append(fh.read())
        if self.run_dir:
            shutil.rmtree(self.run_dir)
        self.run_dir = run_dir

    def analyze_round(self) -> None:
        w, run = self.w, self.run_dir
        first = not self.samples["analyze_lesion_s"]
        with self.span("bench.analyze_round"):
            for what in ANALYSES:
                t0 = time.perf_counter()
                code = quiet(cli.main, ["analyze", what, "--run", run]
                             + w.analyze_flags.get(what, []))
                elapsed = time.perf_counter() - t0
                if what == "lesion":
                    self.samples["analyze_lesion_s"].append(elapsed)
                    ops = len(w.lesion_properties()) * 11
                    if code == 0:
                        rows = checks.read_csv(os.path.join(run, "lesion.csv"))
                        self.nonempty_bins = {p: sum(int(r["bin_size"]) > 0 for r in rows
                                                     if r["property"] == p)
                                              for p in w.lesion_properties()}
                        ops = sum(1 + n for n in self.nonempty_bins.values())
                        bad = sum(not math.isfinite(float(r["current_task_loss"]))
                                  for r in rows if int(r["bin_size"]) > 0)
                        self.failed += bad
                else:
                    ops = w.n_tasks  # one per recorded task
                    if what == "modularity":
                        self.samples["analyze_modularity_s"].append(elapsed)
                self.attempted += ops
                if code != 0:
                    self.failed += ops
        if first:
            # later rounds can raise the peak through heap fragmentation alone
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def run(self) -> None:
        """Whole cycles: two, then none that would likely end past the
        deadline, so a run lasts about its seconds. Interleaving spreads each
        metric's rounds over the whole run, so a slow spell of the machine
        does not hold all of one metric's rounds."""
        deadline = time.perf_counter() + self.seconds
        for done in itertools.count(1):
            t0 = time.perf_counter()
            for _ in range(self.w.train_rounds):
                self.train_round()
            self.analyze_round()
            now = time.perf_counter()
            if done >= 2 and now + (now - t0) > deadline:
                return


def run_checks(bench, config) -> dict:
    """Every correctness check on the last round's run directory."""
    w, run = bench.w, bench.run_dir
    todo = {
        "rounds_reproduce_metrics_csv": lambda: (
            [] if len(set(bench.metrics_csv)) == 1
            else ["train rounds wrote different metrics.csv"]),
        "forward_replay": lambda: checks.replay_dir(run, config),
        "gradient_fd": lambda: checks.check_gradient(
            *checks.directional_derivatives(run, config)),
        "plasticity_invariants": lambda: checks.plasticity_dir(
            run, config, FAMILY_MASK[w.family]),
        "l2l_trend": lambda: checks.check_l2l_trend(checks.final_losses(run)),
        "modularity": lambda: checks.modularity_dir(
            run, *(w.flag("modularity", f"--{name}", default) for name, default in
                   (("window", 50), ("stride", 50), ("gamma", 1.0), ("coupling", 1.0)))),
        "lesion": lambda: checks.check_lesion(
            checks.read_csv(os.path.join(run, "lesion.csv")), w.n_neurons),
        "pca": lambda: checks.pca_dir(run, config),
    }
    results = {}
    for name, check in todo.items():
        try:
            results[name] = check()
        except Exception as exc:  # a check that cannot run has failed
            results[name] = [f"{type(exc).__name__}: {exc}"]
    return results


def count_check(bench, tracer) -> tuple[list[str], dict]:
    """Traced counts of every round against the counts the workload's config
    implies. Also returns the per-layer figures: the median train round plus
    the median analyze round."""
    problems = []
    if bench.nonempty_bins is None:
        problems.append("no lesion.csv, so the analyze rounds' counts are unknown")
    layer = {}
    for kind, expected in (
            ("bench.train_round", expected_train_counts(bench.w)),
            ("bench.analyze_round", {} if bench.nonempty_bins is None else
             expected_analyze_counts(bench.w, bench.nonempty_bins))):
        per_round = tracer.per_round(kind)
        for key in {k for totals in per_round for k in totals}:
            layer[key] = layer.get(key, 0) + statistics.median(
                totals.get(key, 0) for totals in per_round)
        for i, totals in enumerate(per_round):
            for key, want in expected.items():
                if totals.get(key, 0) != want:
                    problems.append(f"{kind} {i}: {key} = {totals.get(key, 0)}, "
                                    f"config implies {want}")
    return problems, layer


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    tracer = None
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
        bench = Bench(workload, args.seed, args.seconds, work, tracer)
        setup_s = time.perf_counter() - _PROCESS_START
        try:
            bench.run()
        finally:
            if tracer:
                tracer.uninstall()
        results = run_checks(bench, cli.load_config(bench.config_path))
        if tracer:
            results["call_counts"], layer = count_check(bench, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, problems in results.items():
        print(f"check {name}: {'pass' if not problems else 'FAIL'}")
        for line in problems[:10]:
            print(f"    {line}")
    # Contention on a shared machine only ever slows a round, so each
    # figure is the run's best round.
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    best = {k: (min if better[k] == "lower" else max)(v) for k, v in bench.samples.items()}
    end_to_end = dict(best, setup_s=setup_s, peak_rss_mb=bench.peak_rss_mb)
    rounds = {k: len(v) for k, v in bench.samples.items()}
    print(f"rounds: train {rounds['train_iter_per_s']}, "
          f"analyze {rounds['analyze_modularity_s']}")
    if tracer:
        print("traced end-to-end figures (tracing on): " + ", ".join(
            f"{k}={v:.6g}" for k, v in end_to_end.items()))
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": not any(results.values()), "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, samples=bench.samples, checks=results), fh, indent=1)
    if tracer:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
