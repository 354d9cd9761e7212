"""The benchmark's checks pass on a genuine run and fail on corrupted input.

A tiny workload (12 neurons, 100 ms steps) goes through the benchmark's own
rounds, traced, in about a second; each test then corrupts one input.
"""

import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import checks
import run
from ipsnn import tensorio
from ipsnn.cli import load_config
from tracing import Tracer
from workloads import Workload

TINY = Workload("tiny", "GNG-DR-2", 12, 100.0, n_tasks=4, iters=2,
                checkpoint_every=2,
                analyze_flags={"modularity": ["--window", "10", "--stride", "10",
                                              "--restarts", "2"]})


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tracer = Tracer()
    tracer.install()
    try:
        bench = run.Bench(TINY, 3, 0.0, str(tmp_path_factory.mktemp("work")), tracer)
        bench.run()
    finally:
        tracer.uninstall()
    return bench, tracer, load_config(bench.config_path)


@pytest.fixture
def run_dir(traced, tmp_path):
    """A private copy of the run directory for a test to corrupt."""
    dst = tmp_path / "run"
    shutil.copytree(traced[0].run_dir, dst)
    return str(dst)


def rewrite(path, **changes):
    tensors, meta = tensorio.load_tensors(path)
    for name, fn in changes.items():
        tensors[name.replace("__", ".")] = fn(tensors[name.replace("__", ".")])
    tensorio.save_tensors(path, tensors, meta)


def test_genuine_run_passes_every_check(traced):
    bench, tracer, config = traced
    assert bench.failed == 0 and bench.attempted > 0
    results = run.run_checks(bench, config)
    assert set(results) >= {"forward_replay", "gradient_fd", "plasticity_invariants",
                            "l2l_trend", "modularity", "lesion", "pca"}
    # a 12-neuron net trained for 8 iterations carries no learning-to-learn
    # trend; the trend check is exercised on loss series below
    assert {k: v for k, v in results.items() if v and k != "l2l_trend"} == {}
    problems, layer = run.count_check(bench, tracer)
    assert problems == []
    assert layer["core.forward_trial.calls"] > 0


def test_rounds_that_differ_fail_reproducibility(traced):
    bench, _, config = traced
    csvs, bench.metrics_csv = bench.metrics_csv, [b"task_index\n0\n", b"task_index\n1\n"]
    try:
        results = run.run_checks(bench, config)
    finally:
        bench.metrics_csv = csvs
    assert results["rounds_reproduce_metrics_csv"]


def test_counts_disagree_with_another_config(traced):
    bench, tracer, _ = traced
    bench.w = replace(TINY, iters=TINY.iters + 1)
    try:
        problems, _ = run.count_check(bench, tracer)
    finally:
        bench.w = TINY
    assert any("core.forward_trial" in p for p in problems)
    bins, bench.nonempty_bins = bench.nonempty_bins, None  # lesion wrote no table
    try:
        problems, _ = run.count_check(bench, tracer)
    finally:
        bench.nonempty_bins = bins
    assert any("lesion.csv" in p for p in problems)


def test_perturbed_recording_fails_replay(run_dir, traced):
    config = traced[2]
    assert checks.replay_dir(run_dir, config) == []
    rec = os.path.join(run_dir, "recordings", f"task_{config.n_tasks - 1:06d}.rec")
    rewrite(rec, trial1__v=lambda v: v + 1e-6 * (np.arange(v.size) % 3).reshape(v.shape))
    assert any("trial 1 v" in p for p in checks.replay_dir(run_dir, config))


def test_flipped_gradient_fails(traced):
    bench, _, config = traced
    analytic, numeric = checks.directional_derivatives(bench.run_dir, config)
    assert checks.check_gradient(analytic, numeric) == []
    assert checks.check_gradient([-a for a in analytic], numeric)
    assert checks.check_gradient([a * (1 + 1e-3) for a in analytic], numeric)


def test_changed_fixed_group_fails_plasticity(run_dir, traced):
    config = traced[2]
    ckpt = os.path.join(run_dir, "checkpoints", f"task_{config.n_tasks - 1:06d}.ckpt")
    assert checks.plasticity_dir(run_dir, config, (1, 1, 0)) == []
    # GNG-DR-2 fixes the threshold: its value must stay the fixed bank's
    rewrite(ckpt, fixed__theta=lambda t: t + np.eye(1, t.size, 0)[0] * 1e-3)
    assert any("fixed bank theta" in p for p in checks.plasticity_dir(run_dir, config, (1, 1, 0)))
    assert checks.plasticity_dir(run_dir, config, (1, 0, 1))  # not the family's mask


def test_plasticity_bounds_and_branches():
    from ipsnn.core import IntrinsicProperties, NetworkWeights

    def props(tau_s):
        return IntrinsicProperties(np.full((2, 2), 0.5), np.array(tau_s), np.ones(2))

    mask = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    weights = NetworkWeights(mask.copy(), mask.copy(), np.ones((1, 2)), mask, mask)
    start = (props([0.5, 0.5]), props([0.5, 0.5]))
    ok = checks.check_plasticity((0, 1, 0), start, (props([0.5, 0.9]), props([0.5, 0.5])),
                                 weights)
    assert ok == []
    assert checks.check_plasticity((0, 1, 0), start,
                                   (props([0.5, 1.2]), props([0.5, 0.5])), weights)
    assert checks.check_plasticity((0, 1, 0), start,
                                   (props([0.5, 0.5]), props([0.5, 0.5])), weights)
    weights.w_rec = np.ones_like(mask)
    assert any("masked-out" in p for p in checks.check_plasticity(
        (0, 1, 0), start, (props([0.5, 0.9]), props([0.5, 0.5])), weights))


def test_trend_reversed_fails():
    assert checks.check_l2l_trend([4.0, 3.0, 2.0, 1.0]) == []
    assert checks.check_l2l_trend([1.0, 2.0, 3.0, 4.0])
    assert checks.check_l2l_trend([1.0, 1.0, 1.0, 1.0])
    assert checks.check_l2l_trend([4.0, 3.0, 2.0, float("nan")])


def test_own_layers_match_the_program_and_bound_q(run_dir, traced):
    from ipsnn.modularity import CommunityAssignment, build_layers, modularity_Q

    trials, _ = tensorio.load_recording(os.path.join(run_dir, "recordings",
                                                     "task_000000.rec"))
    v = np.concatenate([t["v"] for t in trials])
    net = build_layers(v, 10, 10)
    layers = checks.window_layers(v, 10, 10)
    assert np.allclose(layers, net.adjacency, atol=1e-12)
    n_layers, n = layers.shape[:2]
    q_single, q_one = checks.baseline_q(layers, 1.0, 1.0)
    assert q_single == pytest.approx(modularity_Q(
        net, CommunityAssignment(np.arange(n * n_layers).reshape(n_layers, n))), abs=1e-12)
    assert q_one == pytest.approx(modularity_Q(
        net, CommunityAssignment(np.zeros((n_layers, n), int))), abs=1e-12)
    assert checks.modularity_dir(run_dir, 10, 10, 1.0, 1.0) == []


def test_modularity_corruptions_fail():
    good = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert checks.check_modularity([0.3], [(0.1, 0.2)], {"a": good}) == []
    assert checks.check_modularity([0.15], [(0.1, 0.2)], {"a": good})
    assert checks.check_modularity([0.3], [(0.1, 0.2)], {"a": np.array([[1.0, 0.5], [0.4, 1.0]])})
    assert checks.check_modularity([0.3], [(0.1, 0.2)], {"a": np.array([[0.9, 0.5], [0.5, 1.0]])})
    assert checks.check_modularity([0.3], [(0.1, 0.2)], {"a": np.array([[1.0, 1.5], [1.5, 1.0]])})


def test_lesion_corruptions_fail(run_dir):
    rows = checks.read_csv(os.path.join(run_dir, "lesion.csv"))
    assert checks.check_lesion(rows, TINY.n_neurons) == []
    empty = next(i for i, r in enumerate(rows) if r["bin_size"] == "0")
    full = next(i for i, r in enumerate(rows) if r["bin_size"] != "0")

    def corrupt(i, **fields):
        bad = [dict(r) for r in rows]
        bad[i].update(fields)
        return checks.check_lesion(bad, TINY.n_neurons)

    assert corrupt(full, bin_size=str(int(rows[full]["bin_size"]) + 1))
    assert corrupt(empty, current_task_loss=repr(float(rows[empty]["baseline_loss"]) + 1e-9))
    assert corrupt(empty, next_task_iterations="999")
    assert corrupt(full, current_task_loss="nan")


def test_pca_corruptions_fail(run_dir, traced):
    assert checks.pca_dir(run_dir, traced[2]) == []
    basis = np.eye(3)[:, :2]
    assert checks.check_pca(basis, np.array([2.0, 1.0]), 3.0) == []
    assert checks.check_pca(basis * 1.01, np.array([2.0, 1.0]), 3.0)
    assert checks.check_pca(basis, np.array([1.0, 2.0]), 3.0)
    assert checks.check_pca(basis, np.array([2.0, 1.5]), 3.0)


def test_exits_nonzero_without_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-gngdr2-n64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
