"""Self-describing tensor container: text header + raw float64 payload.

Layout::

    ipsnn-tensors 1\n
    meta <key> <json-value>\n          (any number, order preserved)
    tensor <name> <d0,d1,...>\n        (declaration order = payload order)
    end\n
    <raw bytes>

The payload is the concatenation of each declared tensor as little-endian
64-bit floats in C order; nothing follows it. Scalars declare an empty shape (``tensor x -``).
Round-trips are bit-exact, which checkpointing and fixture sharing rely on.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import IntrinsicProperties, NetworkConfig, NetworkWeights

MAGIC = "ipsnn-tensors 1"


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write a container atomically (temp file + rename)."""
    lines = [MAGIC]
    for key, value in (meta or {}).items():
        if any(c.isspace() for c in key):
            raise ValueError(f"meta key must not contain whitespace: {key!r}")
        lines.append(f"meta {key} {json.dumps(value)}")
    arrays = []
    for name, arr in tensors.items():
        if any(c.isspace() for c in name):
            raise ValueError(f"tensor name must not contain whitespace: {name!r}")
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim and not a.flags["C_CONTIGUOUS"]:
            a = np.ascontiguousarray(a)  # would promote 0-d to 1-d
        shape = ",".join(str(s) for s in a.shape) if a.ndim else "-"
        lines.append(f"tensor {name} {shape}")
        arrays.append(a)
    lines.append("end")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        for a in arrays:
            fh.write(a.astype("<f8", copy=False).tobytes(order="C"))
    os.replace(tmp, path)


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container back as (tensors, meta).

    A malformed container (bad magic or header, truncated payload, trailing
    bytes) raises a ValueError that names the path.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_container(blob)
    except ValueError as err:  # includes JSON and UTF-8 decode errors
        raise ValueError(f"{path}: malformed tensor container: {err}") from err


def _parse_container(blob: bytes) -> tuple[dict[str, np.ndarray], dict]:
    magic = MAGIC.encode("utf-8") + b"\n"
    if not blob.startswith(magic):
        raise ValueError("not an ipsnn tensor container")
    head_end = blob.find(b"\nend\n", len(magic) - 1)
    if head_end < 0:
        raise ValueError("header has no end line")
    header = blob[len(magic):head_end].decode("utf-8")
    meta: dict = {}
    decls: list[tuple[str, tuple[int, ...]]] = []
    for line in header.split("\n") if header else []:
        kind, name, value = line.split(" ", 2)
        if kind == "meta":
            meta[name] = json.loads(value)
        elif kind == "tensor":
            shape = () if value == "-" else tuple(int(s) for s in value.split(","))
            if any(s < 0 for s in shape):
                raise ValueError(f"negative dimension in tensor {name!r}")
            decls.append((name, shape))
        else:
            raise ValueError(f"unknown header line {line!r}")
    tensors = {}
    pos = head_end + len(b"\nend\n")
    for name, shape in decls:
        nbytes = 8 * math.prod(shape)
        if pos + nbytes > len(blob):
            raise ValueError(f"truncated payload at tensor {name!r}")
        arr = np.frombuffer(blob[pos:pos + nbytes], dtype="<f8").copy()
        tensors[name] = arr.reshape(shape)
        pos += nbytes
    if pos != len(blob):
        raise ValueError(f"{len(blob) - pos} trailing bytes after the last tensor")
    return tensors, meta


@dataclass
class Checkpoint:
    """Everything needed to rebuild a network and resume at a task boundary."""

    config: NetworkConfig
    weights: NetworkWeights
    learnable_bank: IntrinsicProperties
    fixed_bank: IntrinsicProperties
    mask_bits: tuple[int, int, int]
    sigma_h_sq: float
    meta: dict


def save_checkpoint(path, config: NetworkConfig, weights: NetworkWeights,
                    learnable_bank: IntrinsicProperties,
                    fixed_bank: IntrinsicProperties,
                    mask_bits: tuple[int, int, int], sigma_h_sq: float,
                    optimizer_moments: dict[str, np.ndarray] | None = None,
                    extra_meta: dict | None = None) -> None:
    meta = {"kind": "checkpoint", **asdict(config),
            "mask_bits": list(mask_bits), "sigma_h_sq": sigma_h_sq}
    meta.update(extra_meta or {})
    tensors = {
        "w_in": weights.w_in,
        "w_rec": weights.w_rec,
        "w_out": weights.w_out,
        "learnable.tau_d": learnable_bank.tau_d,
        "learnable.tau_s": learnable_bank.tau_s,
        "learnable.theta": learnable_bank.theta,
        "fixed.tau_d": fixed_bank.tau_d,
        "fixed.tau_s": fixed_bank.tau_s,
        "fixed.theta": fixed_bank.theta,
    }
    if weights.mask_in is not None:
        tensors["mask_in"] = weights.mask_in
        tensors["mask_rec"] = weights.mask_rec
    for name, arr in (optimizer_moments or {}).items():
        tensors["adam." + name] = arr
    save_tensors(path, tensors, meta)


@contextmanager
def _required_keys(path):
    """Turn a missing meta or tensor key into a ValueError naming the file."""
    try:
        yield
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err.args[0]!r}") from None


def load_checkpoint(path) -> Checkpoint:
    tensors, meta = load_tensors(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"{path}: container is not a checkpoint")
    with _required_keys(path):
        config = NetworkConfig(**{f.name: meta[f.name] for f in fields(NetworkConfig)})
        weights = NetworkWeights(
            w_in=tensors["w_in"], w_rec=tensors["w_rec"], w_out=tensors["w_out"],
            mask_in=tensors.get("mask_in"), mask_rec=tensors.get("mask_rec"),
        )
        learnable = IntrinsicProperties(tensors["learnable.tau_d"],
                                        tensors["learnable.tau_s"],
                                        tensors["learnable.theta"])
        fixed = IntrinsicProperties(tensors["fixed.tau_d"], tensors["fixed.tau_s"],
                                    tensors["fixed.theta"])
        return Checkpoint(config=config, weights=weights, learnable_bank=learnable,
                          fixed_bank=fixed, mask_bits=tuple(meta["mask_bits"]),
                          sigma_h_sq=meta["sigma_h_sq"], meta=meta)


def load_optimizer_moments(path) -> dict[str, np.ndarray]:
    tensors, _ = load_tensors(path)
    return {name[len("adam."):]: arr for name, arr in tensors.items()
            if name.startswith("adam.")}


def export_task(path, task) -> None:
    """Write a task's trials as a shareable fixture container."""
    meta = {
        "kind": "task",
        "family": task.family,
        "task_index": task.task_index,
        "seed": task.seed,
        "stimulus_steps": task.schedule.stimulus_steps,
        "delay_steps": task.schedule.delay_steps,
        "response_steps": task.schedule.response_steps,
        "labels": [t.label for t in task.trials],
        "contexts": [t.context for t in task.trials],
    }
    tensors = {}
    for i, trial in enumerate(task.trials):
        tensors[f"trial{i}.inputs"] = trial.inputs
        tensors[f"trial{i}.targets"] = trial.targets
    save_tensors(path, tensors, meta)


def load_task(path):
    from .tasks import PeriodSchedule, TaskFamilySpec, TaskInstance, Trial

    tensors, meta = load_tensors(path)
    if meta.get("kind") != "task":
        raise ValueError(f"{path}: container is not a task export")
    with _required_keys(path):
        schedule = PeriodSchedule(int(meta["stimulus_steps"]), int(meta["delay_steps"]),
                                  int(meta["response_steps"]))
        spec = TaskFamilySpec.for_family(meta["family"])
        trials = []
        for i, (label, ctx) in enumerate(zip(meta["labels"], meta["contexts"])):
            trials.append(Trial(inputs=tensors[f"trial{i}.inputs"],
                                targets=tensors[f"trial{i}.targets"],
                                label=int(label), context=int(ctx)))
        return TaskInstance(meta["family"], int(meta["task_index"]), int(meta["seed"]),
                            schedule, spec, trials)


def save_recording(path, recordings: list, task_index: int,
                   extra_meta: dict | None = None) -> None:
    """Archive the analysis-facing history of a task's trials."""
    meta = {"kind": "recording", "task_index": task_index,
            "n_trials": len(recordings)}
    meta.update(extra_meta or {})
    tensors = {}
    for i, rec in enumerate(recordings):
        tensors[f"trial{i}.v"] = rec.v
        tensors[f"trial{i}.spikes"] = rec.spikes
        tensors[f"trial{i}.trace"] = rec.trace
        tensors[f"trial{i}.readout"] = rec.readout
    save_tensors(path, tensors, meta)


def load_recording(path) -> tuple[list[dict[str, np.ndarray]], dict]:
    tensors, meta = load_tensors(path)
    if meta.get("kind") != "recording":
        raise ValueError(f"{path}: container is not a recording archive")
    trials = []
    with _required_keys(path):
        for i in range(int(meta["n_trials"])):
            trials.append({key: tensors[f"trial{i}.{key}"]
                           for key in ("v", "spikes", "trace", "readout")})
    return trials, meta
