#!/usr/bin/env python3
"""Generate one task from each cognitive family and inspect its tensors.

All families share the stimulus (500 ms) / delay (1000 ms) / response
(500 ms) structure; they differ in stimulus dimension, trial count, and
what the response period demands (a one-hot choice vs. stimulus recall).
"""

import os
import tempfile

import numpy as np

from ipsnn.plasticity import FAMILIES, mask_for_family
from ipsnn.tasks import generate_task
from ipsnn.tensorio import export_task, load_task

for family in FAMILIES:
    task = generate_task(family, task_index=0, seed=123, dt_ms=10.0)
    trial = task.trials[0]
    sched = task.schedule
    print(f"{family}")
    print(f"  learning mask        : {mask_for_family(family).as_tuple()}")
    print(f"  trials per task      : {len(task.trials)}")
    print(f"  input / target shape : {trial.inputs.shape} / {trial.targets.shape}")
    print(f"  periods (steps)      : {sched.stimulus_steps} stimulus, "
          f"{sched.delay_steps} delay, {sched.response_steps} response")
    print(f"  loss kind            : {task.spec.loss_kind}")
    labels = [(t.label, t.context) for t in task.trials]
    print(f"  (label, context) per trial: {labels}")

# the context cue reverses the stimulus-to-label mapping
task = generate_task("CD-DMS", task_index=3, seed=123, dt_ms=10.0)
plain = next(t for t in task.trials if t.context == 0 and t.label == 0)
cued = next(t for t in task.trials
            if t.context == 1
            and np.array_equal(t.inputs[0, 1:11], plain.inputs[0, 1:11]))
print("\nCD-DMS reversal: same stimulus, cue 0 -> label "
      f"{plain.label}, cue 1 -> label {cued.label}")

# tasks round-trip through the tensor container for fixture sharing
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "task.tens")
    export_task(path, task)
    again = load_task(path)
match = all(np.array_equal(a.inputs, b.inputs)
            for a, b in zip(task.trials, again.trials))
print(f"container round-trip identical: {match}")
