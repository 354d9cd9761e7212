"""Seeded generators for the four cognitive task families.

Every trial spans three consecutive periods, stimulus (500 ms), delay
(1000 ms), response (500 ms), discretized by the simulation timestep.
Channel layout: input channel 0 is the fixation signal, channels
1..stimulus_dim carry the stimulus, and the choice-with-context family adds
one trailing context channel. Output channel 0 is the fixation target,
the remaining channels the response targets.

Families:
  DMS       match-to-sample choice: 2 trials, one per prototype stimulus,
            one-hot decision during the response period.
  CD-DMS    as DMS plus a binary context cue shown during the stimulus
            period; cue=1 reverses the stimulus-to-label mapping
            (4 trials: 2 prototypes x 2 cues).
  GNG-DR-2  go/no-go delayed recall of a 2-channel stimulus: the go trial
            must reproduce the stimulus during the response period, the
            no-go trial must keep the output near zero.
  GNG-DR-4  the 4-channel variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plasticity import FAMILIES

STIMULUS_MS = 500.0
DELAY_MS = 1000.0
RESPONSE_MS = 500.0

_FAMILY_CODE = {name: i for i, name in enumerate(FAMILIES)}

# (stimulus_dim, context_dim, response_dim, loss kind)
_FAMILY_LAYOUT = {
    "DMS": (10, 0, 2, "CE"),
    "CD-DMS": (10, 1, 2, "CE"),
    "GNG-DR-2": (2, 0, 2, "MSE"),
    "GNG-DR-4": (4, 0, 4, "MSE"),
}


@dataclass(frozen=True)
class PeriodSchedule:
    """Step counts of the three trial periods."""

    stimulus_steps: int
    delay_steps: int
    response_steps: int

    def __post_init__(self):
        for n in (self.stimulus_steps, self.delay_steps, self.response_steps):
            if n <= 0:
                raise ValueError("all periods need at least one step")

    @property
    def response_start(self) -> int:
        """First step of the response period (steps before it are stimulus+delay)."""
        return self.stimulus_steps + self.delay_steps

    @property
    def total_steps(self) -> int:
        return self.response_start + self.response_steps

    @classmethod
    def from_dt(cls, dt_ms: float) -> "PeriodSchedule":
        return cls(int(round(STIMULUS_MS / dt_ms)),
                   int(round(DELAY_MS / dt_ms)),
                   int(round(RESPONSE_MS / dt_ms)))


@dataclass(frozen=True)
class TaskFamilySpec:
    """Dimensions and loss kind of one family."""

    family: str
    stimulus_dim: int
    context_dim: int
    response_dim: int
    loss_kind: str
    fixation_dim: int = 1
    trials_per_task: int = 2

    @property
    def input_dim(self) -> int:
        return self.fixation_dim + self.stimulus_dim + self.context_dim

    @property
    def output_dim(self) -> int:
        return self.fixation_dim + self.response_dim

    @classmethod
    def for_family(cls, family: str) -> "TaskFamilySpec":
        if family not in _FAMILY_LAYOUT:
            raise ValueError(f"unknown task family: {family!r}")
        stim, ctx, resp, kind = _FAMILY_LAYOUT[family]
        trials = 4 if family == "CD-DMS" else 2
        return cls(family=family, stimulus_dim=stim, context_dim=ctx,
                   response_dim=resp, loss_kind=kind, trials_per_task=trials)


@dataclass
class Trial:
    """One input/target pair with its label metadata."""

    inputs: np.ndarray   # [T, input_dim]
    targets: np.ndarray  # [T, output_dim]
    label: int           # class index (choice) or 1=go / 0=no-go (recall)
    context: int = 0     # context-cue bit; 0 where the family has none


@dataclass
class TaskInstance:
    family: str
    task_index: int
    seed: int
    schedule: PeriodSchedule
    spec: TaskFamilySpec
    trials: list[Trial] = field(default_factory=list)


def stimulus_sampler(seed, dim: int, family: str = "", task_index: int = 0,
                     trial_index: int = 0) -> np.ndarray:
    """Deterministic uniform(0,1) stimulus keyed by (family, task, trial, seed)."""
    code = _FAMILY_CODE.get(family, len(FAMILIES))
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & (2 ** 63 - 1), 11, code,
                                int(task_index), int(trial_index)]))
    return rng.uniform(0.0, 1.0, size=dim)


def _blank_trial(spec: TaskFamilySpec, schedule: PeriodSchedule) -> tuple[np.ndarray, np.ndarray]:
    t = schedule.total_steps
    x = np.zeros((t, spec.input_dim))
    y = np.zeros((t, spec.output_dim))
    sd = schedule.response_start
    x[:sd, 0] = 1.0  # fixation input through stimulus+delay
    y[:sd, 0] = 1.0  # fixation target mirrors it
    return x, y


def _place_stimulus(x: np.ndarray, stim: np.ndarray, schedule: PeriodSchedule) -> None:
    x[:schedule.stimulus_steps, 1:1 + stim.size] = stim


def gen_dms(task_index: int, spec: TaskFamilySpec, schedule: PeriodSchedule,
            seed) -> TaskInstance:
    """Two trials, one per prototype stimulus; label = prototype index."""
    trials = []
    for i in range(2):
        stim = stimulus_sampler(seed, spec.stimulus_dim, spec.family, task_index, i)
        x, y = _blank_trial(spec, schedule)
        _place_stimulus(x, stim, schedule)
        y[schedule.response_start:, 1 + i] = 1.0
        trials.append(Trial(inputs=x, targets=y, label=i))
    return TaskInstance(spec.family, task_index, int(seed), schedule, spec, trials)


def gen_cddms(task_index: int, spec: TaskFamilySpec, schedule: PeriodSchedule,
              seed) -> TaskInstance:
    """Four trials covering {prototype 1, 2} x {cue 0, 1}; cue=1 reverses labels."""
    protos = [stimulus_sampler(seed, spec.stimulus_dim, spec.family, task_index, i)
              for i in range(2)]
    trials = []
    sd = schedule.response_start
    for i, stim in enumerate(protos):
        for cue in (0, 1):
            x, y = _blank_trial(spec, schedule)
            _place_stimulus(x, stim, schedule)
            x[:schedule.stimulus_steps, 1 + spec.stimulus_dim] = float(cue)
            label = i if cue == 0 else 1 - i
            y[sd:, 1 + label] = 1.0
            trials.append(Trial(inputs=x, targets=y, label=label, context=cue))
    return TaskInstance(spec.family, task_index, int(seed), schedule, spec, trials)


def gen_gngdr(task_index: int, spec: TaskFamilySpec, schedule: PeriodSchedule,
              seed) -> TaskInstance:
    """One go and one no-go trial, cued by which prototype is shown.

    The go trial's response target holds the stimulus vector constant over
    the response period; the no-go trial's response target stays at zero.
    """
    trials = []
    sd = schedule.response_start
    for trial_idx, is_go in enumerate((1, 0)):
        stim = stimulus_sampler(seed, spec.stimulus_dim, spec.family,
                                task_index, trial_idx)
        x, y = _blank_trial(spec, schedule)
        _place_stimulus(x, stim, schedule)
        if is_go:
            y[sd:, 1:] = stim
        trials.append(Trial(inputs=x, targets=y, label=is_go))
    return TaskInstance(spec.family, task_index, int(seed), schedule, spec, trials)


_GENERATORS = {
    "DMS": gen_dms,
    "CD-DMS": gen_cddms,
    "GNG-DR-2": gen_gngdr,
    "GNG-DR-4": gen_gngdr,
}


def generate_task(family: str, task_index: int, seed,
                  dt_ms: float = 10.0) -> TaskInstance:
    """Generate one task of a family at the given timestep resolution."""
    spec = TaskFamilySpec.for_family(family)
    schedule = PeriodSchedule.from_dt(dt_ms)
    return _GENERATORS[family](task_index, spec, schedule, seed)
