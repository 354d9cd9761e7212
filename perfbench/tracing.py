"""Spans around the calls into each ipsnn module, recorded from outside it.

The tracer wraps a public function at every name its callers look it up
by (``harness.forward_trial``, ``analysis.forward_trial`` and
``core.forward_trial`` all become one wrapper), so the program itself is not
edited. A span holds a name, a start, an end, its parent span and any counts
taken at the call (timesteps simulated, bytes written or read, supra-nodes).
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from dataclasses import dataclass, field


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _steps(args, kwargs):
    x = args[3] if len(args) > 3 else kwargs["input_trial"]
    return {"steps": len(x)}


def _supra_nodes(args, kwargs):
    net = args[0]
    return {"supra_nodes": net.n_nodes * net.n_layers}


# (metric name, home module, attribute, counter taken after the call)
TARGETS = (
    ("cli.main", "ipsnn.cli", "main", None),
    ("core.forward_trial", "ipsnn.core", "forward_trial", _steps),
    ("gradients.adjoint_trial", "ipsnn.gradients", "adjoint_trial", None),
    ("gradients.task_gradients", "ipsnn.gradients", "task_gradients", None),
    ("gradients.task_loss", "ipsnn.gradients", "task_loss", None),
    ("gradients.AdamState.step", "ipsnn.gradients", "AdamState.step", None),
    ("objective.base_loss", "ipsnn.objective", "base_loss", None),
    ("objective.base_loss_grad", "ipsnn.objective", "base_loss_grad", None),
    ("plasticity.apply_update", "ipsnn.plasticity", "apply_update", None),
    ("tasks.generate_task", "ipsnn.tasks", "generate_task", None),
    ("harness.run_inner_task", "ipsnn.harness", "run_inner_task", None),
    ("harness.run_family", "ipsnn.harness", "run_family", None),
    ("harness.build_state", "ipsnn.harness", "build_state", None),
    ("harness.state_from_checkpoint", "ipsnn.harness", "state_from_checkpoint", None),
    ("tensorio.save_recording", "ipsnn.tensorio", "save_recording", _file_bytes),
    ("tensorio.save_checkpoint", "ipsnn.tensorio", "save_checkpoint", _file_bytes),
    ("tensorio.load_tensors", "ipsnn.tensorio", "load_tensors", _file_bytes),
    ("manifest.write_manifest", "ipsnn.manifest", "write_manifest", None),
    ("modularity.build_layers", "ipsnn.modularity", "build_layers", None),
    ("modularity.louvain_optimize", "ipsnn.modularity", "louvain_optimize", _supra_nodes),
    ("modularity.modularity_report", "ipsnn.modularity", "modularity_report", None),
    ("analysis.lesion_eval", "ipsnn.analysis", "lesion_eval", None),
    ("analysis.evaluate_task_loss", "ipsnn.analysis", "evaluate_task_loss", None),
    ("analysis.membrane_stats", "ipsnn.analysis", "membrane_stats", None),
    ("analysis.pca_delay", "ipsnn.analysis", "pca_delay", None),
)


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the root
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; ``install`` patches the targets, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span.counts = counter(args, kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "ipsnn" or n.startswith("ipsnn.")]
        for name, home, attr, counter in TARGETS:
            owner = sys.modules[home]
            if "." in attr:  # a method: patch it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr), counter))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def round_totals(self, root: int) -> dict:
        """Calls, self time and counts per traced name over one round's span
        tree, keyed like the per-layer metrics (``core.forward_trial.calls``)."""
        inside = {root}
        child_time = [0.0] * len(self.spans)
        for i in range(root + 1, len(self.spans)):
            s = self.spans[i]
            if s.parent not in inside:
                break  # spans are stored in start order; the tree has ended
            inside.add(i)
            child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for i in inside - {root}:
            s = self.spans[i]
            figures = dict(s.counts, calls=1, self_s=(s.end - s.start) - child_time[i])
            for key, value in figures.items():
                totals[f"{s.name}.{key}"] = totals.get(f"{s.name}.{key}", 0) + value
        return totals

    def per_round(self, name: str) -> list[dict]:
        """``round_totals`` of every root span with this name, in order."""
        return [self.round_totals(i) for i, s in enumerate(self.spans)
                if s.parent == -1 and s.name == name]

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.counts} for s in self.spans]

