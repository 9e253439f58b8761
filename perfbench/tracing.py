"""Spans around the calls into each cvarsafe layer, recorded from outside.

``Tracer.install`` replaces the public functions of the layer modules
(their ``__all__``), the Bellman step kernel and the grid nearest-node
lookups with wrappers that record one span per call: name, thread, start,
end, and the enclosing span on the same thread. A replacement is made in
every loaded cvarsafe module that holds the original object, so calls
through names bound by ``from .dp import value_iteration`` are traced too.
``uninstall`` puts the originals back. Spans stay in memory; the
per-layer metrics are computed from them after the timed phase.

Nothing under ``src/`` changes: the program is the same with tracing off.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

LAYERS = ("dp", "solver", "rollout", "grids", "models", "artifacts", "oracle")

# artifacts.fmt formats one float; traced, its wrapper would cost more than
# the file I/O the artifacts layer is measured for.
_SKIP = {"artifacts.fmt"}
# Traced beyond __all__: the kernel that dp.value_iteration calls once per
# Bellman step, and the grid lookups that every rollout step makes.
_EXTRA_FUNCTIONS = {"dp": ("sweep_kernel",)}
_EXTRA_METHODS = {"grids": ("AugmentedGrid", ("nearest_x_index", "nearest_z_index"))}
# Spans that also record process CPU time, to expose threads that burn CPU
# without shortening the wall time.
_CPU_TIMED = {"solver.sweep"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    child_s: float = 0.0   # time covered by direct children on the same thread
    cpu_s: float = 0.0
    work: Optional[dict] = None  # the call's work counts, for counted functions

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _kernel_counts(args, kwargs, result):
    """Work of one Bellman step, computed from the array sizes.

    The numpy kernel does 6 flops per (node, z, action, atom, corner), 2 per
    (node, z, action, atom) and one comparison per (node, z, action); bytes
    are the sizes of every input and output array, each touched once.
    """
    j_next, _, cost, probs, corner_idx = args[:5]
    n_x, n_z = j_next.shape
    n_u, n_w, n_c = cost.shape[1], probs.shape[2], corner_idx.shape[3]
    out_bytes = sum(a.nbytes for a in result)
    return {
        "dp.bellman_steps": 1,
        "dp.node_updates": n_x * n_z,
        "dp.kernel_flops_computed": n_x * n_z * n_u * (n_w * (6 * n_c + 2) + 1),
        "dp.kernel_bytes_computed": sum(a.nbytes for a in args) + out_bytes,
    }


def _written_bytes(args, kwargs, result):
    path = args[0]
    if os.path.isdir(path):  # write_sweep takes the directory
        path = os.path.join(path, "sweep.csv")
    return {"artifacts.bytes_written": os.path.getsize(path)}


def _rollout_counts(args, kwargs, result):
    arrays = (result.states, result.zs, result.actions, result.shocks,
              result.y_prime)
    return {"rollout.rollout_steps": result.actions.size,
            "rollout.batch_mb": sum(a.nbytes for a in arrays) / 1e6}


def _oracle_counts(args, kwargs, result):
    return {"oracle.instances": 1,
            "oracle.policies_enumerated": args[0].policy_count()}


_COUNTERS = {
    "dp.sweep_kernel": _kernel_counts,
    "dp.precompute_transitions":
        lambda a, k, r: {"dp.transition_entries": r.corner_idx.size},
    "dp.value_iteration": lambda a, k, r: {"dp.value_iteration_calls": 1},
    "solver.sweep": lambda a, k, r: {"solver.sweep_dual_params": a[1].s_axis.size},
    "rollout.rollout": _rollout_counts,
    "oracle.exact_optimal_cvar": _oracle_counts,
}
for _name in ("write_json", "write_sweep", "write_surface_csv", "write_mask_csv",
              "write_rollouts_csv"):
    _COUNTERS[f"artifacts.{_name}"] = _written_bytes


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans = []
        self.work = defaultdict(Counter)  # span name -> work counts of its calls
        self._local = threading.local()
        self._lock = threading.Lock()  # sweep workers count concurrently
        self._patches = []  # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, layer: str, fn):
        count = _COUNTERS.get(name)
        cpu = name in _CPU_TIMED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, layer, time.perf_counter(),
                        stack[-1] if stack else None)
            cpu0 = time.process_time() if cpu else 0.0
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu_s = time.process_time() - cpu0
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if count is not None:
                span.work = count(args, kwargs, result)
                with self._lock:
                    self.work[name].update(span.work)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "cvarsafe" or n.startswith("cvarsafe.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"cvarsafe.{layer}")
            names = [n for n in mod.__all__ if f"{layer}.{n}" not in _SKIP]
            names += _EXTRA_FUNCTIONS.get(layer, ())
            for attr in names:
                orig = getattr(mod, attr)
                if isinstance(orig, type) or not callable(orig):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", layer, orig)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is orig:
                            self._patch(owner, key, wrapped)
            if layer in _EXTRA_METHODS:
                cls_name, methods = _EXTRA_METHODS[layer]
                cls = getattr(mod, cls_name)
                for attr in methods:
                    orig = vars(cls)[attr]
                    self._patch(cls, attr, self._wrap(
                        f"{layer}.{cls_name}.{attr}", layer, orig))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def _union_s(spans) -> float:
    """Wall time covered by the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


def _outermost_s(spans, names) -> float:
    """Busy time in the named functions, summed over threads, counting a
    call nested inside another named call once."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            total += s.duration
    return total


_WRITERS = tuple(n for n in _COUNTERS if n.startswith("artifacts.write"))

# Busy time per named metric: the functions whose calls it sums.
TIMES = {
    "dp.precompute_transitions_s": ("dp.precompute_transitions",),
    "dp.value_iteration_s": ("dp.value_iteration",),
    "solver.sweep_s": ("solver.sweep",),
    "solver.risk_value_s": ("solver.risk_value",),
    "solver.extract_safe_set_s": ("solver.extract_safe_set",),
    "rollout.synthesize_policy_s": ("rollout.synthesize_policy",),
    "rollout.rollout_s": ("rollout.rollout",),
    "rollout.estimate_risk_s": ("rollout.estimate_risk",),
    "grids.nearest_index_s": ("grids.AugmentedGrid.nearest_x_index",
                              "grids.AugmentedGrid.nearest_z_index"),
    "models.dynamics_s": ("models.transition",),
    "artifacts.write_s": _WRITERS,
    "artifacts.read_s": ("artifacts.read_sweep",),
    "oracle.exact_optimal_cvar_s": ("oracle.exact_optimal_cvar",),
}
COUNTS = ("dp.transition_entries", "dp.value_iteration_calls", "dp.bellman_steps",
          "dp.node_updates", "dp.kernel_flops_computed", "dp.kernel_bytes_computed",
          "solver.sweep_dual_params", "rollout.rollout_steps", "rollout.batch_mb",
          "artifacts.bytes_written", "oracle.policies_enumerated",
          "oracle.instances")


def layer_metrics(tracer: Tracer, passes: int, traced_s: float) -> dict:
    """Per-pass layer metrics from the spans of ``passes`` traced passes
    whose wall times sum to ``traced_s``."""
    spans = tracer.spans
    out = {name: _outermost_s(spans, fns) / passes for name, fns in TIMES.items()}
    totals = sum(tracer.work.values(), Counter())
    out.update({name: totals[name] / passes for name in COUNTS})
    out["solver.sweep_cpu_s"] = sum(
        s.cpu_s for s in spans if s.name == "solver.sweep") / passes
    # The Bellman step on the workload's largest grid, not the oracle's tiny ones.
    kernels = [s for s in spans if s.name == "dp.sweep_kernel"]
    largest = max((s.work["dp.node_updates"] for s in kernels), default=0)
    steps = sorted(s.duration for s in kernels
                   if s.work["dp.node_updates"] == largest)
    out["dp.bellman_step_ms"] = 1e3 * steps[len(steps) // 2] if steps else 0.0
    by_layer = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)
    for layer in LAYERS:
        own = by_layer[layer]
        out[f"{layer}.self_s"] = sum(s.self_s for s in own) / passes
        wall = _union_s(own)
        out[f"{layer}.wall_s"] = wall / passes
        out[f"{layer}.wall_share"] = wall / traced_s
    out["dp_solver.wall_share"] = _union_s(by_layer["dp"] + by_layer["solver"]) / traced_s
    return out


def span_table(tracer: Tracer, passes: int) -> dict:
    """Per function: calls, busy and self time summed over threads, the
    wall time its calls cover, and the work they counted; all per pass."""
    groups = defaultdict(list)
    for s in tracer.spans:
        groups[s.name].append(s)
    return {name: {"calls": len(g) / passes,
                   "busy_s": sum(s.duration for s in g) / passes,
                   "self_s": sum(s.self_s for s in g) / passes,
                   "wall_s": _union_s(g) / passes,
                   "work": {k: v / passes for k, v in tracer.work[name].items()}}
            for name, g in sorted(groups.items())}


def unit(metric: str) -> str:
    """Unit of a metric, read from its name."""
    for suffix, name in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_share", "fraction"), ("bytes_computed", "B"),
                         ("bytes_written", "B"), ("flops_computed", "flop")):
        if metric.endswith(suffix):
            return name
    return "count"
