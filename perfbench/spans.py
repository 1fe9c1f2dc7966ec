"""In-memory spans and boundary counters for the traced benchmark run.

Nothing in mdplab is edited. The traced run times the calls the benchmark
makes into each module's public functions (one span per call), and it wraps
the per-call boundary objects that sit in every inner loop: a model's
`sampler`, its `sample`/`sample_batch` methods and a kernel's `apply`. Those
fire hundreds of thousands of times per pass, so they are aggregated into
per-name counters instead of span records; they still take part in the
parent/child bookkeeping, so a span's self time excludes them.

Every wrapped call pushes a frame on one stack. A frame's first slot
accumulates the time of its direct children, so self time = duration - that.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("core", "processes", "transfer", "conditions", "variance",
          "inequalities", "mdp", "diophantine", "acceptance", "cli")

MODEL_LABELS = {
    "iid_rademacher": "iid", "iid_uniform": "iid", "circle_walk": "circle",
    "linear_process": "linear", "expanding_beta2": "doubling",
    "expanding_beta3": "beta3", "expanding_gauss": "gauss",
    "iterated_function": "iterated", "alternating_plus_iid": "alternating",
}


def model_label(model) -> str:
    return MODEL_LABELS.get(model.name, model.name)


def kernel_label(kernel) -> str:
    cls = type(kernel).__name__
    if cls == "IntegerBetaPFKernel":
        return f"beta{kernel.beta}"
    return {"GaussPFKernel": "gauss", "IteratedFunctionKernel": "iterated",
            "CircleFourierKernel": "circle", "FiniteStateKernel": "finite"}.get(cls, cls)


def layer_of(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    if module.startswith("mdplab."):
        return module.split(".")[1]
    return "bench"


class Tracer:
    """Spans of public calls plus counters at the sampler/apply boundaries."""

    def __init__(self):
        self.spans = []      # finished span records, in closing order
        self.boundaries = defaultdict(lambda: {"layer": "", "calls": 0, "total_s": 0.0,
                                               "self_s": 0.0, "values": 0})
        self.samples = 0     # running boundary counts; spans snapshot them
        self.applies = 0
        self._stack = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    def reset(self):
        """Forget everything recorded so far (the set-up's calls), keep the wrappers."""
        self.spans.clear()
        for stats in self.boundaries.values():
            stats.update(calls=0, total_s=0.0, self_s=0.0, values=0)
        self.samples = self.applies = 0

    # -- spans ------------------------------------------------------------

    def wrap(self, fn, name=None, attrs=None):
        """`fn` with one span per call; attrs(args, kwargs) adds fields."""
        name = name or f"{layer_of(fn)}.{fn.__name__}"
        layer = layer_of(fn)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, self._next_id]
            stack.append(frame)
            samples0, applies0 = self.samples, self.applies
            error = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                rec = {"id": frame[1], "parent": parent, "name": name, "layer": layer,
                       "start": t0 - self._t0, "end": t1 - self._t0,
                       "self_s": dur - frame[0],
                       "sampler_calls": self.samples - samples0,
                       "applies": self.applies - applies0}
                if attrs is not None:
                    rec.update(attrs(args, kwargs))
                if error is not None:
                    rec["error"] = error
                self.spans.append(rec)

        traced.__wrapped__ = fn
        return traced

    # -- boundary counters ---------------------------------------------------

    def _boundary(self, key, layer, fn, kind=None, size=None):
        stats = self.boundaries[key]
        stats["layer"] = layer
        stack, clock = self._stack, time.perf_counter

        def counted(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats["calls"] += 1
                stats["total_s"] += dur
                stats["self_s"] += dur - frame[0]
                if size is not None:
                    stats["values"] += size(args)
                if kind == "sampler":
                    self.samples += 1
                elif kind == "apply":
                    self.applies += 1

        counted.__wrapped__ = fn
        return counted

    def instrument_kernel(self, kernel):
        if kernel is not None and "apply" not in vars(kernel):
            kernel.apply = self._boundary(f"transfer.apply.{kernel_label(kernel)}",
                                          "transfer", kernel.apply, kind="apply")
        return kernel

    def instrument_model(self, model):
        """Wrap the boundary callables of a ProcessModel in place (idempotent)."""
        if "sample" in vars(model):
            return model
        label = model_label(model)
        model.sampler = self._boundary(f"processes.sampler.{label}", "processes",
                                       model.sampler, kind="sampler",
                                       size=lambda args: int(args[0]))
        model.sample = self._boundary("core.sample", "core", model.sample)
        model.sample_batch = self.wrap(model.sample_batch, name="core.sample_batch",
                                       attrs=lambda a, k: {"model": label})
        self.instrument_kernel(model.kernel)
        return model

    def wrap_builder(self, fn):
        """A model or kernel constructor whose products get instrumented."""
        traced = self.wrap(fn)

        def build(*args, **kwargs):
            obj = traced(*args, **kwargs)
            if hasattr(obj, "sampler"):
                return self.instrument_model(obj)
            return self.instrument_kernel(obj)

        build.__wrapped__ = fn
        return build

    # -- summaries -------------------------------------------------------------

    def layer_self_seconds(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for rec in self.spans:
            if rec["layer"] in out:
                out[rec["layer"]] += rec["self_s"]
        for stats in self.boundaries.values():
            if stats["layer"] in out:
                out[stats["layer"]] += stats["self_s"]
        return out

    def total(self, name, where=None, field="dur") -> float:
        acc = 0.0
        for rec in self.spans:
            if rec["name"] == name and (where is None or where(rec)):
                acc += rec["end"] - rec["start"] if field == "dur" else rec[field]
        return acc

    def count(self, name, where=None) -> int:
        return sum(1 for rec in self.spans
                   if rec["name"] == name and (where is None or where(rec)))

    def dump(self, path: str, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans,
                       "boundaries": dict(self.boundaries),
                       "layer_self_s": self.layer_self_seconds()}, fh)
