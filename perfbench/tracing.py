"""Call-site probes around the library's public functions.

The benchmark never edits the library. It rebinds the name a caller looks
up (``dreamrand.dream.sample_mask_set``, ``CmaEs.ask``, ...) to a wrapper
for the length of one pipeline rep and restores it afterwards.

Two kinds of wrapper exist:

* counting wrappers, installed in every run, at the two boundaries whose
  work count the end-to-end throughputs need and which no output reports:
  the lane-steps of every ``rollout_batch`` call made by ``cma_optimize``
  and the env steps of ``evaluate_real``. Each costs one Python call per
  wrapped call;
* span wrappers, installed only in a traced run, which record
  ``[name, parent, start, end, work]`` in memory. Self time is a span's
  duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

from dreamrand import controller, dream, training


@contextlib.contextmanager
def rebound(bindings):
    """Rebind ``(owner, attribute, replacement)`` triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in bindings]
    try:
        for owner, attr, new in bindings:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _window_steps(arr):
    shape = np.shape(arr)
    return int(shape[0] * shape[1])


# (owner, attribute, span name, work units from (args, result)).
# The owner is the module or class whose binding the library looks up, so
# the same function is named by the layer that calls it ("...dream" vs
# "...training").
SPAN_HOOKS = [
    (dream, "sample_mask_set", "lstm.sample_mask_set.dream", None),
    (dream, "sample_transition_raw", "world_model.sample_transition_raw", None),
    (dream, "heads_raw", "world_model.heads_raw.dream", None),
    (controller, "rng_stream", "numerics.rng_stream.controller", None),
    (controller.CmaEs, "ask", "controller.CmaEs.ask", None),
    (controller.CmaEs, "tell", "controller.CmaEs.tell", None),
    (controller, "lstm_step", "lstm.lstm_step", None),
    (training, "sample_mask_set", "lstm.sample_mask_set.training", None),
    (training, "lstm_forward", "lstm.lstm_forward", lambda a, out: _window_steps(a[1])),
    (training, "lstm_backward", "lstm.lstm_backward", lambda a, out: _window_steps(a[2])),
    (training, "transition_loss_batch", "world_model.transition_loss_batch", lambda a, out: _window_steps(a[1])),
    (training.AdamOptimizer, "step", "training.AdamOptimizer.step", None),
]


class DreamCounts:
    """Totals over the ``rollout_batch`` calls made by ``cma_optimize``."""

    def __init__(self):
        self.lanes = 0
        self.lane_steps = 0
        self.lane_slots = 0  # lanes x loop iterations of each call
        self.truncated = 0
        self.masks = 0
        self.non_finite = 0

    def add(self, out):
        steps = np.asarray(out["steps"])
        self.lanes += steps.size
        self.lane_steps += int(steps.sum())
        self.lane_slots += int(steps.size * steps.max()) if steps.size else 0
        self.truncated += int(np.count_nonzero(out["truncated"]))
        self.masks += int(out["masks_sampled"])
        self.non_finite += int(np.count_nonzero(~np.isfinite(out["returns"])))


class Probe:
    """Counts for one pipeline rep, and its spans when ``trace`` is set."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.dream = DreamCounts()
        self.real_env_steps = 0

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, 0])
        self._stack.append(idx)
        return self.spans[idx]

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def timed(self, name, fn, work=None):
        """Wrap ``fn`` so each call records a span (a no-op when untraced)."""
        if not self.trace:
            return fn

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span[4] = work(args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of benchmark code, such as a whole stage."""
        if not self.trace:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def library_hooks(self):
        """Bindings for the whole rep: span hooks and the dream counter."""
        bindings = []
        if self.trace:
            for owner, attr, name, work in SPAN_HOOKS:
                bindings.append((owner, attr, self.timed(name, getattr(owner, attr), work)))
        orig = controller.rollout_batch

        def counted_rollout(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.dream.add(out)
            return out

        lane_steps = lambda a, out: int(np.sum(out["steps"]))  # noqa: E731
        bindings.append((controller, "rollout_batch", self.timed("dream.rollout_batch", counted_rollout, lane_steps)))
        return bindings

    def env_step_hook(self, env_cls, ctx, count):
        """Binding for ``env_cls.step`` during one stage, named ``envs.step.<ctx>``."""
        orig = env_cls.step
        if count:
            def stepped(env_self, action, rng):
                self.real_env_steps += 1
                return orig(env_self, action, rng)
        else:
            stepped = orig
        return (env_cls, "step", self.timed(f"envs.step.{ctx}", stepped))

    def summarize(self):
        """Per span name: calls, total seconds, self seconds and work units."""
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, _, start, end, work) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += end - start - child_s[i]
            a["work"] += work
        return dict(agg)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, parent, start, end, work) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end - start, work]) + "\n")
