"""Span tracer that instruments segvid from outside the package.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records one span per call, at every import site: a function such
as ``codec.encode`` is also bound as ``stage2.encode``, ``conditioning.encode``
and so on, and each of those module attributes is swapped for the same
wrapper. ``uninstall`` puts the originals back. Nothing in ``src/`` changes.

A span is (id, name, start_ns, end_ns, parent, request, thread, attrs). Each
thread keeps its own span stack, because the streamer's producer thread calls
into ``stage2`` and ``mixer`` while the consumer decodes. A thread's first
span takes as parent the innermost span open on the thread that installed the
tracer (the one that started it, ``streamer.run_streaming``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "segvid"

# The package's modules, in dependency order. `metrics` is evaluation only
# and sits on no timed path, so it is not a layer.
LAYERS = ("cli", "synth", "grid", "codec", "conditioning", "scheduler", "mixer",
          "stage1", "stage2", "transition", "streamer")

# Helpers called once per block or per row inside another traced function.
# Their own cost per call is close to a span's, so a span each would inflate
# the caller's measured time more than it explains it; their time is counted
# as the caller's self time instead.
INLINE = frozenset({
    "grid.as_f32", "grid.require_finite", "grid.gaussian_fill",
    "codec.channel_lift", "codec.num_blocks", "codec.frames_for_block",
    "codec.latent_shape", "mixer.sin_code", "mixer.uniform_sigmas",
    "mixer.default_schedule", "scheduler.token_budget",
})

_ID, _NAME, _START, _END, _PARENT, _REQUEST, _THREAD, _ATTRS = range(8)


def _matmul_flop(p, n: int) -> int:
    """Multiply-add FLOPs of one mixer forward pass over n window rows."""
    d = p.d
    return 2 * n * (p.d_in * d + 3 * d * d + 2 * n * d + d * p.d_out)


def _backward_flop(p, n: int) -> int:
    """FLOPs of the hand-derived backward pass in mixer.loss_and_grad."""
    d = p.d
    return 2 * n * (2 * d * p.d_out + 4 * n * d + 6 * d * d + p.d_in * d)


# name -> f(args, kwargs, result) giving the counters one call adds.
# Counts come from argument and result shapes; FLOPs are computed from them,
# not measured. The mixer attends over latent blocks, so its `tokens` are
# window rows; the scheduler's `window_tokens` are the paper's |W_s|*h*w.
MEASURES = {
    "codec.encode": lambda a, k, r: {"frames_in": int(a[0].shape[0])},
    "mixer.forward": lambda a, k, r: {
        "tokens": int(a[1].shape[0]), "flop_computed": _matmul_flop(a[0], a[1].shape[0])},
    "mixer.loss_and_grad": lambda a, k, r: {
        "flop_computed": _matmul_flop(a[0], a[1].shape[0]) + _backward_flop(a[0], a[1].shape[0])},
    "scheduler.window_gather": lambda a, k, r: {
        "window_tokens": int(r[0].shape[0] * r[0].shape[1] * r[0].shape[2])},
    "grid.read_siv1": lambda a, k, r: {"bytes": 24 + 4 * int(r.size)},
    "grid.write_siv1": lambda a, k, r: {"bytes": 24 + 4 * int(a[1].size)},
}


class Tracer:
    """Records spans for every call into the wrapped segvid functions."""

    def __init__(self):
        self.request = 0
        self._spans: list[tuple] = []
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._patched: list[tuple] = []
        self._home = None

    # ---- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        loc = self._local
        stack = getattr(loc, "stack", None)
        if stack is None:
            if threading.get_ident() == self._home:
                stack = self._home_stack
                loc.root = 0
            else:
                loc.root = self._home_stack[-1] if self._home_stack else 0
                stack = []
            loc.stack = stack
        return stack

    def _call(self, name, fn, measure, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._local.root
        sid = self._next_id()
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._spans.append([sid, name, start, end, parent, self.request,
                                threading.get_ident(), None])
        if measure is not None:
            self._spans[-1][_ATTRS] = measure(args, kwargs, result)
        return result

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span the benchmark opens itself."""
        return self._call(name, fn, None, args, {})

    def take(self) -> list[list]:
        """Finished spans since the last call, in completion order."""
        spans, self._spans = self._spans, []
        return spans

    # ---- installation --------------------------------------------------

    def _wrapper(self, name, fn):
        measure = MEASURES.get(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, measure, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at every import site."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._home = threading.get_ident()
        self._local = threading.local()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or name in INLINE):
                    continue
                wrappers[id(obj)] = (obj, self._wrapper(name, obj))
        sites = [m for n, m in sorted(sys.modules.items())
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []


def self_times_ns(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals.

    Children on another thread (the streamer's producer) can overlap children
    on the parent's own thread, hence the union rather than a plain sum.
    """
    kids = defaultdict(list)
    for s in spans:
        kids[s[_PARENT]].append((s[_START], s[_END]))
    out = {}
    for s in spans:
        start, end = s[_START], s[_END]
        covered, reach = 0, start
        for lo, hi in sorted(kids.get(s[_ID], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[_ID]] = end - start - covered
    return out


def summarize(spans) -> dict[str, dict]:
    """Per function name: calls, self_ns, and summed (max for window_tokens)
    counters over the given spans."""
    self_ns = self_times_ns(spans)
    agg: dict[str, dict] = {}
    for s in spans:
        a = agg.setdefault(s[_NAME], {"calls": 0, "self_ns": 0})
        a["calls"] += 1
        a["self_ns"] += self_ns[s[_ID]]
        for key, val in (s[_ATTRS] or {}).items():
            if key == "window_tokens":
                a[key] = max(a.get(key, 0), val)
            else:
                a[key] = a.get(key, 0) + val
    return agg


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called `name` with a span called `ancestor` somewhere above them."""
    by_id = {s[_ID]: s for s in spans}
    n = 0
    for s in spans:
        if s[_NAME] != name:
            continue
        p = by_id.get(s[_PARENT])
        while p is not None and p[_NAME] != ancestor:
            p = by_id.get(p[_PARENT])
        n += p is not None
    return n


def thread_count(spans) -> int:
    """Distinct threads that recorded the given spans."""
    return len({s[_THREAD] for s in spans})


def children(spans, parent_name: str, name: str) -> list[int]:
    """For each span called parent_name, how many direct children are `name`."""
    counts = {s[_ID]: 0 for s in spans if s[_NAME] == parent_name}
    for s in spans:
        if s[_NAME] == name and s[_PARENT] in counts:
            counts[s[_PARENT]] += 1
    return list(counts.values())


def write_chrome_trace(path, spans) -> None:
    """Chrome Trace Event JSON: one complete ("X") event per span."""
    pid = os.getpid()
    t0 = min((s[_START] for s in spans), default=0)
    events = []
    for s in spans:
        args = {"id": s[_ID], "parent": s[_PARENT], "request": s[_REQUEST]}
        args.update(s[_ATTRS] or {})
        events.append({"name": s[_NAME], "cat": s[_NAME].split(".")[0], "ph": "X",
                       "ts": (s[_START] - t0) / 1000.0, "dur": (s[_END] - s[_START]) / 1000.0,
                       "pid": pid, "tid": s[_THREAD], "args": args})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
