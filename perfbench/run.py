#!/usr/bin/env python3
"""segvid benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload gen_short --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): ``gen_short`` (many short generate requests),
``stream_long`` (few T=641 requests through the threaded streaming runtime)
and ``train`` (``train-stage1`` then ``train-stage2`` at the default config).
All run in this one process, imported from ``src/`` of this checkout.

``--trace 0`` measures with no instrumentation and reports the end-to-end
metrics. ``--trace 1`` first repeats that for half the time, then wraps every
public segvid function (tracer.py) for the other half, and reports the
per-layer metrics, the tracing overhead (traced minus untraced value of each
end-to-end metric), and checks the structural counts on every traced
operation. It writes the spans of the first traced operations as Chrome Trace
Event JSON to ``.perfbench/<workload>-seed<seed>.trace.json``.

Every run prints a table of the workload's metrics with unit and sample
count, writes a run record (versions, BLAS threads, core count, seed, commit,
digests) to ``.perfbench/<workload>-seed<seed>-trace<t>.json``, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. It exits 1 if any output check failed and 2 if the program
cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPS = 9
TRACE_SPAN_BUDGET = 100_000  # spans kept for the Chrome trace file

# End-to-end metrics, reported on every workload: each is the workload's own
# metric named in the mapping, and the table printed before the result says
# what it measures there. Their bounds live in BENCHMARK.json.
#
# The timings are 5th percentiles, not medians. On a shared 2-core host a
# fixed numpy loop varies by 25% between 10-second blocks, and stream_long
# requests alternate between phases of ~55 ms and ~90 ms lasting seconds, so
# a run's median lands in either mode; medians moved 20-35% between runs.
# Contention only ever slows an operation down, and the 5th percentile stays
# in the uncontended mode (gen_short's 10th percentile falls between the
# modes of its request mix). Medians and 90th percentiles are still printed
# and recorded.
END_TO_END = {
    "setup_s": {"*": "setup_s"},
    "op_ms_p5": {"gen_short": "request_ms_p5", "stream_long": "request_ms_p5",
                 "train": "cycle_ms_p5"},
    "first_output_ms_p5": {"gen_short": "first_frame_ms_p5",
                           "stream_long": "first_frame_ms_p5",
                           "train": "stage1_ms_p5"},
    "stage2_ms_p5": {"*": "stage2_ms_p5"},
    "peak_rss_mb": {"*": "peak_rss_mb"},
}

# Per-layer metrics: function -> quantities per operation. `self_ms` is the
# mean over all traced operations; the counts are the mean over the first
# `min_ops` operations, which are the same for a given seed on every run.
FUNCS = {
    "codec.encode": ("calls", "self_ms", "frames_in"),
    "codec.decode_block": ("calls", "self_ms"),
    "codec.decode": ("self_ms",),
    "mixer.forward": ("calls", "self_ms", "tokens", "flop_computed"),
    "mixer.denoise_window": ("self_ms",),
    "mixer.sampler_step": ("self_ms",),
    "mixer.loss_and_grad": ("calls", "self_ms", "flop_computed"),
    "mixer.sgd_update": ("self_ms",),
    "scheduler.plan": ("self_ms",),
    "scheduler.window_gather": ("self_ms",),
    "scheduler.scatter_back": ("self_ms",),
    "grid.init_noise_blocks": ("calls", "self_ms"),
    "grid.resize_spatial": ("self_ms",),
    "grid.read_siv1": ("self_ms", "bytes"),
    "grid.write_siv1": ("self_ms", "bytes"),
    "conditioning.build_hybrid_reference": ("self_ms",),
    "conditioning.build_stage2_input": ("self_ms",),
    "stage1.generate_lr": ("self_ms",),
    "stage1.denoise_from": ("self_ms",),
    "stage1.train": ("self_ms",),
    "stage2.pipeline_inputs": ("self_ms",),
    "stage2.infer_csg": ("self_ms",),
    "stage2.denoise_segment": ("self_ms",),
    "stage2.train": ("self_ms",),
    "transition.synthesize_corpus": ("self_ms",),
    "synth.load_corpus": ("self_ms",),
    "cli.main": ("self_ms",),
    "streamer.run_streaming": ("self_ms",),
}
UNITS = {"calls": "count", "self_ms": "ms", "frames_in": "count", "tokens": "count",
         "flop_computed": "flop", "bytes": "B"}


def _fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    """Import segvid from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "segvid"
    if not (pkg / "__init__.py").is_file():
        _fail(f"no segvid package at {pkg}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import segvid
    if Path(segvid.__file__).resolve().parent != pkg.resolve():
        _fail(f"imported segvid from {segvid.__file__}, expected {pkg}")


# ---- statistics ------------------------------------------------------------

def p50(xs):
    return statistics.median(xs)


def p5(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=20, method="inclusive")[0]


def p90(xs):
    """The 90th percentile, or None unless at least 10 samples lie above it."""
    if len(xs) < 100:
        return None
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


# ---- measurement -----------------------------------------------------------

class Phase:
    """Samples, failures and (when traced) span aggregates of one timed phase."""

    def __init__(self):
        self.samples: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, dict] = {}
        self.kept_spans: list = []
        self.span_threads_max = 0


def measure(wl, seconds: float, tracer=None) -> Phase:
    """Closed loop: run operations back to back until `seconds` have passed
    (and at least wl.min_ops ran). Inputs are made and outputs checked
    between operations, outside their timed regions."""
    ph = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.min_ops or time.perf_counter() < deadline:
        wl.prepare(i)
        ph.attempted += 1
        try:
            if tracer is None:
                sample = wl.run(i)
            else:
                tracer.take()
                tracer.request = i + 1
                sample = tracer.call("perfbench.op", wl.run, i)
                spans = tracer.take()
        except Exception as e:  # a failed operation is counted, not fatal
            ph.failures.append(f"op {i}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            i += 1
            continue
        reasons = wl.check(sample)
        if threading.active_count() != 1:
            reasons.append(f"{threading.active_count() - 1} extra Python threads after the operation")
        if tracer is not None:
            reasons += wl.check_structure(sample, spans)
            ph.span_threads_max = max(ph.span_threads_max, tr.thread_count(spans))
            tracer.take()  # drop spans of the checks
            agg = tr.summarize(spans)
            for name, a in agg.items():
                ph.self_ns[name] = ph.self_ns.get(name, 0) + a["self_ns"]
                if i < wl.min_ops:
                    c = ph.counts.setdefault(name, {})
                    for key, val in a.items():
                        if key == "window_tokens":
                            c[key] = max(c.get(key, 0), val)
                        elif key != "self_ns":
                            c[key] = c.get(key, 0) + val
            if len(ph.kept_spans) + len(spans) <= TRACE_SPAN_BUDGET or not ph.kept_spans:
                ph.kept_spans.extend(spans)
        if reasons:
            ph.failures.append(f"op {i}: " + "; ".join(reasons))
        else:
            ph.samples.append({k: v for k, v in sample.items()
                               if isinstance(v, (int, float, list, tuple))})
        i += 1
    return ph


def _timing(m: dict, key: str, xs: list[float], meaning: str) -> None:
    m[key + "_p5"] = (p5(xs), "ms", len(xs), meaning)
    m[key + "_p50"] = (p50(xs), "ms", len(xs), meaning)
    if p90(xs) is not None:
        m[key + "_p90"] = (p90(xs), "ms", len(xs), meaning)


def report(name: str, setup_s: list[float], ph: Phase) -> dict:
    """The workload's metrics: name -> (value, unit, samples, meaning)."""
    ss = ph.samples
    m = {"setup_s": (p50(setup_s), "s", len(setup_s),
                     "checkpoint load, input generation and warm-up; median of set-ups")}
    if not ss:
        return m
    ops = [s["op_ms"] for s in ss]
    first = [s["first_ms"] for s in ss]
    stage2 = [s["stage2_ms"] for s in ss]
    busy_s = sum(ops) / 1000.0
    if name == "train":
        _timing(m, "cycle_ms", ops, "train-stage1 + train-stage2")
        _timing(m, "stage1_ms", first, "train-stage1 command")
        _timing(m, "stage2_ms", stage2, "train-stage2 command, with transition-pair synthesis")
        steps = ss[0]["steps"] / 2
        m["stage1_steps_per_s"] = (p50([steps * 1000.0 / x for x in first]), "1/s",
                                   len(first), "configured steps / train-stage1 wall; median")
        m["stage2_steps_per_s"] = (p50([steps * 1000.0 / x for x in stage2]), "1/s",
                                   len(stage2), "configured steps / train-stage2 wall; median")
    else:
        _timing(m, "request_ms", ops, "image in hand -> video written")
        _timing(m, "first_frame_ms", first, "request start -> " + (
            "first frames_emitted event" if name == "stream_long"
            else "decoded video in hand (all frames at once)"))
        _timing(m, "stage2_ms", stage2, "stage-1 rollout done -> video written")
        m["frames_per_s"] = (sum(s["frames"] for s in ss) / busy_s, "1/s", len(ss),
                             "output frames / wall of all requests")
        if name == "stream_long":
            gaps = [g for s in ss for g in s["gaps_ms"]]
            m["emit_gap_ms_p90"] = (p90(gaps), "ms", len(gaps),
                                    "gap between successive frame emissions")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
                        "peak resident set of the process")
    m["failed_share"] = (len(ph.failures) / max(ph.attempted, 1), "share", ph.attempted,
                         "failed / attempted operations")
    return m


def end_to_end(name: str, m: dict) -> dict:
    out = {}
    for metric, src in END_TO_END.items():
        key = src.get(name, src.get("*"))
        if key in m:
            out[metric] = {"value": m[key][0], "unit": m[key][1]}
    return out


def per_layer(wl, ph: Phase) -> dict:
    n, k = max(len(ph.samples) + len(ph.failures), 1), wl.min_ops
    out = {}
    for fn, fields in FUNCS.items():
        for f in fields:
            if f == "self_ms":
                v = ph.self_ns.get(fn, 0) / n / 1e6
            else:
                v = ph.counts.get(fn, {}).get(f, 0) / k
            out[f"{fn}.{f}"] = {"value": v, "unit": UNITS[f]}
    out["scheduler.window_tokens"] = {
        "value": ph.counts.get("scheduler.window_gather", {}).get("window_tokens", 0),
        "unit": "count"}

    def mean(key):
        xs = [s[key] for s in ph.samples if key in s]
        return statistics.fmean(xs) if xs else 0

    out["streamer.decode_wait_ms"] = {"value": mean("decode_wait_ms"), "unit": "ms"}
    out["streamer.overrun_ms"] = {"value": mean("overrun_ms"), "unit": "ms"}
    per_step = getattr(wl, "encode_per_step", None) or (0, 0)
    out["codec.encode.per_stage1_step"] = {"value": per_step[0], "unit": "count"}
    out["codec.encode.per_stage2_step"] = {"value": per_step[1], "unit": "count"}
    for layer in tr.LAYERS:
        v = sum(ns for fn, ns in ph.self_ns.items() if fn.startswith(layer + "."))
        out[f"{layer}.self_ms"] = {"value": v / n / 1e6, "unit": "ms"}
    return out


# ---- run record ------------------------------------------------------------

def _blas() -> dict:
    import ctypes
    import numpy as np
    info = {"openblas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_record(args, extra: dict) -> dict:
    import numpy as np
    rec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "numpy": np.__version__, **_blas(), "nproc": len(os.sched_getaffinity(0)),
           "os_threads": len(os.listdir("/proc/self/task")), "commit": _commit()}
    rec.update(extra)
    return rec


# ---- main ------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("gen_short", "stream_long", "train"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive", 1)
    _import_program()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    wl = WORKLOADS[args.workload]()
    try:
        wl.fixture(str(work))
        setup_s = []
        for _ in range(SETUP_REPS):
            tic = time.perf_counter()
            wl.setup(args.seed)
            setup_s.append(time.perf_counter() - tic)

        if args.trace:
            base = measure(wl, args.seconds / 2)
            tracer = tr.Tracer()
            tracer.install()
            try:
                phase = measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
            tr.write_chrome_trace(trace_path, phase.kept_spans)
        else:
            phase = measure(wl, args.seconds)
        table = report(args.workload, setup_s, phase)
        digests = (wl.digests() if args.workload == "train"
                   else {"canonical_video_sha256": wl.canonical_digest()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failures = phase.attempted, list(phase.failures)
    extra = {"digests": digests,
             "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n, _) in
                         table.items()}}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  {args.seconds:g} s")
    for key, (v, unit, n, meaning) in table.items():
        print(f"  {key:<20} {v:>12.4f} {unit:<5} n={n:<6} {meaning}")
    for key, val in digests.items():
        print(f"  {key:<20} {val}")
    if args.trace:
        base_table = report(args.workload, setup_s, base)
        attempted += base.attempted
        failures += base.failures
        e_traced, e_base = end_to_end(args.workload, table), end_to_end(args.workload, base_table)
        overhead = {k: e_traced[k]["value"] - e_base[k]["value"]
                    for k in e_traced if k in e_base and k not in ("setup_s", "peak_rss_mb")}
        metrics = per_layer(wl, phase)
        extra.update(untraced={k: v["value"] for k, v in e_base.items()},
                     tracing_overhead=overhead, per_layer=metrics,
                     span_threads_max=phase.span_threads_max,
                     chrome_trace=str(trace_path.relative_to(ROOT)))
        print("  tracing overhead (traced - untraced):")
        for key, val in overhead.items():
            print(f"    {key:<20} {val:+.4f} {e_traced[key]['unit']}")
        top = sorted(((v["value"], k) for k, v in metrics.items()
                      if k.endswith(".self_ms") and k.count(".") == 2), reverse=True)[:6]
        print(f"  threads with spans in one operation, at most: {phase.span_threads_max}")
        print("  largest self times per operation: " +
              ", ".join(f"{k} {v:.2f} ms" for v, k in top))
    else:
        metrics = end_to_end(args.workload, table)
    for reason in failures:
        print(f"  FAILED {reason}")
    record = run_record(args, extra)
    record.update(attempted=attempted, failed=len(failures), failures=failures)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    print("  run record: " + "  ".join(
        f"{k}={record[k]}" for k in ("python", "numpy", "openblas", "blas_threads", "nproc",
                                     "os_threads", "commit")))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
