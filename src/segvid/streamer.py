"""Streaming runtime: overlap segment denoising with block decoding.

One producer denoises segments in plan order and hands finalized latent
blocks through a bounded FIFO queue; one consumer decodes each block as it
arrives and emits its frame group immediately (the anchor frame rides with
the first group). Because a segment's blocks are final the moment its window
finishes, the emitted video is bit-identical to running the sequential
inference loop followed by a full decode, for any queue capacity and any
interleaving. A single-threaded serial mode performs the same work in a
deterministic denoise-one/decode-one interleave.

predict_timing is the idealized pipelining model: decoding of segment s can
start once segment s is denoised and segment s-1 is decoded. It ignores
queue capacity (infinite-buffer lower bound) and any materialization
overheads.
"""

from __future__ import annotations

import csv
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import stage2
from .codec import decode_block
from .conditioning import StageTwoInput
from .mixer import StageModel
from .scheduler import SegmentPlan

KINDS = ("segment_denoised", "segment_decoded", "frames_emitted")


@dataclass(frozen=True)
class StreamEvent:
    kind: str
    index: int
    t_ms: float


@dataclass(frozen=True)
class TimingModel:
    denoise_s: tuple[float, ...]
    decode_s: tuple[float, ...]

    def __post_init__(self):
        if len(self.denoise_s) != len(self.decode_s):
            raise ValueError(f"{len(self.denoise_s)} denoise vs {len(self.decode_s)} decode entries")
        if any(d < 0 for d in self.denoise_s + self.decode_s):
            raise ValueError("durations must be nonnegative")


class StreamError(RuntimeError):
    """Worker failure; .events preserves the partial log."""

    def __init__(self, msg, events):
        super().__init__(msg)
        self.events = list(events)


class _Abort(Exception):
    pass


def run_streaming(model: StageModel, inp: StageTwoInput, p: SegmentPlan,
                  seed: int, queue_capacity: int = 2, consumer_delay_s=None,
                  mode: str = "threads"):
    """Returns (video, events, measured TimingModel of active work in ms).

    consumer_delay_s: optional per-segment sleeps before the consumer touches
    each dequeued segment, for exercising interleavings. Delays and queue
    waits are excluded from the measured durations.
    """
    if queue_capacity < 1:
        raise ValueError(f"queue capacity must be >= 1, got {queue_capacity}")
    if mode not in ("threads", "serial"):
        raise ValueError(f"mode must be 'threads' or 'serial', got {mode!r}")
    delays = list(consumer_delay_s) if consumer_delay_s is not None else [0.0] * p.S
    if len(delays) != p.S:
        raise ValueError(f"need {p.S} consumer delays, got {len(delays)}")

    events: list[StreamEvent] = []
    t0 = time.monotonic()

    def stamp(kind, index):
        events.append(StreamEvent(kind, index, (time.monotonic() - t0) * 1000.0))

    cfg = model.codec_cfg
    z = stage2.init_latents(inp, p.t, seed)
    denoise_ms = [0.0] * p.S
    decode_ms = [0.0] * p.S
    parts: list[np.ndarray] = []

    def produce_segment(s):
        tic = time.monotonic()
        stage2.denoise_segment(model, z, inp, p, s)
        denoise_ms[s - 1] = (time.monotonic() - tic) * 1000.0
        stamp("segment_denoised", s)
        return s, [(i, z[i - 1].copy()) for i in p.I[s - 1]]

    def consume_segment(item, s):
        got, blocks = item
        if got != s:
            raise RuntimeError(f"out-of-order segment {got}, expected {s}")
        tic = time.monotonic()
        if s == 1:
            parts.append(decode_block(inp.z_x, cfg, first=True))
        for i, blk in blocks:
            parts.append(decode_block(blk, cfg, first=False))
            decode_ms[s - 1] += (time.monotonic() - tic) * 1000.0
            stamp("frames_emitted", i - 1)
            tic = time.monotonic()
        decode_ms[s - 1] += (time.monotonic() - tic) * 1000.0
        stamp("segment_decoded", s)

    if mode == "serial":
        for s in range(1, p.S + 1):
            item = produce_segment(s)
            if delays[s - 1]:
                time.sleep(delays[s - 1])
            consume_segment(item, s)
    else:
        q: queue.Queue = queue.Queue(maxsize=queue_capacity)
        abort = threading.Event()
        prod_exc: list[BaseException] = []

        def put_item(item):
            while True:
                if abort.is_set():
                    raise _Abort()
                try:
                    q.put(item, timeout=0.05)
                    return
                except queue.Full:
                    continue

        def producer():
            try:
                for s in range(1, p.S + 1):
                    put_item(produce_segment(s))
            except _Abort:
                pass
            except BaseException as e:
                prod_exc.append(e)
                try:
                    put_item(("error", None))
                except _Abort:
                    pass

        th = threading.Thread(target=producer, name="segment-producer", daemon=True)
        th.start()
        try:
            for s in range(1, p.S + 1):
                if delays[s - 1]:
                    time.sleep(delays[s - 1])
                while True:
                    try:
                        item = q.get(timeout=0.05)
                        break
                    except queue.Empty:
                        if not th.is_alive():
                            msg = prod_exc[0] if prod_exc else "producer exited early"
                            raise StreamError(msg, events) from (prod_exc[0] if prod_exc else None)
                if item[0] == "error":
                    raise StreamError(prod_exc[0], events) from prod_exc[0]
                consume_segment(item, s)
        except BaseException:
            abort.set()
            th.join()
            raise
        th.join()

    video = np.concatenate(parts, axis=0)
    return video, events, TimingModel(tuple(denoise_ms), tuple(decode_ms))


def predict_timing(tm: TimingModel) -> dict:
    """Idealized pipeline schedule.

    end_denoise(s) = cumulative denoise time; decoding of s starts at
    max(end_denoise(s), end_decode(s-1)). Returns first_output (first
    segment decoded), full_output (last segment decoded), and the
    no-overlap sequential_total.
    """
    end_denoise = np.cumsum(tm.denoise_s)
    end_decode = 0.0
    first = None
    for s, dec in enumerate(tm.decode_s):
        end_decode = max(float(end_denoise[s]), end_decode) + dec
        if first is None:
            first = end_decode
    return {
        "first_output": first,
        "full_output": end_decode,
        "sequential_total": float(sum(tm.denoise_s) + sum(tm.decode_s)),
    }


def predicted_order(tm: TimingModel) -> list:
    """(kind, index) sequence of denoise/decode completions under the model.

    Ties resolve denoise-first (a decode can only consume already-denoised
    work).
    """
    end_denoise = np.cumsum(tm.denoise_s)
    evs = [(float(end_denoise[s]), 0, s + 1) for s in range(len(tm.denoise_s))]
    end_decode = 0.0
    for s, dec in enumerate(tm.decode_s):
        end_decode = max(float(end_denoise[s]), end_decode) + dec
        evs.append((end_decode, 1, s + 1))
    evs.sort()
    return [("segment_denoised" if k == 0 else "segment_decoded", i) for _, k, i in evs]


def observed_order(events) -> list:
    return [(e.kind, e.index) for e in events if e.kind != "frames_emitted"]


def check_events(events, p: SegmentPlan) -> None:
    """Raise unless the log satisfies the event invariants."""
    last = {k: 0 for k in KINDS}
    denoised_at = {}
    for e in events:
        if e.kind not in KINDS:
            raise ValueError(f"unknown event kind {e.kind!r}")
        if e.index <= last[e.kind]:
            raise ValueError(f"{e.kind} indices not strictly increasing at {e.index}")
        last[e.kind] = e.index
        if e.kind == "segment_denoised":
            denoised_at[e.index] = e.t_ms
        if e.kind == "segment_decoded" and e.t_ms < denoised_at.get(e.index, float("inf")):
            raise ValueError(f"segment {e.index} decoded before denoised")
    if last["segment_denoised"] != p.S or last["segment_decoded"] != p.S:
        raise ValueError("missing segment events")
    if last["frames_emitted"] != p.t - 1:
        raise ValueError(f"expected {p.t - 1} frame groups, saw {last['frames_emitted']}")


def write_events_csv(path, events) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["kind", "index", "t_ms"])
        for e in events:
            w.writerow([e.kind, e.index, f"{e.t_ms:.3f}"])
