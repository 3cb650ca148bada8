"""Streaming runtime: overlap segment denoising with block decoding.

Streaming is the sequential segment loop, `stage2.infer_csg`, plus a consumer
that decodes each finished segment's blocks and emits its frame groups
immediately (the anchor frame rides with the first group). The consumer
decodes each block straight into its frames of the one (T, H, W, 3) video
array, allocated up front, so the video is held once. Because a segment's
blocks are final the moment its window finishes, the emitted video is
bit-identical to running the sequential loop followed by a full decode, for
any queue capacity and any interleaving. Threads mode runs the loop on a
producer thread and hands each segment to the consumer through a bounded
FIFO queue; a hand-off to an idle consumer waits until the consumer holds
the segment, so the consumer gets the GIL as soon as a segment lands, and
the producer runs ahead only while the consumer is busy. Serial mode decodes
each segment from inside the loop, in a deterministic denoise-one/decode-one
interleave.

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
from .codec import decode_block, frames_for_block, video_shape
from .conditioning import StageTwoInput
from .grid import FLOAT
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
    """Raised out of the segment hook to stop the producer after the consumer failed."""


def run_streaming(model: StageModel, inp: StageTwoInput, p: SegmentPlan,
                  seed: int, queue_capacity: int = 2, mode: str = "threads"):
    """Returns (video, events, measured TimingModel of active work in ms).

    The video is allocated once and filled in place, block by block, as the
    segments are decoded. Segment s's denoise time runs from the end of the
    hand-off of segment s-1 to the end of its window, and includes drawing
    the initial noise of its own blocks; for s=1 it runs from the start of
    the call, so it also includes allocating the video (and starting the
    producer thread), but not the noise of any later segment, which the loop
    draws when it reaches that segment. Queue waits, and the producer's wait
    for an idle consumer to take a segment, are excluded from the measured
    durations. A producer failure in threads mode is raised as StreamError;
    a consumer failure is raised as itself, after the producer thread has
    been stopped and joined.
    """
    if queue_capacity < 1:
        raise ValueError(f"queue capacity must be >= 1, got {queue_capacity}")
    if mode not in ("threads", "serial"):
        raise ValueError(f"mode must be 'threads' or 'serial', got {mode!r}")

    events: list[StreamEvent] = []
    t0 = time.monotonic()

    def stamp(kind, index):
        events.append(StreamEvent(kind, index, (time.monotonic() - t0) * 1000.0))

    cfg = model.codec_cfg
    video = np.empty(video_shape(p.t, *inp.z_x.shape[:2], cfg), FLOAT)
    denoise_ms = [0.0] * p.S
    decode_ms = [0.0] * p.S
    decoded = 0
    mark = t0

    def consume(item):
        nonlocal decoded
        s, blocks = item
        if s != decoded + 1:
            raise RuntimeError(f"out-of-order segment {s}, expected {decoded + 1}")
        tic = time.monotonic()
        if s == 1:
            decode_block(inp.z_x, cfg, first=True, out=video[:1])
        for i, blk in enumerate(blocks, p.a[s - 1]):
            lo, hi = frames_for_block(i, cfg.f_t)
            decode_block(blk, cfg, first=False, out=video[lo - 1:hi])
            decode_ms[s - 1] += (time.monotonic() - tic) * 1000.0
            stamp("frames_emitted", i - 1)
            tic = time.monotonic()
        decode_ms[s - 1] += (time.monotonic() - tic) * 1000.0
        stamp("segment_decoded", s)
        decoded = s

    def on_segment(s, z):
        nonlocal mark
        denoise_ms[s - 1] = (time.monotonic() - mark) * 1000.0
        stamp("segment_denoised", s)
        a = p.a[s - 1]
        hand_off((s, z[a - 1:a - 1 + len(p.I[s - 1])].copy()))
        mark = time.monotonic()

    def produce():
        stage2.infer_csg(model, inp, p, seed, on_segment=on_segment)

    if mode == "serial":
        hand_off = consume
        produce()
    else:
        q: queue.Queue = queue.Queue(maxsize=queue_capacity)
        stop = threading.Event()
        # The consumer's side of the hand-off, guarded by `turn`: whether it
        # is blocked on the queue (or about to be), and how many segments it
        # has taken off it.
        turn = threading.Condition()
        waiting, taken = True, 0

        def hand_off(item):
            # Once the consumer has stopped, nobody empties the queue. Checked
            # before every put, so at most one put follows the consumer's
            # drain, and it lands in an empty queue instead of blocking.
            if stop.is_set():
                raise _Abort()
            q.put(item)
            # A consumer waiting for this segment is woken, but it runs only
            # once it gets the GIL, which the producer would keep for up to
            # the switch interval. Blocking here until the consumer has taken
            # the segment hands the GIL over; a busy consumer is not waiting,
            # so a producer that runs ahead of it does not block.
            with turn:
                turn.wait_for(lambda: not waiting or taken >= item[0])

        def producer():
            try:
                produce()
            except _Abort:
                pass
            except BaseException as e:  # handed to the consumer, which raises it
                if not stop.is_set():
                    q.put(e)

        th = threading.Thread(target=producer, name="segment-producer", daemon=True)
        th.start()
        try:
            for _ in range(p.S):
                with turn:
                    waiting = True
                item = q.get()
                with turn:
                    waiting, taken = False, taken + 1
                    turn.notify()
                if isinstance(item, BaseException):
                    raise StreamError(str(item), events) from item
                consume(item)
        except BaseException:
            stop.set()
            with turn:
                waiting = False
                turn.notify()
            try:
                while True:
                    q.get_nowait()
            except queue.Empty:
                pass
            raise
        finally:
            th.join()

    return video, events, TimingModel(tuple(denoise_ms), tuple(decode_ms))


def _schedule(tm: TimingModel):
    """Completion times per segment under the idealized model: the cumulative
    denoise times, and end_decode(s) = max(end_denoise(s), end_decode(s-1))
    + decode(s)."""
    end_denoise = [float(x) for x in np.cumsum(tm.denoise_s)]
    end_decode, last = [], 0.0
    for den, dec in zip(end_denoise, tm.decode_s):
        last = max(den, last) + dec
        end_decode.append(last)
    return end_denoise, end_decode


def predict_timing(tm: TimingModel) -> dict:
    """Idealized pipeline schedule.

    Returns first_output (first segment decoded), full_output (last segment
    decoded), and the no-overlap sequential_total.
    """
    _, end_decode = _schedule(tm)
    return {
        "first_output": end_decode[0] if end_decode else None,
        "full_output": end_decode[-1] if end_decode else 0.0,
        "sequential_total": float(sum(tm.denoise_s) + sum(tm.decode_s)),
    }


def predicted_order(tm: TimingModel) -> list:
    """(kind, index) sequence of denoise/decode completions under the model.

    Ties resolve denoise-first (a decode can only consume already-denoised
    work).
    """
    end_denoise, end_decode = _schedule(tm)
    evs = sorted([(t, 0, s) for s, t in enumerate(end_denoise, 1)]
                 + [(t, 1, s) for s, t in enumerate(end_decode, 1)])
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
