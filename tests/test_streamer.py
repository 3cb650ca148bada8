"""Streaming runtime tests: bit-exact equivalence with sequential inference,
event-log invariants, failure propagation, and the timing model."""

import csv
import queue
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from segvid import cli, mixer, scheduler, stage2, streamer, synth
from segvid.codec import decode
from segvid.conditioning import StageTwoInput
from segvid.streamer import StreamError, StreamEvent, TimingModel


def make_setup(seed, T, M=3, N=1):
    v_hr = synth.render_scene(synth.SceneSpec(seed=seed, T=T, H=16, W=16))
    model = stage2.new_stage2(seed, hr_h=16, hr_w=16)
    inp = cli._truth_input(v_hr, model.codec_cfg)
    p = scheduler.plan(inp.z_ref.shape[0], M, N)
    return model, inp, p


@pytest.fixture(scope="module")
def small():
    model, inp, p = make_setup(seed=5, T=37)  # t=10, S=3
    z = stage2.infer_csg(model, inp, p, seed=5)
    baseline = decode(z, model.codec_cfg)
    return model, inp, p, baseline


def test_serial_matches_sequential(small):
    model, inp, p, baseline = small
    video, events, tm = streamer.run_streaming(model, inp, p, seed=5, mode="serial")
    assert np.array_equal(video, baseline)
    streamer.check_events(events, p)
    assert len(tm.denoise_s) == p.S


def test_serial_interleaves_denoise_and_decode(small):
    model, inp, p, _ = small
    _, events, _ = streamer.run_streaming(model, inp, p, seed=5, mode="serial")
    want = []
    for s in range(1, p.S + 1):
        want += [("segment_denoised", s)]
        want += [("frames_emitted", i - 1) for i in p.I[s - 1]]
        want += [("segment_decoded", s)]
    assert [(e.kind, e.index) for e in events] == want


def test_threads_match_for_any_capacity_and_delays(small, consumer_delays):
    model, inp, p, baseline = small
    rng = np.random.default_rng(0)
    schedules = [None] + [rng.uniform(0.0, 0.004, p.S).tolist() for _ in range(2)]
    for cap in (1, 2, 8):
        for delays in schedules:
            consumer_delays(p, delays)
            video, events, _ = streamer.run_streaming(model, inp, p, seed=5, queue_capacity=cap)
            assert np.array_equal(video, baseline), (cap, delays)
            streamer.check_events(events, p)


def test_threads_hand_off_under_fast_gil_switching(small, consumer_delays):
    # the producer waits at a hand-off only while the consumer is idle; with
    # the GIL switching every microsecond and the consumer sometimes slower
    # than the producer, no run may stall, lose a segment or change a bit
    model, inp, p, baseline = small
    rng = np.random.default_rng(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for run in range(12):
            consumer_delays(p, None if run % 3 == 0 else rng.uniform(0.0, 0.002, p.S).tolist())
            out = []
            th = threading.Thread(target=lambda: out.append(streamer.run_streaming(
                model, inp, p, seed=5, queue_capacity=1 + run % 2)), daemon=True)
            th.start()
            th.join(timeout=30.0)
            assert not th.is_alive(), f"run {run} did not finish"
            video, events, _ = out[0]
            assert np.array_equal(video, baseline), run
            streamer.check_events(events, p)
    finally:
        sys.setswitchinterval(interval)
    assert not _producer_alive()


def test_hand_off_when_the_consumer_finishes_first(small, monkeypatch):
    # each put lets the consumer take the segment, decode it and wait for
    # the next one before the producer returns from it: the producer must
    # see the segment as taken, not wait for the consumer to hold one
    model, inp, p, baseline = small

    class Slow(queue.Queue):
        def put(self, item, block=True, timeout=None):
            super().put(item, block, timeout)
            time.sleep(0.005)

    monkeypatch.setattr(streamer.queue, "Queue", Slow)
    out = []
    th = threading.Thread(target=lambda: out.append(streamer.run_streaming(
        model, inp, p, seed=5, queue_capacity=1)), daemon=True)
    th.start()
    th.join(timeout=10.0)
    assert not th.is_alive(), "the producer waits for a segment the consumer already took"
    assert np.array_equal(out[0][0], baseline)


def _peak_bytes(fn):
    """Peak traced allocation of fn(), above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_video_is_held_once():
    # T=641 at 32x32: decode and both streaming modes fill one video array,
    # so their peak is the video plus the latents and one window's work arrays,
    # not the video twice (a list of frame groups, then their concatenation)
    model = stage2.new_stage2(0)
    rng = np.random.default_rng(0)
    t, h, w, c = 161, 8, 8, model.codec_cfg.c
    inp = StageTwoInput(z_ref=rng.standard_normal((t, h, w, c)).astype(np.float32),
                        z_x=rng.standard_normal((h, w, c)).astype(np.float32))
    p = scheduler.plan(t, 3, 1)
    z = stage2.infer_csg(model, inp, p, seed=0)
    video = decode(z, model.codec_cfg)
    assert video.shape == (641, 32, 32, 3)
    limit = video.nbytes + (1 << 20)
    runs = {"decode": lambda: decode(z, model.codec_cfg)}
    for mode in ("serial", "threads"):
        runs[mode] = lambda mode=mode: streamer.run_streaming(model, inp, p, seed=0, mode=mode)
    for name, run in runs.items():
        peak = _peak_bytes(run)
        assert peak <= limit, f"{name}: {peak} bytes at peak, video is {video.nbytes}"


def test_event_counts_and_csv(tmp_path):
    model, inp, p = make_setup(seed=8, T=81)  # t=21, S=7
    video, events, _ = streamer.run_streaming(model, inp, p, seed=1)
    assert video.shape == (81, 16, 16, 3)
    kinds = [e.kind for e in events]
    assert kinds.count("segment_denoised") == 7
    assert kinds.count("segment_decoded") == 7
    assert kinds.count("frames_emitted") == 20
    streamer.check_events(events, p)
    # anchor frame rides with segment 1: first frame group closes before any
    # later denoise completes its decode
    first_emit = kinds.index("frames_emitted")
    assert first_emit < kinds.index("segment_decoded")

    path = tmp_path / "events.csv"
    streamer.write_events_csv(path, events)
    with path.open() as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["kind", "index", "t_ms"]
    assert len(rows) == 1 + len(events)
    assert [r[0] for r in rows[1:]] == kinds
    assert all(float(r[2]) >= 0.0 for r in rows[1:])


def test_argument_validation(small):
    model, inp, p, _ = small
    with pytest.raises(ValueError):
        streamer.run_streaming(model, inp, p, seed=0, queue_capacity=0)
    with pytest.raises(ValueError):
        streamer.run_streaming(model, inp, p, seed=0, mode="fork")
    with pytest.raises(ValueError):
        TimingModel((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        TimingModel((1.0, -2.0), (1.0, 1.0))


def _valid_log():
    p = scheduler.plan(9, 2, 1)
    events, t = [], 0.0
    for s in range(1, p.S + 1):
        t += 10.0
        events.append(StreamEvent("segment_denoised", s, t))
        for i in p.I[s - 1]:
            t += 1.0
            events.append(StreamEvent("frames_emitted", i - 1, t))
        t += 1.0
        events.append(StreamEvent("segment_decoded", s, t))
    return p, events


def test_check_events_accepts_valid_log():
    p, events = _valid_log()
    streamer.check_events(events, p)


def test_check_events_rejects_bad_logs():
    p, events = _valid_log()
    with pytest.raises(ValueError, match="unknown event kind"):
        streamer.check_events(events + [StreamEvent("bogus", 1, 99.0)], p)
    with pytest.raises(ValueError, match="missing segment"):
        streamer.check_events(events[:-1], p)
    # decode stamped before its denoise
    swapped = [StreamEvent("segment_decoded", 1, 1.0)] + [
        e for e in events if not (e.kind == "segment_decoded" and e.index == 1)]
    with pytest.raises(ValueError, match="decoded before denoised"):
        streamer.check_events(swapped, p)
    # duplicated frame group breaks strict monotonicity
    dup = events + [StreamEvent("frames_emitted", 3, 999.0)]
    with pytest.raises(ValueError, match="strictly increasing"):
        streamer.check_events(dup, p)
    # dropped frame group
    short = [e for e in events if not (e.kind == "frames_emitted" and e.index == 8)]
    with pytest.raises(ValueError, match="frame groups"):
        streamer.check_events(short, p)


def _producer_alive():
    return any(th.name == "segment-producer" for th in threading.enumerate())


def test_producer_failure_preserves_partial_log(small, monkeypatch):
    model, inp, p, _ = small
    real = mixer.denoise_window
    windows = []

    def boom(*args, **kwargs):  # segment s runs the request's s-th window
        windows.append(args[4])
        if len(windows) == 2:
            raise RuntimeError("injected segment failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(mixer, "denoise_window", boom)
    with pytest.raises(StreamError) as ei:
        streamer.run_streaming(model, inp, p, seed=5)
    events = ei.value.events
    assert [e.index for e in events if e.kind == "segment_denoised"] == [1]
    assert [e.index for e in events if e.kind == "segment_decoded"] == [1]
    assert "injected segment failure" in str(ei.value)
    assert windows == [p.W[0], p.W[1]]
    assert all(e.kind in streamer.KINDS for e in events)
    assert not _producer_alive()


def test_producer_failure_before_first_event(small):
    model, inp, p, _ = small
    bad = type(inp)(z_ref=inp.z_ref[:4].copy(), z_x=inp.z_x.copy())  # wrong block count
    with pytest.raises(StreamError) as ei:
        streamer.run_streaming(model, inp=bad, p=p, seed=5)
    assert ei.value.events == []
    assert not _producer_alive()


def test_decoder_failure_joins_producer(small, monkeypatch):
    # decode_block raises on segment 2's first block: the consumer's own
    # exception propagates, and only after the producer thread has ended
    model, inp, p, _ = small
    real = streamer.decode_block
    calls = []

    def flaky(block, cfg, first, out=None):
        calls.append(first)
        if len(calls) == 1 + len(p.I[0]) + 1:  # anchor, segment 1, then segment 2
            raise ArithmeticError("injected decode failure")
        return real(block, cfg, first, out)

    monkeypatch.setattr(streamer, "decode_block", flaky)
    with pytest.raises(ArithmeticError, match="injected decode failure"):
        streamer.run_streaming(model, inp, p, seed=5, mode="threads")
    assert not _producer_alive()
    assert len(calls) == 1 + len(p.I[0]) + 1


def test_consumer_failure_while_producer_blocked(small, monkeypatch):
    # capacity 1: the consumer fails while holding segment 1, once segment 2
    # fills the queue and the producer is blocked putting segment 3
    model, inp, p, _ = small
    assert p.S >= 3
    blocked = threading.Event()

    class Watched(queue.Queue):
        def put(self, item, block=True, timeout=None):
            if item[0] == 3 and self.full():
                blocked.set()
            super().put(item, block, timeout)

    def stuck(block, cfg, first, out=None):
        assert blocked.wait(timeout=30.0), "producer never blocked on the full queue"
        raise ArithmeticError("injected consumer failure")

    monkeypatch.setattr(streamer.queue, "Queue", Watched)
    monkeypatch.setattr(streamer, "decode_block", stuck)
    with pytest.raises(ArithmeticError, match="injected consumer failure"):
        streamer.run_streaming(model, inp, p, seed=5, queue_capacity=1, mode="threads")
    assert blocked.is_set()
    assert not _producer_alive()


def test_consumer_failure_stops_producer_early(monkeypatch):
    # capacity 1 and S=7, and the consumer fails on its first decode: the
    # producer, at most two segments ahead, must stop at its next hand-off
    # instead of denoising the rest or blocking on a queue nobody drains
    model, inp, p = make_setup(seed=8, T=81)
    real = mixer.denoise_window
    denoised = []

    def counted(*args, **kwargs):  # segment s runs the request's s-th window
        denoised.append(args[4])
        return real(*args, **kwargs)

    def fail(block, cfg, first, out=None):
        raise ArithmeticError("injected consumer failure")

    monkeypatch.setattr(mixer, "denoise_window", counted)
    monkeypatch.setattr(streamer, "decode_block", fail)
    raised = []

    def run():
        try:
            streamer.run_streaming(model, inp, p, seed=1, queue_capacity=1)
        except ArithmeticError as e:
            raised.append(e)

    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(timeout=30.0)
    assert not th.is_alive(), "run_streaming did not return after the consumer failed"
    assert len(raised) == 1 and not _producer_alive()
    assert p.S == 7 and len(denoised) <= 4 and denoised == list(p.W[:len(denoised)])


def test_predict_timing_examples():
    tm = TimingModel((2.0, 2.0, 2.0), (5.0, 5.0, 5.0))
    out = streamer.predict_timing(tm)
    assert out["first_output"] == 7.0
    assert out["full_output"] == 17.0
    assert out["sequential_total"] == 21.0
    # free decode: outputs land exactly at the denoise completions
    free = streamer.predict_timing(TimingModel((1.0, 1.0), (0.0, 0.0)))
    assert free["first_output"] == 1.0 and free["full_output"] == 2.0
    # denoise-dominated: decode hides entirely behind the next denoise
    tm2 = TimingModel((25 / 7,) * 7, (22 / 7,) * 7)
    out2 = streamer.predict_timing(tm2)
    assert abs(out2["full_output"] - (25.0 + 22.0 / 7.0)) < 1e-9
    assert out2["full_output"] < 30.0 < out2["sequential_total"]


def test_predicted_order_tie_is_denoise_first():
    order = streamer.predicted_order(TimingModel((1.0, 1.0), (1.0, 3.0)))
    assert order == [("segment_denoised", 1), ("segment_denoised", 2),
                     ("segment_decoded", 1), ("segment_decoded", 2)]


def test_timing_matches_hand_simulation():
    rng = np.random.default_rng(7)
    for _ in range(10):
        S = int(rng.integers(1, 7))
        den = tuple(float(x) for x in rng.integers(1, 10, S))
        dec = tuple(float(x) for x in rng.integers(0, 10, S))
        tm = TimingModel(den, dec)
        first, full, seq, order = oracles.timing_ref(den, dec)
        out = streamer.predict_timing(tm)
        assert abs(out["first_output"] - first) < 1e-9
        assert abs(out["full_output"] - full) < 1e-9
        assert abs(out["sequential_total"] - seq) < 1e-9
        assert streamer.predicted_order(tm) == order


def test_timing_invariants():
    rng = np.random.default_rng(11)
    for _ in range(50):
        S = int(rng.integers(1, 9))
        den = tuple(float(x) for x in rng.uniform(0, 5, S))
        dec = tuple(float(x) for x in rng.uniform(0, 5, S))
        out = streamer.predict_timing(TimingModel(den, dec))
        assert out["first_output"] <= out["full_output"] <= out["sequential_total"] + 1e-12
        # cannot finish before the last denoise, nor before the decode chain
        # that starts when the first segment lands
        assert out["full_output"] >= sum(den) - 1e-12
        assert out["full_output"] >= den[0] + sum(dec) - 1e-12


def test_observed_order_filters_frames(small):
    model, inp, p, _ = small
    _, events, _ = streamer.run_streaming(model, inp, p, seed=5, mode="serial")
    order = streamer.observed_order(events)
    assert all(k in ("segment_denoised", "segment_decoded") for k, _ in order)
    assert len(order) == 2 * p.S
