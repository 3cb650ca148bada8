"""The call structure that outside instrumentation relies on.

A span tracer that wraps the package's public functions at their import
sites (perfbench/tracer.py) checks, on every traced request, that a generate
request makes K1 + K2·S `mixer.forward` calls, that each `codec.decode` and
each `streamer.run_streaming` decodes through t direct `decode_block` calls,
and that every stage-2 window is gathered by `scheduler.window_gather` within
the (1 + N + M)·h·w token budget. These tests count the same calls the same
way, so a refactor that would break those checks fails here first. They also
pin that stage 1 hands stage 2 its latents: the LR video is never decoded,
so a generate request's one `codec.decode` is the HR video's, and a streamed
request makes none. A train command makes one `mixer.loss_and_grad` call per
training step and per evaluation draw, and each of its runs (the training
loop, each evaluation) builds at most one `mixer.Workspace` per window length,
all sharing one gradient buffer. A generate request's stage 2 builds at most
one `mixer.Workspace` per window length too, and its buffers are its own:
requests running at once on several threads each get their own bits.
"""

import sys
import threading

import numpy as np
import pytest

from segvid import cli, codec, mixer, scheduler, stage1, stage2, streamer, synth
from segvid.conditioning import StageTwoInput


class Counter:
    """Wraps one function at its import sites and counts its calls."""

    def __init__(self, monkeypatch, sites, name):
        real = getattr(sites[0], name)
        self.calls = []

        def counted(*args, **kwargs):
            self.calls.append((args, kwargs))
            return real(*args, **kwargs)

        for mod in sites:
            assert getattr(mod, name) is real, f"{mod.__name__}.{name} is not {name}"
            monkeypatch.setattr(mod, name, counted)

    def __len__(self):
        return len(self.calls)


@pytest.fixture(scope="module")
def request_parts():
    s1 = stage1.new_stage1(3, K=3)
    s2 = stage2.new_stage2(4, K=2)
    image = synth.render_scene(synth.SceneSpec(seed=11, T=1))[0]
    return s1, s2, image


@pytest.fixture
def counters(monkeypatch):
    return {
        "forward": Counter(monkeypatch, [mixer], "forward"),
        "decode_block": Counter(monkeypatch, [codec, streamer], "decode_block"),
        "window_gather": Counter(monkeypatch, [scheduler], "window_gather"),
    }


def _decodes_per_call(monkeypatch, counters):
    """Wrap codec.decode at its import sites; returns the list of
    decode_block counts, one per decode call."""
    real = codec.decode
    per_call = []

    def decode(latent, cfg):
        before = len(counters["decode_block"])
        video = real(latent, cfg)
        per_call.append(len(counters["decode_block"]) - before)
        return video

    sites = [m for n, m in sorted(sys.modules.items())
             if n.startswith("segvid") and getattr(m, "decode", None) is real]
    assert codec in sites
    for mod in sites:
        monkeypatch.setattr(mod, "decode", decode)
    return per_call


@pytest.mark.parametrize("T, M, N", [(17, 3, 1), (49, 2, 2), (33, 3, 2)])
def test_generate_request_call_counts(monkeypatch, request_parts, counters, T, M, N):
    s1, s2, image = request_parts
    decodes = _decodes_per_call(monkeypatch, counters)
    inp = stage2.pipeline_inputs(s1, s2, image, T, seed=5)
    p = scheduler.plan(inp.z_ref.shape[0], M, N)
    assert len(counters["forward"]) == s1.schedule.K  # stage 1: one window
    workspaces = Counter(monkeypatch, [mixer], "Workspace")
    codec.decode(stage2.infer_csg(s2, inp, p, seed=5), s2.codec_cfg)
    assert len(counters["forward"]) == s1.schedule.K + s2.schedule.K * p.S
    lengths = [args[1] for args, _ in workspaces.calls]
    assert sorted(lengths) == sorted({len(w) for w in p.W}) and len(lengths) <= 3
    assert decodes == [p.t]  # the HR video's; stage 1 hands over latents
    h, w = inp.z_x.shape[:2]
    gathered = [args[2] for args, _ in counters["window_gather"].calls]
    assert sorted(set(gathered)) == list(range(1, p.S + 1))
    tokens = [args[0].shape[1] * args[0].shape[2] * len(p.W[args[2] - 1])
              for args, _ in counters["window_gather"].calls]
    assert max(tokens) <= (1 + N + M) * h * w


def test_concurrent_requests_each_get_their_own_bits(request_parts):
    # more threads than cores, switching as often as the interpreter allows:
    # a buffer kept at module level or shared between requests would mix
    # their latents
    _, s2, _ = request_parts
    g = np.random.default_rng(0)
    jobs = []
    for i, (t, M, N) in enumerate([(13, 3, 1), (17, 2, 2), (13, 3, 1), (9, 8, 0)]):
        inp = StageTwoInput(z_ref=g.standard_normal((t, 8, 8, 4)).astype(np.float32),
                            z_x=g.standard_normal((8, 8, 4)).astype(np.float32))
        jobs.append((inp, scheduler.plan(t, M, N), i))
    want = [stage2.infer_csg(s2, inp, p, seed) for inp, p, seed in jobs]
    got = [[] for _ in jobs]

    def run(j):
        inp, p, seed = jobs[j]
        for _ in range(5):
            got[j].append(stage2.infer_csg(s2, inp, p, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,), daemon=True) for j in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for j, runs in enumerate(got):
        assert len(runs) == 5 and all(z.tobytes() == want[j].tobytes() for z in runs), j


@pytest.mark.parametrize("mode", ["serial", "threads"])
def test_run_streaming_decodes_each_block_once(monkeypatch, request_parts, counters, mode):
    s1, s2, image = request_parts
    decodes = _decodes_per_call(monkeypatch, counters)
    inp = stage2.pipeline_inputs(s1, s2, image, 41, seed=6)
    p = scheduler.plan(inp.z_ref.shape[0], 3, 1)
    before = len(counters["decode_block"]), len(counters["forward"])
    video, _, _ = streamer.run_streaming(s2, inp, p, seed=6, mode=mode)
    assert len(counters["decode_block"]) - before[0] == p.t
    assert decodes == []  # no LR video, and the stream decodes block by block
    assert len(counters["forward"]) - before[1] == s2.schedule.K * p.S
    ref = codec.decode(stage2.infer_csg(s2, inp, p, seed=6), s2.codec_cfg)
    assert np.array_equal(video, ref)


def test_commands_pool_each_clip_to_lr_once(monkeypatch, pipeline, tmp_path):
    # at the default 6-clip corpus each command pools each HR clip to LR
    # once, shared by all its uses, and pools no other whole clip: every
    # other pooling is encode's, of one frame or of the 20 block means
    real = codec.pool
    sites = [m for n, m in sorted(sys.modules.items())
             if n.startswith("segvid") and getattr(m, "pool", None) is real]
    assert stage1 in sites
    pool = Counter(monkeypatch, sites, "pool")
    corpus, s1 = pipeline["corpus"], pipeline["s1"]
    for argv in (["train-stage1", "--corpus", corpus, "--steps", "2"],
                 ["train-stage2", "--corpus", corpus, "--stage1", s1, "--steps", "2"],
                 ["transition", "--corpus", corpus, "--stage1", s1]):
        pool.calls.clear()
        assert cli.main(argv + ["--out", str(tmp_path / argv[0])]) == 0
        clips = [args[0].shape for args, _ in pool.calls if args[0].shape[0] == 81]
        assert clips == [(81, 32, 32, 3)] * 6, argv[0]


def test_train_stage2_encodes_each_hr_clip_once(monkeypatch, pipeline, tmp_path):
    # at the default 6-clip corpus, train-stage2 encodes each HR clip once,
    # shared by its transition and plain pair (12 HR encodes before); the
    # LR encodes are the transition synthesis': each LR clip and its first
    # frame, the anchor of the partial denoise
    real = codec.encode
    sites = [m for n, m in sorted(sys.modules.items())
             if n.startswith("segvid") and getattr(m, "encode", None) is real]
    encode = Counter(monkeypatch, sites, "encode")
    assert cli.main(["train-stage2", "--corpus", pipeline["corpus"], "--stage1", pipeline["s1"],
                     "--steps", "2", "--out", str(tmp_path / "s2")]) == 0
    inputs = sorted(args[0].shape for args, _ in encode.calls)
    assert inputs == sorted([(81, 32, 32, 3)] * 6 + [(81, 8, 8, 3)] * 6 + [(1, 8, 8, 3)] * 6)


@pytest.mark.parametrize("cmd", ["train-stage1", "train-stage2"])
def test_train_command_passes_and_workspaces(monkeypatch, pipeline, tmp_path, cmd):
    # steps + 2·draws passes: the evaluations before and after training draw
    # 8 windows each. A run's workspaces are its own, one per window length,
    # built on first use and reused by every later pass of that length.
    passes = Counter(monkeypatch, [mixer], "loss_and_grad")
    runs, current = [], [None]

    def run_counted(real):
        def counted(*args, **kwargs):
            current[0] = []
            runs.append(current[0])
            try:
                return real(*args, **kwargs)
            finally:
                current[0] = None
        return counted

    for name in ("train_windows", "eval_windows"):
        monkeypatch.setattr(mixer, name, run_counted(getattr(mixer, name)))
    real_ws = mixer.Workspace

    def workspace(p, n, *args, **kwargs):
        ws = real_ws(p, n, *args, **kwargs)
        if current[0] is not None:
            current[0].append(ws)
        return ws

    monkeypatch.setattr(mixer, "Workspace", workspace)
    steps, draws = 40, 8
    argv = [cmd, "--corpus", pipeline["corpus"], "--steps", str(steps), "--out", str(tmp_path)]
    if cmd == "train-stage2":
        argv += ["--stage1", pipeline["s1"]]
    assert cli.main(argv) == 0
    assert len(passes) == steps + 2 * draws
    assert len(runs) == 3  # evaluate, train, evaluate
    for spaces in runs:
        lengths = [ws.n for ws in spaces]
        assert lengths and len(lengths) == len(set(lengths)), lengths
        # and one gradient buffer, which every pass writes in turn
        assert all(np.shares_memory(ws.grads.flat, spaces[0].grads.flat) for ws in spaces)
