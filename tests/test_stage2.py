"""Stage II tests: CSG inference discipline, training step, persistence."""

import gc
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from segvid import cli, mixer, scheduler, stage1, stage2, synth
from segvid.codec import CodecConfig, encode
from segvid.conditioning import StageTwoInput, encode_reference
from segvid.grid import FLOAT, SUB_TRAIN, Rng

import oracles


def down_pair(v):
    """A plain training pair: (LR clip, HR clip)."""
    return stage1.low_res(v, CodecConfig()), v


def encoded(model, pairs):
    cfg = model.codec_cfg
    return [stage2.pair_latents(cfg, v_lr, encode(v_hr, cfg)) for v_lr, v_hr in pairs]


def truth_and_input(seed=0, T=33, cfg=None):
    truth = synth.render_scene(synth.SceneSpec(seed=seed, T=T))
    cfg = cfg or stage2.new_stage2(0).codec_cfg
    return truth, cli._truth_input(truth, cfg)


def test_infer_deterministic():
    model = stage2.new_stage2(1)
    _, inp = truth_and_input()
    p = scheduler.plan(inp.z_ref.shape[0], 3, 1)
    a = stage2.infer_csg(model, inp, p, 7)
    b = stage2.infer_csg(model, inp, p, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, stage2.infer_csg(model, inp, p, 8))


def test_anchor_survives_inference():
    model = stage2.new_stage2(1)
    _, inp = truth_and_input()
    p = scheduler.plan(inp.z_ref.shape[0], 3, 1)
    z0 = stage2.infer_csg(model, inp, p, 0)
    npt.assert_array_equal(z0[0], inp.z_x)


def test_write_set_discipline(monkeypatch):
    # a block is zero until its segment starts, enters its first window
    # holding exactly its seeded initial noise, and never changes after its
    # segment; a window's prefix holds the finished latents of its blocks,
    # and its reference half the reference of all its blocks
    model = stage2.new_stage2(2)
    _, inp = truth_and_input(seed=1)
    t = inp.z_ref.shape[0]
    c = inp.z_x.shape[-1]
    p = scheduler.plan(t, 3, 1)
    init = mixer.init_latents(inp.z_x, t, 5, stage2.NOISE_KEY)
    real = mixer.denoise_window
    windows = []

    def watched(params, sigmas, zr, tail, indices, ws, on_step=None):
        windows.append((zr.copy(), tail.copy(), tuple(indices)))
        return real(params, sigmas, zr, tail, indices, ws, on_step)

    monkeypatch.setattr(mixer, "denoise_window", watched)
    states = []
    final = stage2.infer_csg(model, inp, p, 5, on_segment=lambda s, z: states.append(z.copy()))
    assert len(windows) == len(states) == p.S
    for s, ((zr, tail, idx), z) in enumerate(zip(windows, states), 1):
        m = len(tail)
        assert idx == p.W[s - 1] and m == len(p.I[s - 1])
        rows = np.asarray(idx) - 1
        assert tail.tobytes() == init[rows[-m:]].tobytes()
        assert zr[:-m, ..., :c].tobytes() == final[rows[:-m]].tobytes()
        assert zr[..., c:].tobytes() == inp.z_ref[rows].tobytes()
        last = p.I[s - 1][-1]
        assert z[:last].tobytes() == final[:last].tobytes()
        assert not z[last:].any()
    npt.assert_array_equal(final[0], inp.z_x)


@settings(deadline=None, max_examples=60)
@given(t=st.integers(2, 14), data=st.data(), K=st.integers(1, 4),
       mask_mode=st.sampled_from(mixer.MASK_MODES), dtype=st.sampled_from((FLOAT, np.float64)),
       seed=st.integers(0, 2**32 - 1))
def test_infer_csg_equals_concat_oracle(t, data, K, mask_mode, dtype, seed):
    # the packed request buffer, the reused window buffers and workspaces and
    # the pixel write-backs give, per step and per segment, the bits of a
    # segment loop that gathers each window afresh and concatenates [z | ref]
    # at every step (N = 0 and M = t - 1 included)
    M = data.draw(st.integers(1, t - 1))
    N = data.draw(st.integers(0, 3))
    p = scheduler.plan(t, M, N)
    h, w, c = 2, 1, 3
    g = np.random.default_rng(seed)
    inp = StageTwoInput(z_ref=g.standard_normal((t, h, w, c)).astype(FLOAT),
                        z_x=g.standard_normal((h, w, c)).astype(FLOAT))
    params = mixer.init_mixer(Rng(seed), h * w * 2 * c, h * w * c, d=8,
                              mask_mode=mask_mode).astype(dtype)
    model = mixer.StageModel(params, CodecConfig(c=c), mixer.default_schedule(K))
    sigmas = model.schedule.sigmas
    steps, states = [], []
    got = stage2.infer_csg(model, inp, p, seed,
                           on_step=lambda s, k, zw, idx: steps.append((s, k, idx, zw.copy())),
                           on_segment=lambda s, z: states.append(z.copy()))

    init = mixer.init_latents(inp.z_x, t, seed, stage2.NOISE_KEY)
    z = np.zeros_like(init)
    z[0] = init[0]
    want_steps, want_states = [], []
    for s in range(1, p.S + 1):
        idx, m = p.W[s - 1], len(p.I[s - 1])
        rows = np.asarray(idx) - 1
        z[rows[-m:]] = init[rows[-m:]]
        win = oracles.denoise_window_concat(
            lambda x, sigma: mixer.forward(params, x, sigma, idx), sigmas, z[rows],
            inp.z_ref[rows], np.arange(len(idx)) >= len(idx) - m,
            on_step=lambda k, zw: want_steps.append((s, k, idx, zw.copy())))
        z[rows[-m:]] = win[-m:]
        want_states.append(z.copy())
    assert got.dtype == FLOAT and got.tobytes() == z.tobytes()
    assert len(steps) == len(want_steps) == p.S * K
    for (s, k, idx, zw), (s_, k_, idx_, zw_) in zip(steps, want_steps):
        assert (s, k, idx) == (s_, k_, idx_)
        assert zw.astype(FLOAT).tobytes() == zw_.tobytes(), (s, k)
    assert len(states) == p.S
    for s, (state, want) in enumerate(zip(states, want_states), 1):
        assert state.astype(FLOAT).tobytes() == want.tobytes(), s


def test_single_segment_plan_equals_full_window():
    model = stage2.new_stage2(3)
    _, inp = truth_and_input(seed=2)
    t = inp.z_ref.shape[0]
    p = scheduler.plan(t, t - 1, 0)
    assert p.S == 1
    npt.assert_array_equal(stage2.infer_csg(model, inp, p, 11),
                           stage2.infer_full(model, inp, 11))


def test_zero_init_reference_invariance():
    model = stage2.new_stage2(4)  # fresh: reference rows of w_in are zero
    _, inp = truth_and_input(seed=3)
    other = StageTwoInput(z_ref=inp.z_ref + 1.5, z_x=inp.z_x)
    p = scheduler.plan(inp.z_ref.shape[0], 3, 1)
    npt.assert_array_equal(stage2.infer_csg(model, inp, p, 0),
                           stage2.infer_csg(model, other, p, 0))


def test_trained_model_uses_reference():
    model = stage2.new_stage2(4)
    truth, inp = truth_and_input(seed=3)
    pairs = encoded(model, [down_pair(truth)])
    stage2.train(model, [], pairs, steps=50, seed=0, lr=3e-4)
    other = StageTwoInput(z_ref=inp.z_ref + 1.5, z_x=inp.z_x)
    p = scheduler.plan(inp.z_ref.shape[0], 3, 1)
    assert not np.array_equal(stage2.infer_csg(model, inp, p, 0),
                              stage2.infer_csg(model, other, p, 0))


def test_plan_mismatch_rejected():
    model = stage2.new_stage2(5)
    _, inp = truth_and_input()
    with pytest.raises(ValueError):
        stage2.infer_csg(model, inp, scheduler.plan(4, 3, 1), 0)


def test_train_step_draws_mn_from_choices():
    model = stage2.new_stage2(6)
    truth, _ = truth_and_input(seed=4, T=17)
    pair = encoded(model, [down_pair(truth)])
    log = stage2.train(model, [], pair, steps=60, seed=0, lr=1e-4)
    assert {(M, N) for _, _, M, N, _ in log} == set(stage2.MN_CHOICES)
    # a given (M, N) is the one used: eval_loss at (3, 2) is the retired
    # stage-2 loss at (3, 2) over the same draws
    g = Rng(1).split(SUB_TRAIN)
    want = sum(oracles.stage2_loss_terms(model.params, *pair[0], g, 3, 2)[0]
               for _ in range(4)) / 4
    assert stage2.eval_loss(model, pair, seed=1, draws=4, M=3, N=2) == want


def test_train_mix_ratio_and_log():
    model = stage2.new_stage2(7)
    truth, _ = truth_and_input(seed=5, T=17)
    pair = encoded(model, [down_pair(truth)])[0]
    log = stage2.train(model, [pair], [pair], steps=200, seed=3, lr=1e-4)
    srcs = [row[4] for row in log]
    share = srcs.count("transition") / len(srcs)
    assert 0.55 < share < 0.85  # seeded 7:3 mix
    assert all(row[3] in (1, 2) and row[2] in (2, 3) for row in log)
    # without transition pairs everything falls back to downsampled
    log2 = stage2.train(stage2.new_stage2(7), [], [pair], steps=20, seed=3, lr=1e-4)
    assert all(row[4] == "downsampled" for row in log2)


def test_training_improves_heldout_loss():
    clips = [synth.render_scene(s) for s in synth.default_specs(4, 60, T=17)]
    model = stage2.new_stage2(0)
    pairs = encoded(model, [down_pair(v) for v in clips])
    before = stage2.eval_loss(model, pairs, seed=42)
    stage2.train(model, [], pairs, steps=500, seed=0, lr=3e-4)
    after = stage2.eval_loss(model, pairs, seed=42)
    assert after < before and np.isfinite(after)


def test_train_rejects_short_clip():
    model = stage2.new_stage2(8)
    clip = np.zeros((1, 32, 32, 3), FLOAT)
    pairs = encoded(model, [(clip[:, :8, :8], clip)])
    with pytest.raises(ValueError, match="no blocks to generate beyond the anchor"):
        stage2.train(model, [], pairs, steps=1, seed=0)
    with pytest.raises(ValueError, match="no blocks to generate beyond the anchor"):
        stage2.eval_loss(model, pairs, seed=0)


def test_save_load_roundtrip(tmp_path):
    model = stage2.new_stage2(9, mask_mode="causal")
    mixer.save_model(model, str(tmp_path), "stage2")
    back = stage2.load_stage2(str(tmp_path))
    assert back.params.mask_mode == "causal"
    assert back.codec_cfg == model.codec_cfg
    _, inp = truth_and_input(seed=6, T=17)
    p = scheduler.plan(inp.z_ref.shape[0], 2, 1)
    npt.assert_array_equal(stage2.infer_csg(back, inp, p, 1),
                           stage2.infer_csg(model, inp, p, 1))


def test_pipeline_inputs_shapes():
    s1 = stage1.new_stage1(0)
    s2 = stage2.new_stage2(0)
    x = synth.render_scene(synth.SceneSpec(seed=8, T=17))[0]
    inp = stage2.pipeline_inputs(s1, s2, x, 17, seed=0)
    assert inp.z_ref.shape == (5, 8, 8, 4)
    npt.assert_array_equal(inp.z_x, inp.z_ref[0])


@pytest.mark.parametrize("T", [17, 81])
def test_pipeline_inputs_equal_decoded_lr_video_oracle(T):
    # the block means read off the stage-1 latents give the bits of decoding
    # the LR video and encoding its HR hybrid reference
    for seed in range(3):
        s1, s2 = stage1.new_stage1(seed), stage2.new_stage2(seed)
        x = synth.render_scene(synth.SceneSpec(seed=20 + seed, T=1))[0]
        got = stage2.pipeline_inputs(s1, s2, x, T, seed)
        want = oracles.pipeline_inputs_via_lr_video(s1, s2, x, T, seed)
        npt.assert_array_equal(got.z_ref, want.z_ref)
        npt.assert_array_equal(got.z_x, want.z_x)


def test_pipeline_inputs_rejects_stage_f_t_mismatch():
    s1 = stage1.new_stage1(0, codec_cfg=CodecConfig(f_t=2))
    x = synth.render_scene(synth.SceneSpec(seed=8, T=1))[0]
    with pytest.raises(ValueError, match="stage-1 f_t=2 differs from stage-2 f_t=4"):
        stage2.pipeline_inputs(s1, stage2.new_stage2(0), x, 17, seed=0)


def _pairs(seed, n=2, T=17):
    clips = [synth.render_scene(s) for s in synth.default_specs(n, seed, T=T)]
    return [down_pair(v) for v in clips]


def _same_params(a, b):
    return all(np.array_equal(getattr(a, n), getattr(b, n))
               for n in ("w_in", "w_q", "w_k", "w_v", "w_out"))


@pytest.mark.parametrize("with_transition", [True, False])
def test_train_matches_hand_loop_of_train_step(with_transition):
    # train() steps through the shared window loss on pairs encoded once; the
    # retired train_step re-encodes and runs the retired stage-2 loss. Same
    # stream, drawn in the same order (source, (M, N), segment, sigma, eps),
    # so the log and the final parameters agree bit for bit.
    down = _pairs(70)
    trans = [(0.5 * v_lr + 0.25, v_hr) for v_lr, v_hr in _pairs(80, n=3)]
    trans = trans if with_transition else []
    a, b = stage2.new_stage2(3), stage2.new_stage2(3)
    log = stage2.train(a, encoded(a, trans), encoded(a, down), steps=20, seed=9, lr=3e-4)
    g = Rng(9).split(SUB_TRAIN)
    hand = []
    for step in range(20):
        use = bool(trans) and g.uniform01() < stage2.TRANSITION_SHARE
        pool = trans if use else down
        loss, M, N = oracles.stage2_train_step(b, *pool[step % len(pool)], g, lr=3e-4)
        hand.append((step, loss, M, N, "transition" if use else "downsampled"))
    assert log == hand
    assert _same_params(a.params, b.params)
    sources = {row[4] for row in log}
    assert sources == ({"transition", "downsampled"} if with_transition else {"downsampled"})


@pytest.mark.parametrize("steps", [10, 50])
def test_train_encodes_each_pair_once(monkeypatch, tmp_path, steps):
    # train and eval_loss take encoded pairs; the train-stage2 command
    # encodes each HR clip once, shared by its transition and downsampled
    # pair, and each pair's reference latents once
    calls = []

    def counting(fn):
        def count(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return count

    corpus, s1 = str(tmp_path / "corpus"), str(tmp_path / "s1")
    assert cli.main(["synth", "--out", corpus, "--count", "3", "--frames", "17"]) == 0
    assert cli.main(["train-stage1", "--corpus", corpus, "--out", s1, "--steps", "5"]) == 0
    monkeypatch.setattr(cli, "encode", counting(encode))
    monkeypatch.setattr(stage2, "encode_reference", counting(encode_reference))
    assert cli.main(["train-stage2", "--corpus", corpus, "--stage1", s1,
                     "--out", str(tmp_path / "s2"), "--steps", str(steps)]) == 0
    assert sorted(calls) == ["encode"] * 3 + ["encode_reference"] * (3 + 3)


def test_train_raises_on_divergence():
    pairs = encoded(stage2.new_stage2(0), _pairs(70))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="stage 2 .* at step 1"):
            stage2.train(stage2.new_stage2(0), [], pairs, steps=4, seed=0, lr=1e6)
        with pytest.raises(FloatingPointError, match="stage 2 .*parameters non-finite after step 0"):
            stage2.train(stage2.new_stage2(0), [], pairs, steps=1, seed=0, lr=float("inf"))


def _retained_bytes(run) -> int:
    """Traced memory still held after run() returns and its result is dropped."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    log = run()
    del log
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before


def test_training_retains_no_memory_per_step():
    # a run's workspaces and windows go with the run: what stage1.train and
    # stage2.train leave behind does not grow with the step count. Each run
    # gets latents of its own, as each train command encodes its own, so a
    # cache kept across runs shows here too.
    cfg = CodecConfig()
    clips = [synth.render_scene(s) for s in synth.default_specs(6, 0, T=81)]
    zs1 = [encode(stage1.low_res(v, cfg), cfg) for v in clips]
    pairs = encoded(stage2.new_stage2(0), [down_pair(v) for v in clips])
    runs = {
        1: lambda steps: stage1.train(stage1.new_stage1(0), [z.copy() for z in zs1], steps, 0),
        2: lambda steps: stage2.train(stage2.new_stage2(0),
                                      [(r.copy(), z.copy()) for r, z in pairs[:3]],
                                      [(r.copy(), z.copy()) for r, z in pairs[3:]],
                                      steps, 0, 3e-4),
    }
    tracemalloc.start()
    try:
        for stage, run in runs.items():
            run(600)  # fills the bounded caches (noise-level and position codes, window rows)
            short, long = (_retained_bytes(lambda: run(steps)) for steps in (50, 600))
            assert long - short <= 16 * 1024, f"stage {stage}: {short} B after 50 steps, " \
                                              f"{long} B after 600"
    finally:
        tracemalloc.stop()
