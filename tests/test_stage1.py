"""Stage I tests: generation determinism, anchored partial denoising,
training, and bit-equality with the stage-1 code that preceded the shared
window loss and full-window denoise."""

import copy

import numpy as np
import numpy.testing as npt
import pytest

from segvid import cli, mixer, scheduler, stage1, synth
from segvid.codec import CodecConfig, decode, encode
from segvid.grid import SUB_TRAIN, Rng, init_noise_blocks

import oracles


def lr_clips(n=4, T=17):
    specs = synth.default_specs(n, 40, T=T)
    return [stage1.low_res(synth.render_scene(s), CodecConfig()) for s in specs]


def latents(clips, model):
    return [encode(v, model.codec_cfg) for v in clips]


def test_generate_lr_deterministic():
    model = stage1.new_stage1(0)
    x = lr_clips(1)[0][0]
    a = stage1.generate_lr(model, x, 17, seed=3)
    b = stage1.generate_lr(model, x, 17, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (5, 2, 2, 4)  # latents; they decode to the (17, 8, 8, 3) LR video
    c = stage1.generate_lr(model, x, 17, seed=4)
    assert not np.array_equal(a, c)


def test_first_frame_reconstructs_input():
    model = stage1.new_stage1(0)
    x = lr_clips(1)[0][0]
    video = decode(stage1.generate_lr(model, x, 17, seed=0), model.codec_cfg)
    # anchor block decodes to the pooled projection of x, bit-stable per seed
    want = decode(encode(x[None], model.codec_cfg), model.codec_cfg)[0]
    npt.assert_array_equal(video[0], want)


def test_denoise_from_keeps_anchor_slot():
    model = stage1.new_stage1(1)
    g = np.random.default_rng(0)
    z = g.standard_normal((5, 2, 2, 4)).astype(np.float32)
    x = lr_clips(1)[0][0]
    out = stage1.denoise_from(model, z, x, 0.5, 2)
    npt.assert_array_equal(out[0], z[0])
    assert not np.array_equal(out[1:], z[1:])


def test_denoise_from_null_model_is_identity():
    model = oracles.null_stage1()
    g = np.random.default_rng(1)
    z = g.standard_normal((5, 2, 2, 4)).astype(np.float32)
    out = stage1.denoise_from(model, z, lr_clips(1)[0][0], 1.0, 4)
    npt.assert_array_equal(out, z)


def test_denoise_from_schedule_equivalence():
    # sigma_start=1 with steps=K walks the same ladder as generate_lr
    model = stage1.new_stage1(2)
    x = lr_clips(1)[0][0]
    T, seed = 17, 5
    via_generate = stage1.generate_lr(model, x, T, seed)
    cfg = model.codec_cfg
    z = init_noise_blocks(Rng(seed).split(1), 5, 2, 2, 4)
    z[0] = encode(x[None], cfg)[0]
    via_partial = stage1.denoise_from(model, z, x, 1.0, model.schedule.K)
    npt.assert_array_equal(via_partial, via_generate)


def test_denoise_from_rejects_zero_sigma():
    model = stage1.new_stage1(3)
    z = np.zeros((5, 2, 2, 4), np.float32)
    with pytest.raises(ValueError):
        stage1.denoise_from(model, z, lr_clips(1)[0][0], 0.0, 1)
    with pytest.raises(ValueError):
        stage1.denoise_from(model, np.zeros((5, 3, 3, 4), np.float32),
                            lr_clips(1)[0][0], 0.5, 1)


def test_training_improves_validation_loss():
    model = stage1.new_stage1(0)
    zs = latents(lr_clips(), model)
    before = stage1.eval_loss(model, zs, seed=99)
    log = stage1.train(model, zs, steps=500, seed=0)
    after = stage1.eval_loss(model, zs, seed=99)
    assert len(log) == 500
    assert after < before
    assert np.isfinite(after)


def test_train_rejects_single_block_clip():
    # the one-block plan would report "need M >= 1"; the clip is named instead
    model = stage1.new_stage1(4)
    zs = latents([np.zeros((1, 8, 8, 3), np.float32)], model)
    with pytest.raises(ValueError, match="clip too short"):
        stage1.train(model, zs, steps=1, seed=0)
    with pytest.raises(ValueError, match="clip too short"):
        stage1.eval_loss(model, zs, seed=0)


def test_save_load_roundtrip(tmp_path):
    model = stage1.new_stage1(5)
    stage1.train(model, latents(lr_clips(2), model), steps=20, seed=1)
    mixer.save_model(model, str(tmp_path), "stage1")
    back = stage1.load_stage1(str(tmp_path))
    assert back.schedule.sigmas == model.schedule.sigmas
    assert back.codec_cfg == model.codec_cfg
    x = lr_clips(1)[0][0]
    npt.assert_array_equal(stage1.generate_lr(back, x, 17, 0),
                           stage1.generate_lr(model, x, 17, 0))


def test_generate_lr_validation():
    model = stage1.new_stage1(6)
    with pytest.raises(ValueError):
        stage1.generate_lr(model, np.zeros((8, 8, 4), np.float32), 17, 0)
    with pytest.raises(ValueError):
        stage1.generate_lr(model, np.zeros((8, 8, 3), np.float32), 16, 0)


def _same_params(a, b):
    return all(np.array_equal(getattr(a, n), getattr(b, n))
               for n in ("w_in", "w_q", "w_k", "w_v", "w_out"))


def test_train_matches_hand_loop_of_train_step():
    # train() steps through the shared window loss on latents encoded once;
    # the retired train_step re-encodes and runs the retired stage-1 loss.
    # Same stream, drawn in the same order, so the log and the final
    # parameters agree bit for bit.
    clips = lr_clips(3)
    a, b = stage1.new_stage1(7), stage1.new_stage1(7)
    log = stage1.train(a, latents(clips, a), steps=10, seed=5, lr=1e-2)
    g = Rng(5).split(SUB_TRAIN)
    hand = [(s, oracles.stage1_train_step(b, clips[s % 3], g, 1e-2)) for s in range(10)]
    assert log == hand
    assert _same_params(a.params, b.params)


@pytest.mark.parametrize("steps", [10, 50])
def test_train_encodes_each_clip_once(monkeypatch, tmp_path, steps):
    # train and eval_loss take latents; the train-stage1 command encodes each
    # clip once and hands the latents to both evaluations and to training
    calls = []

    def counting(video, cfg):
        calls.append(video.shape)
        return encode(video, cfg)

    monkeypatch.setattr(cli, "encode", counting)
    monkeypatch.setattr(stage1, "encode", counting)
    corpus = str(tmp_path / "corpus")
    assert cli.main(["synth", "--out", corpus, "--count", "3", "--frames", "17"]) == 0
    assert cli.main(["train-stage1", "--corpus", corpus, "--out", str(tmp_path / "s1"),
                     "--steps", str(steps)]) == 0
    assert len(calls) == 3


def test_train_raises_on_divergence():
    zs = latents(lr_clips(2), stage1.new_stage1(0))
    with np.errstate(over="ignore", invalid="ignore"):
        # the update after step 0 overflows, so step 1's loss is not finite
        with pytest.raises(FloatingPointError, match="stage 1 .* at step 1"):
            stage1.train(stage1.new_stage1(0), zs, steps=4, seed=0, lr=1e6)
        # the only step's loss is finite; the parameters after it are not
        with pytest.raises(FloatingPointError, match="stage 1 .*parameters non-finite after step 0"):
            stage1.train(stage1.new_stage1(0), zs, steps=1, seed=0, lr=float("inf"))


def _same_grads(a, b):
    return all(np.array_equal(a[n], b[n]) for n in ("w_in", "w_q", "w_k", "w_v", "w_out"))


@pytest.mark.parametrize("T", [5, 9, 17, 33, 81])
def test_window_loss_equals_retired_stage1_loss(T):
    # stage 1 is the window of plan (t, t-1, 0) with the broadcast anchor as
    # reference: the shared window loss, stage 1's evaluation loss and its
    # training step must equal the stage-1 loss that preceded them, bit for bit
    for seed in range(40):
        model = stage1.new_stage1(seed)
        clip = np.random.default_rng(seed).random((T, 8, 8, 3), dtype=np.float32)
        z0 = encode(clip, model.codec_cfg)
        want_loss, want_grads = oracles.stage1_loss_terms(model.params, z0,
                                                          Rng(seed).split(SUB_TRAIN))
        p = scheduler.plan(z0.shape[0], z0.shape[0] - 1, 0)
        loss, grads = mixer.window_loss(model.params, np.broadcast_to(z0[0], z0.shape), z0,
                                        p.W[0], len(p.I[0]), Rng(seed).split(SUB_TRAIN))
        assert loss == want_loss
        assert _same_grads(grads, want_grads)
        if seed < 5:
            assert stage1.eval_loss(model, [z0], seed, draws=1) == want_loss
            hand = copy.deepcopy(model.params)
            mixer.sgd_update(hand, want_grads, 1e-2)
            assert stage1.train(model, [z0], steps=1, seed=seed) == [(0, want_loss)]
            assert _same_params(model.params, hand)


@pytest.mark.parametrize("T", [5, 9, 17, 33, 81])
def test_generate_lr_equals_retired_rollout(T):
    cfg = stage1.new_stage1(0).codec_cfg
    for seed in range(4):
        model = stage1.new_stage1(seed)
        x = np.random.default_rng(seed).random((8, 8, 3), dtype=np.float32)
        z_x = encode(x[None], cfg)[0]
        z = init_noise_blocks(Rng(seed).split(1), 1 + (T - 1) // cfg.f_t, *z_x.shape)
        z[0] = z_x
        want = oracles.anchored_denoise(model.params, model.schedule.sigmas, z, z_x)
        npt.assert_array_equal(stage1.generate_lr(model, x, T, seed), want)
