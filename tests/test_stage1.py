"""Stage I tests: generation determinism, anchored partial denoising, training."""

import numpy as np
import numpy.testing as npt
import pytest

from segvid import stage1, synth
from segvid.codec import decode, encode
from segvid.grid import SUB_TRAIN, Rng, init_noise_blocks, resize_spatial


def lr_clips(n=4, T=17):
    specs = synth.default_specs(n, 40, T=T)
    return [resize_spatial(synth.render_scene(s), "down_avg", 4) for s in specs]


def test_generate_lr_deterministic():
    model = stage1.new_stage1(0)
    x = lr_clips(1)[0][0]
    a = stage1.generate_lr(model, x, 17, seed=3)
    b = stage1.generate_lr(model, x, 17, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (17, 8, 8, 3)
    c = stage1.generate_lr(model, x, 17, seed=4)
    assert not np.array_equal(a, c)


def test_first_frame_reconstructs_input():
    model = stage1.new_stage1(0)
    x = lr_clips(1)[0][0]
    video = stage1.generate_lr(model, x, 17, seed=0)
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
    model = stage1.null_stage1()
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
    via_partial = decode(stage1.denoise_from(model, z, x, 1.0, model.schedule.K), cfg)
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
    clips = lr_clips()
    model = stage1.new_stage1(0)
    before = stage1.eval_loss(model, clips, seed=99)
    log = stage1.train(model, clips, steps=500, seed=0)
    after = stage1.eval_loss(model, clips, seed=99)
    assert len(log) == 500
    assert after < before
    assert np.isfinite(after)


def test_train_rejects_single_block_clip():
    model = stage1.new_stage1(4)
    clip = np.zeros((1, 8, 8, 3), np.float32)
    with pytest.raises(ValueError):
        stage1.train_step(model, clip, Rng(0))


def test_save_load_roundtrip(tmp_path):
    model = stage1.new_stage1(5)
    stage1.train(model, lr_clips(2), steps=20, seed=1)
    stage1.save_stage1(model, str(tmp_path))
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
    # train() steps on clips encoded once; train_step re-encodes per step.
    # Same Rng splits, so the log and the final parameters agree bit for bit.
    clips = lr_clips(3)
    a, b = stage1.new_stage1(7), stage1.new_stage1(7)
    log = stage1.train(a, clips, steps=10, seed=5, lr=1e-2)
    g = Rng(5).split(SUB_TRAIN)
    hand = [(s, stage1.train_step(b, clips[s % 3], g.split(s), 1e-2)) for s in range(10)]
    assert log == hand
    assert _same_params(a.params, b.params)


@pytest.mark.parametrize("steps", [10, 50])
def test_train_encodes_each_clip_once(monkeypatch, steps):
    calls = []

    def counting(video, cfg):
        calls.append(video.shape)
        return encode(video, cfg)

    monkeypatch.setattr(stage1, "encode", counting)
    clips = lr_clips(3)
    stage1.train(stage1.new_stage1(0), clips, steps=steps, seed=0)
    assert len(calls) == len(clips)
    calls.clear()
    stage1.eval_loss(stage1.new_stage1(0), clips, seed=1, draws=8)
    assert len(calls) == len(clips)


def test_train_raises_on_divergence():
    clips = lr_clips(2)
    with np.errstate(over="ignore", invalid="ignore"):
        # the update after step 0 overflows, so step 1's loss is not finite
        with pytest.raises(FloatingPointError, match="stage 1 .* at step 1"):
            stage1.train(stage1.new_stage1(0), clips, steps=4, seed=0, lr=1e6)
        # the only step's loss is finite; the parameters after it are not
        with pytest.raises(FloatingPointError, match="stage 1 .*parameters non-finite after step 0"):
            stage1.train(stage1.new_stage1(0), clips, steps=1, seed=0, lr=float("inf"))
