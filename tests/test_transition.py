"""Stage-transition synthesis tests: corruption direction, determinism,
motion preservation, pair persistence."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from segvid import stage1, synth, transition
from segvid.codec import CodecConfig, decode, encode
from segvid.grid import read_siv1

import oracles


@pytest.fixture(scope="module")
def hi_res():
    """The 16x16 LR clips of an H=W=64 corpus plus a stage 1 trained on them.
    The larger frame gives the LR shift-correlation oracle a 4x4 latent grid
    to lock onto; at 32x32 the 2x2 latent torus leaves no usable correlation
    margin."""
    specs = synth.default_specs(6, 0, T=81, H=64, W=64)
    clips = [synth.render_scene(s) for s in specs]
    lr_clips = [stage1.low_res(v, CodecConfig()) for v in clips]
    model = stage1.new_stage1(0, lr_h=16, lr_w=16)
    stage1.train(model, [encode(v, model.codec_cfg) for v in lr_clips], steps=600, seed=0,
                 lr=3e-3)
    return specs, lr_clips, model


def lr_scene(seed):
    return stage1.low_res(synth.render_scene(synth.SceneSpec(seed=seed, T=17)), CodecConfig())


def test_sigma_zero_is_codec_projection():
    v_lr = lr_scene(1)
    s1 = stage1.new_stage1(0)
    s1.params.flat[...] = 0.0  # a null model: zero velocity everywhere
    v_tilde = transition.synthesize_lr(v_lr, s1, transition.TransitionConfig(sigma=0.0))
    npt.assert_array_equal(v_tilde, decode(encode(v_lr, s1.codec_cfg), s1.codec_cfg))


def test_synthesis_deterministic():
    v_lr = lr_scene(2)
    s1 = stage1.new_stage1(1)
    cfg = transition.TransitionConfig(sigma=0.1, steps=1, seed=9)
    a = transition.synthesize_lr(v_lr, s1, cfg)
    b = transition.synthesize_lr(v_lr, s1, cfg)
    assert np.array_equal(a, b)
    c = transition.synthesize_lr(v_lr, s1, cfg, key=1)
    assert not np.array_equal(a, c)


def test_psnr_drops_with_sigma():
    # with the identity (null) denoiser the corruption is the whole error
    s1 = stage1.new_stage1(0)
    s1.params.flat[...] = 0.0
    rows = transition.sigma_sweep(lr_scene(3), s1, (0.01, 0.1, 0.3, 0.5, 0.7), steps=1, seed=0)
    psnrs = [r[3] for r in rows]
    assert all(a >= b for a, b in zip(psnrs, psnrs[1:]))
    assert psnrs[0] > psnrs[-1] + 1.0


def test_step_count_changes_output():
    v_lr = lr_scene(4)
    s1 = stage1.new_stage1(3)
    one = transition.synthesize_lr(v_lr, s1, transition.TransitionConfig(sigma=0.1, steps=1))
    four = transition.synthesize_lr(v_lr, s1, transition.TransitionConfig(sigma=0.1, steps=4))
    assert not np.array_equal(one, four)
    assert np.isfinite(transition.diagnostics(one, v_lr)[1])
    assert np.isfinite(transition.diagnostics(four, v_lr)[1])


def test_diagnostics_closed_forms():
    v = np.full((5, 16, 16, 3), 0.5, np.float32)
    snr, ps, ss = transition.diagnostics(v.copy(), v)
    assert snr == float("inf") and ps == float("inf") and ss == 1.0
    snr, ps, ss = transition.diagnostics(v + 0.1, v)
    assert abs(ps - 20.0) < 1e-5  # float32 rounding of 0.5 + 0.1
    with pytest.raises(ValueError):
        transition.diagnostics(np.zeros_like(v), np.zeros_like(v))  # zero signal


def test_config_validation():
    with pytest.raises(ValueError):
        transition.TransitionConfig(sigma=-0.1)
    with pytest.raises(ValueError):
        transition.TransitionConfig(sigma=1.1)
    with pytest.raises(ValueError):
        transition.TransitionConfig(steps=0)


def test_motion_preserved_at_small_sigma(hi_res):
    specs, lr_clips, model = hi_res
    cfg = transition.TransitionConfig(sigma=0.1, steps=1, seed=0)
    hits = total = 0
    for key, (spec, v_lr) in enumerate(zip(specs, lr_clips)):
        v_tilde = transition.synthesize_lr(v_lr, model, cfg, key=key)
        n = v_tilde.shape[1]
        vy, vx = int(spec.velocity[0]), int(spec.velocity[1])
        for tau in range(v_tilde.shape[0] - 1):
            # decoded LR motion moves one latent cell per temporal block
            if tau % model.codec_cfg.f_t == 0:
                want = (oracles.canon(vy, n), oracles.canon(vx, n))
            else:
                want = (0, 0)
            hits += oracles.best_shift(v_tilde[tau], v_tilde[tau + 1]) == want
            total += 1
    assert hits / total >= 0.90, f"{hits}/{total}"


def test_pairs_roundtrip(tmp_path):
    v = synth.render_scene(synth.SceneSpec(seed=5, T=17))
    s1 = stage1.new_stage1(4)
    cfg = transition.TransitionConfig(sigma=0.1, steps=1, seed=2)
    pairs = transition.synthesize_corpus([(stage1.low_res(v, s1.codec_cfg), v)] * 2, s1, cfg)
    transition.save_pairs(str(tmp_path), pairs, cfg)
    rows = [json.loads(line) for line in (tmp_path / "pairs.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    assert set(rows[0]) == {"hr", "lr_tilde", "sigma", "steps", "seed"}
    assert rows[0]["sigma"] == 0.1 and rows[0]["steps"] == 1 and rows[0]["seed"] == 2
    for (v_tilde, v_hr), row in zip(pairs, rows):
        npt.assert_array_equal(read_siv1(tmp_path / row["lr_tilde"]), v_tilde)
        npt.assert_array_equal(read_siv1(tmp_path / row["hr"]), v_hr)
