"""Synthetic corpus tests: known motion, periodic wrap, corpus round-trip."""

import numpy as np
import numpy.testing as npt
import pytest

from segvid import synth
from segvid.codec import CodecConfig

import oracles


def test_zero_velocity_all_frames_equal():
    v = synth.render_scene(synth.SceneSpec(seed=1, velocity=(0.0, 0.0)))
    for tau in range(1, v.shape[0]):
        npt.assert_array_equal(v[tau], v[0])


def test_full_period_wrap():
    v = synth.render_scene(synth.SceneSpec(seed=2, velocity=(32.0, 0.0)))
    npt.assert_array_equal(v[1], v[0])


def test_integer_velocity_is_exact_roll():
    v = synth.render_scene(synth.SceneSpec(seed=3, velocity=(1.0, 0.0)))
    npt.assert_array_equal(v[1], np.roll(v[0], 1, axis=0))
    # frame tau+1 = advect(frame tau) for every consecutive pair
    v = synth.render_scene(synth.SceneSpec(seed=4, velocity=(2.0, -3.0)))
    for tau in range(v.shape[0] - 1):
        npt.assert_array_equal(v[tau + 1], np.roll(v[tau], (2, -3), axis=(0, 1)))


def test_shift_oracle_recovers_velocity():
    for vel in [(1.0, 0.0), (0.0, 5.0), (3.0, -2.0)]:
        v = synth.render_scene(synth.SceneSpec(seed=5, velocity=vel))
        dy, dx = oracles.best_shift(v[0], v[1])
        assert (dy, dx) == (oracles.canon(vel[0], 32), oracles.canon(vel[1], 32))


def test_fractional_velocity_bilinear():
    v = synth.render_scene(synth.SceneSpec(seed=6, velocity=(0.5, 0.25)))
    assert v.shape == (17, 32, 32, 3)
    assert float(v.min()) >= 0.0 and float(v.max()) <= 1.0
    assert not np.array_equal(v[1], v[0])


def test_render_deterministic_and_motifs_differ():
    a = synth.render_scene(synth.SceneSpec(seed=9))
    b = synth.render_scene(synth.SceneSpec(seed=9))
    assert np.array_equal(a, b)
    for motif in synth.MOTIFS:
        v = synth.render_scene(synth.SceneSpec(seed=9, motif=motif))
        assert v.shape == (17, 32, 32, 3)
    g = synth.render_scene(synth.SceneSpec(seed=9, motif="rotating_gradient"))
    assert not np.array_equal(a, g)


def test_spec_validation():
    with pytest.raises(ValueError):
        synth.SceneSpec(seed=0, T=16).validate()           # (T-1) % 4 != 0
    with pytest.raises(ValueError):
        synth.SceneSpec(seed=0, H=30).validate()           # H % 4 != 0
    with pytest.raises(ValueError):
        synth.SceneSpec(seed=0, motif="zoom").validate()
    with pytest.raises(ValueError):
        synth.SceneSpec(seed=0, T=0).validate()
    # the extents are checked against the codec config given
    synth.SceneSpec(seed=0, T=3, H=30, W=6).validate(CodecConfig(f_s=2, f_t=2))
    with pytest.raises(ValueError, match="f_s=3"):
        synth.SceneSpec(seed=0, H=30, W=32).validate(CodecConfig(f_s=3))


def test_corpus_roundtrip(tmp_path):
    specs = synth.default_specs(3, 10)
    manifest = synth.write_corpus(tmp_path, specs)
    assert manifest.exists()
    back = synth.load_corpus(tmp_path)
    assert [s for s, _ in back] == specs
    for spec, video in back:
        npt.assert_array_equal(video, synth.render_scene(spec))


def test_default_specs_are_codec_exact():
    specs = synth.default_specs(8, 0, T=81, H=64, W=64)
    assert len(specs) == 8
    for spec in specs:
        spec.validate()
        dy, dx = spec.velocity
        # one temporal block of motion lands on the latent cell grid
        assert dy % 4 == 0 and dx % 4 == 0
    assert len({s.velocity for s in specs}) > 1
