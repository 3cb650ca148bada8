"""Codec tests: block arithmetic, pooling fidelity, channel lift."""

import importlib
import inspect
import pkgutil

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import segvid
from segvid.codec import (CodecConfig, channel_lift, decode, decode_block, decode_group_means,
                          encode, frames_for_block, group_means, latent_shape, num_blocks,
                          video_shape)
from segvid.grid import FLOAT

import oracles

CFG = CodecConfig()


def test_block_arithmetic():
    assert num_blocks(81, 4) == 21
    assert num_blocks(1, 4) == 1
    assert num_blocks(17, 4) == 5
    assert latent_shape(81, 32, 32, CFG) == (21, 8, 8, 4)
    assert video_shape(21, 8, 8, CFG) == (81, 32, 32, 3)
    with pytest.raises(ValueError):
        num_blocks(16, 4)
    with pytest.raises(ValueError):
        num_blocks(0, 4)


def test_frames_for_block():
    assert frames_for_block(1, 4) == (1, 1)
    assert frames_for_block(2, 4) == (2, 5)
    assert frames_for_block(3, 4) == (6, 9)
    assert frames_for_block(21, 4) == (78, 81)
    with pytest.raises(ValueError):
        frames_for_block(0, 4)


def test_roundtrip_matches_pool_oracle():
    rng = np.random.default_rng(0)
    v = rng.random((9, 8, 12, 3)).astype(FLOAT)
    got = decode(encode(v, CFG), CFG)
    npt.assert_allclose(got, oracles.pool_broadcast(v, 4, 4), atol=1e-5)


def test_roundtrip_exact_on_poolable_content():
    rng = np.random.default_rng(1)
    cells = rng.random((3, 2, 2, 3)).astype(FLOAT)
    frames = np.repeat(np.repeat(cells, 4, 1), 4, 2)
    # frame 1 is its own temporal group; the two 4-frame groups follow it
    v = np.stack([frames[0]] + [frames[1]] * 4 + [frames[2]] * 4)
    npt.assert_allclose(decode(encode(v, CFG), CFG), v, atol=1e-5)


def test_encode_linearity():
    rng = np.random.default_rng(2)
    v1 = rng.random((5, 8, 8, 3)).astype(FLOAT)
    v2 = rng.random((5, 8, 8, 3)).astype(FLOAT)
    lhs = encode(0.3 * v1 + 0.6 * v2, CFG)
    rhs = 0.3 * encode(v1, CFG) + 0.6 * encode(v2, CFG)
    npt.assert_allclose(lhs, rhs, atol=1e-5)


def test_block_locality():
    rng = np.random.default_rng(3)
    v = rng.random((9, 8, 8, 3)).astype(FLOAT)
    z = encode(v, CFG)
    w = v.copy()
    w[1:5] = rng.random((4, 8, 8, 3)).astype(FLOAT)  # frames 2..5: block 2
    z2 = encode(w, CFG)
    assert not np.array_equal(z2[1], z[1])
    npt.assert_array_equal(np.delete(z2, 1, axis=0), np.delete(z, 1, axis=0))


def test_channel_lift_orthonormal_and_stable():
    lift = channel_lift(CFG)
    npt.assert_allclose(lift.T @ lift, np.eye(3), atol=1e-6)
    assert np.array_equal(lift, channel_lift(CodecConfig()))
    other = channel_lift(CodecConfig(lift_seed=99))
    assert not np.array_equal(lift, other)


def test_decode_zero_latent():
    z = np.zeros((3, 2, 2, 4), FLOAT)
    out = decode(z, CFG)
    npt.assert_array_equal(out, np.zeros((9, 8, 8, 3), FLOAT))


def test_decode_block_shapes_and_clamp():
    z = np.full((2, 2, 4), 10.0, FLOAT)
    first = decode_block(z, CFG, first=True)
    rest = decode_block(z, CFG, first=False)
    assert first.shape == (1, 8, 8, 3) and rest.shape == (4, 8, 8, 3)
    assert float(rest.max()) <= 1.0 and float(rest.min()) >= 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        CodecConfig(c=2)
    with pytest.raises(ValueError):
        CodecConfig(f_s=0)
    with pytest.raises(ValueError):
        encode(np.zeros((5, 8, 8, 4), FLOAT), CFG)   # not RGB
    with pytest.raises(ValueError):
        encode(np.zeros((5, 6, 8, 3), FLOAT), CFG)   # H not divisible
    with pytest.raises(ValueError):
        decode(np.zeros((5, 2, 2, 3), FLOAT), CFG)   # wrong channel count


@pytest.mark.parametrize("c", [3, 4])
@pytest.mark.parametrize("T", [1, 5, 81, 641])
def test_encode_equals_per_block_loop(T, c):
    cfg = CodecConfig(c=c)
    v = np.random.default_rng(T + c).random((T, 16, 24, 3), dtype=np.float32)
    got = encode(v, cfg)
    want = oracles.encode_loop(v, cfg.f_s, cfg.f_t, channel_lift(cfg))
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("c", [3, 4])
def test_decode_block_equals_repeat_then_clip(c):
    for f_s in (1, 2, 4):
        _check_decode_block_equals_repeat_then_clip(CodecConfig(c=c, f_s=f_s))


def _check_decode_block_equals_repeat_then_clip(cfg):
    c, f_s = cfg.c, cfg.f_s
    z = (3.0 * np.random.default_rng(c).standard_normal((2, 3, c))).astype(FLOAT)
    z[0, 0] = -0.0  # a pixel of negative zeros
    z[1, 2, 0] = -0.0
    rgb = z @ channel_lift(cfg)
    assert (rgb < 0.0).any() and (rgb > 1.0).any() and (rgb == 0.0).any()
    for first in (True, False):
        got = decode_block(z, cfg, first=first)
        want = oracles.decode_block_repeat_then_clip(z, channel_lift(cfg), cfg.f_s,
                                                     cfg.f_t, first)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.flags.writeable and got.flags.c_contiguous
        # into a slice of a larger buffer: exactly the slice is written
        n = want.shape[0]
        buf = np.full((n + 5,) + want.shape[1:], -7.0, FLOAT)
        assert decode_block(z, cfg, first=first, out=buf[2:2 + n]).base is buf
        assert buf[2:2 + n].tobytes() == want.tobytes()
        assert (buf[:2] == -7.0).all() and (buf[2 + n:] == -7.0).all()
    H, W = 2 * f_s, 3 * f_s
    with pytest.raises(ValueError, match="decode target"):
        decode_block(z, cfg, first=False, out=np.empty((2, H, W, 3), FLOAT))  # too few frames
    with pytest.raises(ValueError, match="decode target"):
        decode_block(z, cfg, first=True, out=np.empty((1, H, 2 * W, 3), FLOAT)[:, :, ::2])


@settings(deadline=None, max_examples=200)
@given(f_s=st.sampled_from((1, 2, 4)), f_t=st.integers(1, 8), c=st.sampled_from((3, 4, 6)),
       t=st.integers(1, 6), h=st.integers(1, 3), w=st.integers(1, 3),
       scale=st.floats(1e-3, 3.0), zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_decode_group_means_equals_means_of_decoded_video(f_s, f_t, c, t, h, w, scale,
                                                          zeros, seed):
    # the block means read off the latents are those of the decoded video,
    # bit for bit and sign of zero included: scale 3 clamps at both ends,
    # and latents of all -0.0 check the sign of the zeros they decode to.
    # Up to f_t = 5 the f_t-fold float32 sum equals f_t times the frame; f_t
    # of 6..8 also pins the order of the additions.
    cfg = CodecConfig(f_s=f_s, f_t=f_t, c=c)
    z = (np.random.default_rng(seed).standard_normal((t, h, w, c)) * scale).astype(FLOAT)
    if zeros:
        z[...] = -0.0
    want = group_means(decode(z, cfg), f_t)
    got = decode_group_means(z, cfg)
    assert got.shape == want.shape == (t - 1, h * f_s, w * f_s, 3)
    assert got.dtype == FLOAT
    npt.assert_array_equal(got, want)
    npt.assert_array_equal(np.signbit(got), np.signbit(want))


def test_decode_group_means_validation():
    with pytest.raises(ValueError, match="latent"):
        decode_group_means(np.zeros((3, 2, 2), FLOAT), CFG)
    with pytest.raises(ValueError, match="latent"):
        decode_group_means(np.zeros((3, 2, 2, 3), FLOAT), CFG)  # c=3, config c=4


def test_no_public_function_takes_a_pooling_factor():
    # the codec's f_s is the one spatial pooling factor: every public
    # function and method reads it from a CodecConfig, none takes its own
    found = []
    for info in pkgutil.iter_modules(segvid.__path__):
        mod = importlib.import_module(f"segvid.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            funcs = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                funcs = [(f"{name}.{m}", f) for m, f in inspect.getmembers(obj, inspect.isfunction)
                         if not m.startswith("_")]
            found += [f"{mod.__name__}.{qual}({p})" for qual, f in funcs
                      for p in inspect.signature(f).parameters
                      if "factor" in p or p in ("f", "f_s", "scale")]
    assert found == []
