"""Stage II input construction tests."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from segvid import stage1
from segvid.codec import CodecConfig, encode, group_means, lift
from segvid.conditioning import StageTwoInput, encode_reference
from segvid.grid import FLOAT

import oracles
import reference
from reference import hybrid_reference

CFG = CodecConfig()


def test_hybrid_reference_swaps_first_frame():
    rng = np.random.default_rng(0)
    v_hr = rng.random((9, 32, 32, 3)).astype(FLOAT)
    v_lr = stage1.low_res(v_hr, CFG)
    out = hybrid_reference(v_lr, v_hr[0], 4)
    npt.assert_array_equal(out[0], v_hr[0])
    # later frames are the cell-mean broadcast of the HR frames
    want = oracles.pool_broadcast(v_hr[1:2], 4, 1)[0]
    npt.assert_allclose(out[1], want, atol=1e-6)


def test_hybrid_reference_single_frame():
    rng = np.random.default_rng(1)
    x = rng.random((32, 32, 3)).astype(FLOAT)
    out = hybrid_reference(stage1.low_res(x[None], CFG), x, 4)
    npt.assert_array_equal(out, x[None])


def test_hybrid_reference_extent_mismatch():
    v_lr = np.zeros((3, 8, 8, 3), FLOAT)
    with pytest.raises(ValueError):
        hybrid_reference(v_lr, np.zeros((16, 16, 3), FLOAT), 4)


@settings(deadline=None, max_examples=150)
@given(f_s=st.sampled_from((2, 3, 4, 5, 8)), f_t=st.sampled_from((1, 2, 4)),
       c=st.sampled_from((3, 4)), groups=st.integers(0, 6), h=st.integers(1, 3),
       w=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_encode_reference_equals_hybrid_oracle(f_s, f_t, c, groups, h, w, seed):
    # LR group means pooled through a stride-0 tap view give the bits of
    # encoding the HR hybrid video with numpy's mean; T = 1 + groups * f_t
    # goes down to a lone frame
    cfg = CodecConfig(f_s=f_s, f_t=f_t, c=c)
    rng = np.random.default_rng(seed)
    v_lr = rng.random((1 + groups * f_t, h * f_s, w * f_s, 3)).astype(FLOAT)
    x = rng.random((h * f_s * f_s, w * f_s * f_s, 3)).astype(FLOAT)
    got = encode_reference(group_means(v_lr, f_t), encode(x[None], cfg)[0], cfg)
    want = reference.encode(hybrid_reference(v_lr, x, f_s), f_s, f_t, reference.lift_matrix(c))
    assert got.z_ref.shape == want.shape == (1 + groups, h * f_s, w * f_s, c)
    npt.assert_array_equal(got.z_ref, want)
    npt.assert_array_equal(got.z_x, want[0])


@settings(deadline=None, max_examples=100)
@given(f_s=st.sampled_from((1, 2, 3, 4, 8)), n=st.integers(1, 40), h=st.integers(1, 40),
       w=st.integers(1, 40), c=st.sampled_from((3, 4, 6)), scale=st.floats(1e-3, 1e3),
       neg_zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_encode_reference_equals_ordered_loop(f_s, n, h, w, c, scale, neg_zero, seed):
    # the f_s² stride-0 copies of each LR block mean add in order from +0.0,
    # as the retired loop added the stride-0 taps of the upsampled means;
    # compared as uint32, so the sign of every zero counts
    cfg = CodecConfig(f_s=f_s, c=c)
    rng = np.random.default_rng(seed)
    w = min(w, max(1, (1 << 14) // h))
    n = min(n, max(1, (1 << 14) // (h * w)))
    means = (scale * rng.standard_normal((n, h, w, 3))).astype(FLOAT)
    if neg_zero:
        means[rng.random(means.shape) < 0.3] = -0.0
        means[0, 0, 0] = -0.0
    z_x = rng.standard_normal((h, w, c)).astype(FLOAT)
    got = encode_reference(means, z_x, cfg).z_ref
    taps = np.broadcast_to(means[:, :, None, :, None], (n, h, f_s, w, f_s, 3))
    want = lift(oracles.cell_means(taps), cfg)
    assert got.shape == (1 + n, h, w, c) and got.dtype == FLOAT
    npt.assert_array_equal(got[0].view(np.uint32), z_x.view(np.uint32))
    npt.assert_array_equal(got[1:].view(np.uint32), want.view(np.uint32))


def test_encode_reference_validation():
    z_x = np.zeros((8, 8, 4), FLOAT)
    with pytest.raises(ValueError, match="pooled by f_s=4"):
        encode_reference(np.zeros((4, 8, 16, 3), FLOAT), z_x, CFG)
    with pytest.raises(ValueError, match="pooled by f_s=4"):
        encode_reference(np.zeros((4, 5, 5, 3), FLOAT), z_x, CFG)
    with pytest.raises(ValueError, match="pooled by f_s=4"):
        encode_reference(np.zeros((4, 8, 8, 4), FLOAT), z_x, CFG)  # means are pixels
    with pytest.raises(ValueError):
        encode_reference(np.zeros((8, 8, 3), FLOAT), z_x, CFG)  # one frame, not block means
    with pytest.raises(ValueError):
        encode_reference(np.zeros((4, 8, 8, 3), FLOAT), z_x[None], CFG)
    with pytest.raises(ValueError):
        encode_reference(np.zeros((4, 8, 8, 3), FLOAT), z_x[..., :3], CFG)  # c=3, config c=4
    with pytest.raises(ValueError):
        group_means(np.zeros((6, 8, 8, 3), FLOAT), CFG.f_t)  # T - 1 not a multiple of f_t


def test_encode_reference_rejects_lr_not_pooled_by_f_s():
    # 16x16 LR frames are 32x32 frames pooled by 2, not by f_s=4, so they
    # miss the 8x8 grid of a 32x32 image's anchor latent
    z_x = encode(np.zeros((1, 32, 32, 3), FLOAT), CFG)[0]
    with pytest.raises(ValueError) as e:
        encode_reference(np.zeros((4, 16, 16, 3), FLOAT), z_x, CFG)
    msg = str(e.value)
    assert "(16, 16, 3)" in msg and "(8, 8, 4)" in msg and "f_s=4" in msg
    assert "\n" not in msg


def test_encode_reference_builds_no_hr_group_frames():
    # a T=641, 32x32 request: the (160, 32, 32, 3) float32 HR group frames
    # would take 1.97 MB; the stride-0 tap view keeps the peak at LR size
    rng = np.random.default_rng(4)
    means = group_means(rng.random((641, 8, 8, 3), dtype=np.float32), CFG.f_t)
    z_x = encode(rng.random((1, 32, 32, 3), dtype=np.float32), CFG)[0]
    hr_groups = 160 * 32 * 32 * 3 * 4
    encode_reference(means, z_x, CFG)  # warm the lift cache outside the trace
    tracemalloc.start()
    try:
        encode_reference(means, z_x, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hr_groups // 2, f"{peak} bytes at peak, HR group frames take {hr_groups}"


def test_stage_two_input_validation():
    with pytest.raises(ValueError):
        StageTwoInput(z_ref=np.zeros((3, 2, 2, 4), FLOAT), z_x=np.zeros((2, 2, 3), FLOAT))
    with pytest.raises(ValueError):
        StageTwoInput(z_ref=np.zeros((2, 2, 4), FLOAT), z_x=np.zeros((2, 2, 4), FLOAT))
