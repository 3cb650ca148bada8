"""Stage II input construction tests."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from segvid import mixer, stage1
from segvid.codec import CodecConfig, encode, group_means
from segvid.conditioning import StageTwoInput, encode_reference
from segvid.grid import FLOAT

import oracles
from oracles import build_hybrid_reference, build_stage2_input

CFG = CodecConfig()


def test_hybrid_reference_swaps_first_frame():
    rng = np.random.default_rng(0)
    v_hr = rng.random((9, 32, 32, 3)).astype(FLOAT)
    v_lr = stage1.low_res(v_hr, CFG)
    out = build_hybrid_reference(v_lr, v_hr[0], 4)
    npt.assert_array_equal(out[0], v_hr[0])
    # later frames are the cell-mean broadcast of the HR frames
    want = oracles.pool_broadcast(v_hr[1:2], 4, 1)[0]
    npt.assert_allclose(out[1], want, atol=1e-6)


def test_hybrid_reference_single_frame():
    rng = np.random.default_rng(1)
    x = rng.random((32, 32, 3)).astype(FLOAT)
    out = build_hybrid_reference(stage1.low_res(x[None], CFG), x, 4)
    npt.assert_array_equal(out, x[None])


def test_hybrid_reference_extent_mismatch():
    v_lr = np.zeros((3, 8, 8, 3), FLOAT)
    with pytest.raises(ValueError):
        build_hybrid_reference(v_lr, np.zeros((16, 16, 3), FLOAT), 4)


def test_assemble_input_layout():
    # the layout the mixer consumes, [noisy c | reference c] per pixel
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 2, 2, 4)).astype(FLOAT)
    ref = rng.standard_normal((5, 2, 2, 4)).astype(FLOAT)
    zx = rng.standard_normal((2, 2, 4)).astype(FLOAT)
    keep = z.copy()
    u = oracles.assemble_input(z, ref, zx)
    assert u.shape == (5, 2, 2, 8)
    npt.assert_array_equal(u[0, ..., :4], zx)
    npt.assert_array_equal(u[0, ..., 4:], ref[0])
    npt.assert_array_equal(u[1:, ..., :4], z[1:])
    npt.assert_array_equal(u[..., 4:], ref)
    npt.assert_array_equal(z, keep)  # not mutated
    # split/concat inverse and idempotence
    npt.assert_array_equal(oracles.assemble_input(z, ref, zx), u)
    anchored = z.copy()
    anchored[0] = zx
    npt.assert_array_equal(u[..., :4], anchored)
    npt.assert_array_equal(u.reshape(5, -1)[:, mixer.ref_rows(2, 2, 4)], ref.reshape(5, -1))


def test_assemble_input_validation():
    z = np.zeros((5, 2, 2, 4), FLOAT)
    with pytest.raises(ValueError):
        oracles.assemble_input(z, np.zeros((4, 2, 2, 4), FLOAT), np.zeros((2, 2, 4), FLOAT))
    with pytest.raises(ValueError):
        oracles.assemble_input(z, z, np.zeros((2, 2, 3), FLOAT))


def test_build_stage2_input_consistency():
    rng = np.random.default_rng(3)
    v_ref = rng.random((9, 32, 32, 3)).astype(FLOAT)
    inp = build_stage2_input(v_ref, v_ref[0], CFG)
    assert inp.z_ref.shape == (3, 8, 8, 4)
    npt.assert_array_equal(inp.z_x, encode(v_ref[:1], CFG)[0])
    # the hybrid reference holds the input image at frame 1, so both encodes agree
    npt.assert_array_equal(inp.z_ref[0], inp.z_x)


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
    want = build_stage2_input(build_hybrid_reference(v_lr, x, f_s), x, cfg)
    assert got.z_ref.shape == want.z_ref.shape == (1 + groups, h * f_s, w * f_s, c)
    npt.assert_array_equal(got.z_ref, want.z_ref)
    npt.assert_array_equal(got.z_x, want.z_x)


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
