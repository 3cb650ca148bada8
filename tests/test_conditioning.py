"""Stage II input construction tests."""

import numpy as np
import numpy.testing as npt
import pytest

from segvid import mixer
from segvid.codec import CodecConfig, encode
from segvid.conditioning import StageTwoInput, build_hybrid_reference, build_stage2_input
from segvid.grid import FLOAT, resize_spatial

import oracles

CFG = CodecConfig()


def test_hybrid_reference_swaps_first_frame():
    rng = np.random.default_rng(0)
    v_hr = rng.random((9, 32, 32, 3)).astype(FLOAT)
    v_lr = resize_spatial(v_hr, "down_avg", 4)
    out = build_hybrid_reference(v_lr, v_hr[0], 4)
    npt.assert_array_equal(out[0], v_hr[0])
    # later frames are the cell-mean broadcast of the HR frames
    want = oracles.pool_broadcast(v_hr[1:2], 4, 1)[0]
    npt.assert_allclose(out[1], want, atol=1e-6)


def test_hybrid_reference_single_frame():
    rng = np.random.default_rng(1)
    x = rng.random((32, 32, 3)).astype(FLOAT)
    out = build_hybrid_reference(resize_spatial(x[None], "down_avg", 4), x, 4)
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


def test_stage_two_input_validation():
    with pytest.raises(ValueError):
        StageTwoInput(z_ref=np.zeros((3, 2, 2, 4), FLOAT), z_x=np.zeros((2, 2, 3), FLOAT))
    with pytest.raises(ValueError):
        StageTwoInput(z_ref=np.zeros((2, 2, 4), FLOAT), z_x=np.zeros((2, 2, 4), FLOAT))
