"""Mixer tests: forward masking, loss/gradients, sampler, schedules, I/O."""

import numpy as np
import numpy.testing as npt
import pytest

from segvid import mixer
from segvid.grid import FLOAT, Rng

import oracles

MATS = ("w_in", "w_q", "w_k", "w_v", "w_out")


def small_params(seed, mask_mode="bidirectional"):
    return mixer.init_mixer(Rng(seed), d_in=10, d_out=4, d=6, mask_mode=mask_mode)


def random_instance(seed, n=3):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, 10))
    clean = g.standard_normal((n, 4))
    eps = g.standard_normal((n, 4))
    mask = g.random(n) < 0.5
    mask[int(g.integers(n))] = True
    sigma = float(g.uniform(0.05, 1.0))
    return x, clean, eps, mask, sigma


def test_single_block_mask_irrelevant():
    x = np.random.default_rng(0).standard_normal((1, 10)).astype(FLOAT)
    yc = mixer.forward(small_params(1, "causal"), x, 0.5)
    yb = mixer.forward(small_params(1, "bidirectional"), x, 0.5)
    npt.assert_array_equal(yc, yb)


def test_causal_blocks_ignore_the_future():
    p = small_params(2, "causal")
    g = np.random.default_rng(1)
    x = g.standard_normal((3, 10)).astype(FLOAT)
    y = mixer.forward(p, x, 0.3)
    xp = x.copy()
    xp[2] += 0.01
    yp = mixer.forward(p, xp, 0.3)
    npt.assert_array_equal(yp[:2], y[:2])
    assert not np.array_equal(yp[2], y[2])


def test_bidirectional_blocks_see_the_future():
    p = small_params(2, "bidirectional")
    g = np.random.default_rng(1)
    x = g.standard_normal((3, 10)).astype(FLOAT)
    y = mixer.forward(p, x, 0.3)
    xp = x.copy()
    xp[2] += 0.01
    yp = mixer.forward(p, xp, 0.3)
    assert float(np.abs(yp[0] - y[0]).max()) > 1e-8


def test_forward_validation():
    p = small_params(3)
    with pytest.raises(ValueError):
        mixer.forward(p, np.zeros((2, 9), FLOAT), 0.5)
    with pytest.raises(ValueError):
        mixer.forward(p, np.zeros((0, 10), FLOAT), 0.5)
    with pytest.raises(ValueError):
        mixer.forward(p, np.zeros((2, 10), FLOAT), 1.5)


def test_init_mixer_deterministic_and_zero_rows():
    a = mixer.init_mixer(Rng(5), 10, 4, d=6)
    b = mixer.init_mixer(Rng(5), 10, 4, d=6)
    for name in MATS:
        npt.assert_array_equal(getattr(a, name), getattr(b, name))
    z = mixer.init_mixer(Rng(5), 10, 4, d=6, zero_rows=np.array([0, 3]))
    assert np.all(z.w_in[[0, 3]] == 0.0) and np.any(z.w_in[1] != 0.0)
    with pytest.raises(ValueError):
        mixer.init_mixer(Rng(5), 10, 4, d=5)


def test_ref_rows_layout():
    rows = mixer.ref_rows(2, 2, 3)
    assert rows.tolist() == [3, 4, 5, 9, 10, 11, 15, 16, 17, 21, 22, 23]


def test_loss_at_optimum_is_zero():
    p = oracles.zero_mixer(10, 4, d=6)
    g = np.random.default_rng(2)
    x = g.standard_normal((3, 10))
    clean = g.standard_normal((3, 4))
    # v_hat = 0 everywhere, so eps = clean makes the target zero
    loss, grads = mixer.loss_and_grad(p, x, clean, np.ones(3, bool), 0.5, clean.copy())
    assert loss == 0.0
    for name in MATS:
        assert not np.any(grads[name])


def test_all_false_mask_rejected():
    p = small_params(6)
    x, clean, eps, _, sigma = random_instance(0)
    with pytest.raises(ValueError):
        mixer.loss_and_grad(p, x, clean, np.zeros(3, bool), sigma, eps)


def test_masked_targets_are_inert():
    p = small_params(7).astype(np.float64)
    x, clean, eps, mask, sigma = random_instance(3)
    if mask.all():
        mask[0] = False
    loss, grads = mixer.loss_and_grad(p, x, clean, mask, sigma, eps)
    clean2, eps2 = clean.copy(), eps.copy()
    clean2[~mask] += 7.0
    eps2[~mask] -= 3.0
    loss2, grads2 = mixer.loss_and_grad(p, x, clean2, mask, sigma, eps2)
    assert loss == loss2
    for name in MATS:
        npt.assert_array_equal(grads[name], grads2[name])


def test_gradients_match_finite_differences():
    for trial in range(4):
        p = small_params(20 + trial, "causal" if trial % 2 else "bidirectional")
        p64 = p.astype(np.float64)
        x, clean, eps, mask, sigma = random_instance(trial, n=2 + trial)
        _, grads = mixer.loss_and_grad(p64, x, clean, mask, sigma, eps)
        fd = oracles.fd_grad(
            lambda: mixer.loss_and_grad(p64, x, clean, mask, sigma, eps)[0],
            {name: getattr(p64, name) for name in MATS})
        for name in MATS:
            num = float(np.linalg.norm(fd[name] - grads[name]))
            den = max(float(np.linalg.norm(fd[name])), 1e-12)
            assert num / den < 1e-4, f"{name}: rel err {num / den:.2e}"


def test_sgd_update_descends():
    p = small_params(8).astype(np.float64)
    x, clean, eps, mask, sigma = random_instance(5)
    loss0, grads = mixer.loss_and_grad(p, x, clean, mask, sigma, eps)
    mixer.sgd_update(p, grads, lr=1e-3)
    loss1, _ = mixer.loss_and_grad(p, x, clean, mask, sigma, eps)
    assert loss1 < loss0


def test_sampler_step_examples():
    g = np.random.default_rng(3)
    z = g.standard_normal((3, 4))
    npt.assert_array_equal(mixer.sampler_step(z, np.zeros_like(z), 1.0, 0.5), z)
    x0 = g.standard_normal((3, 4))
    eps = g.standard_normal((3, 4))
    sigma = 0.7
    zs = (1 - sigma) * x0 + sigma * eps
    npt.assert_allclose(mixer.sampler_step(zs, eps - x0, sigma, 0.0), x0, atol=1e-12)
    # two exact-velocity steps compose to one
    v = eps - x0
    two = mixer.sampler_step(mixer.sampler_step(zs, v, sigma, 0.3), v, 0.3, 0.0)
    one = mixer.sampler_step(zs, v, sigma, 0.0)
    npt.assert_allclose(two, one, atol=1e-12)
    with pytest.raises(ValueError):
        mixer.sampler_step(z, np.zeros_like(z), 0.5, 0.5)
    with pytest.raises(ValueError):
        mixer.sampler_step(z, np.zeros((2, 4)), 1.0, 0.5)


def test_schedules():
    sch = mixer.default_schedule(4)
    assert sch.sigmas == (1.0, 0.75, 0.5, 0.25, 0.0) and sch.K == 4
    assert mixer.uniform_sigmas(1.0, 4) == [1.0, 0.75, 0.5, 0.25, 0.0]
    assert mixer.uniform_sigmas(0.1, 1) == [0.1, 0.0]
    with pytest.raises(ValueError):
        mixer.uniform_sigmas(0.0, 1)
    with pytest.raises(ValueError):
        mixer.uniform_sigmas(0.5, 0)
    with pytest.raises(ValueError):
        mixer.SigmaSchedule((1.0, 0.5))
    with pytest.raises(ValueError):
        mixer.SigmaSchedule((1.0, 0.5, 0.6, 0.0))
    with pytest.raises(ValueError):
        mixer.default_schedule(0)


def test_denoise_window_holds_conditioning_prefix():
    p = mixer.init_mixer(Rng(9), d_in=10, d_out=5, d=6)
    g = np.random.default_rng(4)
    z = g.standard_normal((3, 1, 1, 5)).astype(FLOAT)
    ref = g.standard_normal((3, 1, 1, 5)).astype(FLOAT)
    before = z.copy()
    out = mixer.denoise_window(p, mixer.default_schedule(2).sigmas, z, ref, 2, (1, 2, 3))
    npt.assert_array_equal(out[0], z[0])
    assert not np.array_equal(out[1], z[1])
    npt.assert_array_equal(z, before)  # caller's array untouched
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            mixer.denoise_window(p, mixer.default_schedule(2).sigmas, z, ref, bad, (1, 2, 3))


def test_save_load_roundtrip(tmp_path):
    p = small_params(10, "causal")
    mixer.save_params(p, str(tmp_path))
    q = mixer.load_params(str(tmp_path))
    assert q.mask_mode == "causal" and q.d == p.d
    for name in MATS:
        npt.assert_array_equal(getattr(q, name), getattr(p, name))


def test_sin_code():
    a = mixer.sin_code(3.0, 8)
    b = mixer.sin_code(3.0, 8)
    npt.assert_array_equal(a, b)
    assert a.shape == (8,) and float(np.abs(a).max()) <= 1.0
    assert not np.array_equal(a, mixer.sin_code(4.0, 8))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_position_table_equals_stacked_sin_code_rows(dtype):
    d = 32
    dt = np.dtype(dtype)
    want = oracles.stacked_codes(mixer.sin_code, range(1, 1025), d, dt)
    got = mixer._pos_codes(range(1, 1025), d, dt)
    assert got.dtype == dt and np.array_equal(got, want)
    # resolved once per window: every step of a window reads the same rows
    assert mixer._pos_codes((1, 4, 5), d, dt) is mixer._pos_codes((1, 4, 5), d, dt)
    assert not got.flags.writeable
    for idx in ([7, 3, 3, 1024, 1, 7], (5,), np.array([2, 2, 900, 1])):
        npt.assert_array_equal(mixer._pos_codes(idx, d, dt),
                               oracles.stacked_codes(mixer.sin_code, idx, d, dt))
    for idx in ([0, 2, 5], [-3, 4], [3.5, 1.0]):  # block indices are integers >= 1
        with pytest.raises(ValueError, match="block indices"):
            mixer._pos_codes(idx, d, dt)


def test_position_table_is_never_mutated_when_a_longer_one_is_needed():
    d, dt = 10, np.dtype(np.float64)
    mixer._pos_codes([3], d, dt)
    small = mixer._pos_table(64, d, dt)
    before = small.copy()
    mixer._pos_codes([65, 700], d, dt)
    big = mixer._pos_table(1024, d, dt)
    assert not small.flags.writeable and not big.flags.writeable
    npt.assert_array_equal(small, before)
    npt.assert_array_equal(big[:64], small)


def test_embed_matches_sin_code_formula_and_level_cache_is_bounded():
    p = small_params(11)
    x = np.random.default_rng(5).standard_normal((4, 10)).astype(FLOAT)
    sigmas = [1.0, 0.75, 0.5, 0.25] + list(np.random.default_rng(6).uniform(0, 1, 300))
    for sigma in sigmas:
        want = ((x @ p.w_in + mixer.sin_code(1000.0 * sigma, p.d, FLOAT)[None, :])
                + oracles.stacked_codes(mixer.sin_code, (1, 4, 5, 9), p.d, FLOAT))
        npt.assert_array_equal(mixer._embed(p, x, sigma, (1, 4, 5, 9)), want)
    info = mixer._level_code.cache_info()  # training draws a new sigma per step
    assert info.maxsize is not None and info.currsize <= info.maxsize < len(sigmas)
    assert not mixer._level_code(500.0, p.d, np.dtype(FLOAT)).flags.writeable


@pytest.mark.parametrize("broadcast_ref", [False, True])
def test_denoise_window_matches_concat_per_step_and_keeps_inputs(broadcast_ref):
    p = mixer.init_mixer(Rng(12), d_in=2 * 2 * 2 * 3, d_out=2 * 2 * 3, d=8)
    g = np.random.default_rng(7)
    z = g.standard_normal((5, 2, 2, 3)).astype(FLOAT)
    ref = (np.broadcast_to(g.standard_normal((2, 2, 3)).astype(FLOAT), z.shape)
           if broadcast_ref else g.standard_normal((5, 2, 2, 3)).astype(FLOAT))
    z0, ref0 = z.copy(), ref.copy()
    idx = (1, 3, 4, 6, 7)
    n = len(idx)
    sigmas = mixer.default_schedule(4).sigmas
    for n_noisy in range(1, n + 1):
        a = mixer.denoise_window(p, sigmas, z, ref, n_noisy, idx)
        b = mixer.denoise_window(p, sigmas, z, ref, n_noisy, idx)
        npt.assert_array_equal(z, z0)
        npt.assert_array_equal(ref, ref0)
        assert a.tobytes() == b.tobytes()
        tail = np.arange(n) >= n - n_noisy
        want = oracles.denoise_window_concat(lambda x, s: mixer.forward(p, x, s, idx),
                                             sigmas, z, ref, tail)
        assert a.tobytes() == want.tobytes()
