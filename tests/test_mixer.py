"""Mixer tests: forward masking, loss/gradients, sampler, schedules, I/O,
the packed parameter buffer, and the BLAS bit assumptions it rests on."""

import copy
import dataclasses
import pickle

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from segvid import mixer, scheduler
from segvid.grid import FLOAT, SUB_TRAIN, Rng

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
    # even a non-finite target of a conditioning block is dropped, not scaled
    clean2[~mask] = np.nan
    loss3, grads3 = mixer.loss_and_grad(p, x, clean2, mask, sigma, eps2)
    assert loss == loss3
    for name in MATS:
        npt.assert_array_equal(grads[name], grads3[name])


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


def _packed(p, z, ref, n_noisy):
    """A window buffer [z | ref] in p's dtype and a copy of its tail."""
    return (np.concatenate([z, ref], axis=-1, dtype=p.flat.dtype),
            np.array(z[z.shape[0] - n_noisy:]))


def test_denoise_window_holds_conditioning_prefix():
    p = mixer.init_mixer(Rng(9), d_in=10, d_out=5, d=6)
    g = np.random.default_rng(4)
    z = g.standard_normal((3, 1, 1, 5)).astype(FLOAT)
    ref = g.standard_normal((3, 1, 1, 5)).astype(FLOAT)
    sigmas = mixer.default_schedule(2).sigmas
    zr, tail = _packed(p, z, ref, 2)
    before = zr.copy()
    mixer.denoise_window(p, sigmas, zr, tail, (1, 2, 3), mixer.Workspace(p, 3))
    npt.assert_array_equal(zr[0], before[0])                # the prefix, both halves
    npt.assert_array_equal(zr[..., 5:], before[..., 5:])    # the reference half
    npt.assert_array_equal(zr[1:, ..., :5], tail)           # the stepped tail, written back
    assert not np.array_equal(tail, z[1:])
    # a tail longer than the window or of other extents, a window in
    # another dtype or not contiguous, a workspace of another length
    zr, tail = _packed(p, z, ref, 2)
    for args, what in (((zr, np.zeros((4, 1, 1, 5), FLOAT), 3), "tail"),
                       ((zr, tail[..., :4], 3), "tail"),
                       ((zr.astype(np.float64), tail, 3), "C-contiguous float32"),
                       ((np.asfortranarray(zr), tail, 3), "C-contiguous float32"),
                       ((zr, tail, 2), "workspace of 3 rows")):
        window, bad_tail, n = args
        with pytest.raises(ValueError, match=what):
            mixer.denoise_window(p, sigmas, window, bad_tail, (1, 2, 3), mixer.Workspace(p, n))
    # the ladder is checked once, before any step: every sigma in [0, 1],
    # strictly decreasing
    for ladder, what in (((1.0, 0.5, 0.5, 0.0), "strictly decreasing"),
                         ((1.0, 0.6, 0.7, 0.0), "strictly decreasing"),
                         ((1.5, 0.5, 0.0), "sigma must lie in"),
                         ((1.0, 0.5, -0.5), "sigma must lie in"),
                         ((1.0, float("nan"), 0.0), "sigma must lie in")):
        with pytest.raises(ValueError, match=what):
            mixer.denoise_window(p, ladder, zr, tail, (1, 2, 3), mixer.Workspace(p, 3))
    npt.assert_array_equal(tail, z[1:])  # a refused window is not stepped


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
    # in one window buffer and workspace, reused window after window, every
    # step equals the concatenating ladder's, and only the tail's z channels
    # are written: the prefix and the reference half stay as built
    p = mixer.init_mixer(Rng(12), d_in=2 * 2 * 2 * 3, d_out=2 * 2 * 3, d=8)
    g = np.random.default_rng(7)
    z = g.standard_normal((5, 2, 2, 3)).astype(FLOAT)
    ref = (np.broadcast_to(g.standard_normal((2, 2, 3)).astype(FLOAT), z.shape)
           if broadcast_ref else g.standard_normal((5, 2, 2, 3)).astype(FLOAT))
    idx = (1, 3, 4, 6, 7)
    n = len(idx)
    sigmas = mixer.default_schedule(4).sigmas
    ws = mixer.Workspace(p, n)
    zr = np.empty((n, 2, 2, 6), FLOAT)
    for n_noisy in range(n + 1):
        zr[...], tail = _packed(p, z, ref, n_noisy)
        prefix = n - n_noisy
        seen, want_seen = [], []
        mixer.denoise_window(p, sigmas, zr, tail, idx, ws,
                             on_step=lambda k, zw, i: seen.append((k, zw.copy(), i)))
        tail_mask = np.arange(n) >= prefix
        want = oracles.denoise_window_concat(lambda x, s: mixer.forward(p, x, s, idx), sigmas,
                                             z, ref, tail_mask,
                                             on_step=lambda k, zw: want_seen.append(zw.copy()))
        assert len(seen) == len(want_seen) == len(sigmas) - 1
        for (k, zw, i), zw_want in zip(seen, want_seen):
            assert i == idx and zw.tobytes() == zw_want.tobytes(), k
        assert tail.tobytes() == want[prefix:].tobytes()
        assert zr[..., :3].tobytes() == want.tobytes()
        assert zr[..., 3:].tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mask_mode", ["causal", "bidirectional"])
def test_attention_equals_uncached_mask_and_softmax(monkeypatch, mask_mode, dtype):
    # the cached causal mask and the in-place softmax give the bits of a
    # fresh np.tril mask and out-of-place steps, forward and backward
    p = small_params(13, mask_mode).astype(dtype)
    for n in range(1, 9):
        x, clean, eps, mask, sigma = random_instance(30 + n, n=n)
        x, clean, eps = (a.astype(dtype) for a in (x, clean, eps))
        got_y = mixer.forward(p, x, sigma)
        got_loss, got_grads = mixer.loss_and_grad(p, x, clean, mask, sigma, eps)
        with monkeypatch.context() as m:
            m.setattr(mixer, "_attend", oracles.attend_uncached)
            want_y = mixer.forward(p, x, sigma)
            want_loss, want_grads = mixer.loss_and_grad(p, x, clean, mask, sigma, eps)
        assert got_y.dtype == want_y.dtype and got_y.tobytes() == want_y.tobytes()
        assert got_loss == want_loss
        for name in MATS:
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name
    # one read-only mask per window length, reused by every call
    assert mixer._future_mask(5) is mixer._future_mask(5)
    assert not mixer._future_mask(5).flags.writeable
    npt.assert_array_equal(mixer._future_mask(5), ~np.tril(np.ones((5, 5), bool)))


def _readonly(a):
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("broadcast_ref", [False, True])
def test_denoise_full_never_writes_its_inputs_or_returns_its_buffer(broadcast_ref):
    p = mixer.init_mixer(Rng(14), d_in=2 * 2 * 2 * 3, d_out=2 * 2 * 3, d=8)
    g = np.random.default_rng(8)
    z = _readonly(g.standard_normal((4, 2, 2, 3)).astype(FLOAT))
    # stage 1's reference: one anchor latent broadcast over the window (stride 0)
    ref = (np.broadcast_to(g.standard_normal((2, 2, 3)).astype(FLOAT), z.shape)
           if broadcast_ref else _readonly(g.standard_normal((4, 2, 2, 3)).astype(FLOAT)))
    assert not z.flags.writeable and not ref.flags.writeable
    z0, ref0 = z.tobytes(), np.ascontiguousarray(ref).tobytes()
    sigmas = mixer.default_schedule(3).sigmas
    a = mixer.denoise_full(p, sigmas, z, ref)
    a_bytes = a.tobytes()
    assert z.tobytes() == z0 and np.ascontiguousarray(ref).tobytes() == ref0
    assert a.flags.c_contiguous and a.flags.writeable and a.flags.owndata
    assert not np.shares_memory(a, z) and not np.shares_memory(a, ref)
    assert a[0].tobytes() == z[0].tobytes()  # the anchor is held
    want = oracles.denoise_window_concat(lambda x, s: mixer.forward(p, x, s, (1, 2, 3, 4)),
                                         sigmas, z, ref, np.arange(4) >= 1)
    assert a_bytes == want.tobytes()
    b = mixer.denoise_full(p, sigmas, z, ref)
    assert a.tobytes() == a_bytes == b.tobytes()  # a later call leaves it alone
    b[:] = 0.0  # and writing one result changes no other
    assert a.tobytes() == a_bytes


def _address(a):
    return a.__array_interface__["data"][0]


def _assert_packed(p):
    """Every matrix is a view of p.flat at its _MATS offset, and w_qkv[i] is
    the same memory as w_q, w_k, w_v."""
    flat = p.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.flags.owndata
    off = 0
    for name in MATS:
        m = getattr(p, name)
        assert m.base is flat and m.dtype == flat.dtype, name
        assert _address(m) == _address(flat) + off * flat.itemsize, name
        off += m.size
    assert off == flat.size
    assert p.w_qkv.shape == (3, p.d, p.d) and p.w_qkv.base is flat
    for i, name in enumerate(("w_q", "w_k", "w_v")):
        assert _address(p.w_qkv[i]) == _address(getattr(p, name)), name


def _copies(p, tmp_path):
    mixer.save_params(p, str(tmp_path))
    return {"astype": p.astype(np.float64), "replace": dataclasses.replace(p, mask_mode="causal"),
            "deepcopy": copy.deepcopy(p), "copy": copy.copy(p),
            "pickle": pickle.loads(pickle.dumps(p)),
            "load_params": mixer.load_params(str(tmp_path))}


def test_params_are_views_of_one_buffer_in_every_copy(tmp_path):
    p = small_params(40)
    _assert_packed(p)
    _assert_packed(oracles.zero_mixer(10, 4, d=6))
    x, clean, eps, mask, sigma = random_instance(41)
    before = p.flat.copy()
    for how, q in _copies(p, tmp_path).items():
        _assert_packed(q)
        assert not np.shares_memory(q.flat, p.flat), how
        for name in MATS:
            npt.assert_array_equal(getattr(q, name), getattr(p, name), err_msg=how)
        # an update of the copy moves every matrix of the copy, none of p
        _, grads = mixer.loss_and_grad(q, x, clean, mask, sigma, eps)
        mixer.sgd_update(q, grads, lr=0.1)
        assert p.flat.tobytes() == before.tobytes(), how
        assert all(not np.array_equal(getattr(q, name), getattr(p, name)) for name in MATS), how


def test_params_cannot_rebind_a_matrix_and_writes_reach_every_view():
    p = small_params(42)
    for name, value in [(name, getattr(p, name).copy()) for name in (*MATS, "w_qkv", "flat")] + [
            ("d", 6), ("mask_mode", "causal")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
    p.w_k[1, 2] = 7.0
    assert p.w_qkv[1, 1, 2] == 7.0
    assert p.flat[p.w_in.size + p.d * p.d + p.d + 2] == 7.0
    _assert_packed(p)


def test_params_reject_mismatched_shapes():
    p = small_params(43)
    mats = {name: getattr(p, name) for name in MATS}
    with pytest.raises(ValueError, match="w_k must be \\(6,6\\)"):
        mixer.MixerParams(**{**mats, "w_k": np.zeros((6, 5), FLOAT)}, d=6,
                          mask_mode="bidirectional")
    with pytest.raises(ValueError, match="embedding/readout width 6/6 disagrees with d=8"):
        mixer.MixerParams(**mats, d=8, mask_mode="bidirectional")
    with pytest.raises(ValueError, match="mask_mode"):
        mixer.MixerParams(**mats, d=6, mask_mode="sideways")


# (d_in, d_out, d): the test model, a stage-1-like and a stage-2-like model
_SHAPES = ((10, 4, 6), (32, 16, 32), (512, 256, 32))


@settings(deadline=None, max_examples=150)
@given(dtype=st.sampled_from((np.float32, np.float64)),
       mask_mode=st.sampled_from(mixer.MASK_MODES), shape=st.sampled_from(_SHAPES),
       n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 1.0),
       lr=st.floats(1e-4, 1.0), data=st.data())
def test_packed_loss_and_update_equal_unpacked(dtype, mask_mode, shape, n, seed, sigma, lr,
                                               data):
    # the packed buffer, the stacked projections, the out= products and the
    # in-place backward give the bits of one array per matrix and a fresh
    # array per step, and so does the one-pass update
    d_in, d_out, d = shape
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
    indices = data.draw(st.one_of(st.none(), st.lists(st.integers(1, 300), min_size=n,
                                                       max_size=n)))
    p = mixer.init_mixer(Rng(seed), d_in, d_out, d=d, mask_mode=mask_mode).astype(dtype)
    q = copy.deepcopy(p)
    g = np.random.default_rng(seed)
    x, clean, eps = (g.standard_normal((n, k)).astype(dtype) for k in (d_in, d_out, d_out))
    loss, grads = mixer.loss_and_grad(p, x, clean, mask, sigma, eps, indices)
    want_loss, want = oracles.loss_and_grad_unpacked(q, x, clean, mask, sigma, eps, indices)
    assert loss == want_loss
    for name in MATS:
        assert grads[name].dtype == want[name].dtype == p.flat.dtype
        assert grads[name].tobytes() == want[name].tobytes(), name
        assert np.shares_memory(grads[name], grads.flat), name
    mixer.sgd_update(p, grads, lr)
    oracles.sgd_update_unpacked(q, want, lr)
    for name in MATS:
        assert getattr(p, name).tobytes() == getattr(q, name).tobytes(), name


@settings(deadline=None, max_examples=100)
@given(t=st.integers(2, 12), M=st.integers(1, 4), N=st.integers(0, 3),
       c=st.sampled_from((1, 3, 4)), dtype=st.sampled_from((np.float32, np.float64)),
       broadcast_ref=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_window_loss_equals_where_and_concatenate_build(t, M, N, c, dtype, broadcast_ref, seed,
                                                        data):
    # slice writes into one [z | ref] buffer, noising only the tail, equal
    # noising every block, np.where and concatenation, bit for bit; both
    # leave the stream at the same place
    plan = scheduler.plan(t, M, N)
    s = data.draw(st.integers(0, plan.S - 1))
    h, w = 2, 1
    g = np.random.default_rng(seed)
    z0 = g.standard_normal((t, h, w, c)).astype(dtype)
    z_ref = (np.broadcast_to(z0[0], z0.shape) if broadcast_ref
             else g.standard_normal((t, h, w, c)).astype(dtype))
    p = mixer.init_mixer(Rng(seed), h * w * 2 * c, h * w * c, d=8)
    window = (z_ref, z0, plan.W[s], len(plan.I[s]))
    ra, rb = Rng(seed).split(SUB_TRAIN), Rng(seed).split(SUB_TRAIN)
    loss, grads = mixer.window_loss(p, *window, ra)
    want_loss, want = oracles.window_loss_concat(p, *window, rb, oracles.loss_and_grad_unpacked)
    assert loss == want_loss
    for name in MATS:
        assert grads[name].tobytes() == want[name].tobytes(), name
    assert ra.uniform01() == rb.uniform01()


def test_window_loss_rejects_a_tail_longer_than_its_window():
    p = mixer.init_mixer(Rng(0), 2 * 3, 3, d=8)
    z = np.zeros((4, 1, 1, 3), FLOAT)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="n_noisy must lie in"):
            mixer.window_loss(p, z, z, (1, 2, 3), bad, Rng(0))


_BLAS = ("bit assumption of the packed mixer failed: {what} (n={n}, d={d}, d_in={d_in}, "
         "{dtype}). The mixer computes stacked (3, ...) products and products into out= "
         "buffers, and assumes this BLAS gives them the bits of separate, fresh 2-D products. "
         "This host's OpenBLAS kernel evidently does not; see ROADMAP item 9 (each kernel "
         "sums in its own order).")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [8, 32])
@pytest.mark.parametrize("d_in", [10, 32, 512])
def test_stacked_and_out_products_equal_separate_fresh_products(dtype, d, d_in):
    d_out = max(1, d_in // 2)
    g = np.random.default_rng(d * 1000 + d_in)
    mats, w_qkv = mixer._views(g.standard_normal(d_in * d + 3 * d * d + d * d_out).astype(dtype),
                               d_in, d)
    w_q, w_k, w_v = w_qkv
    for n in range(1, 162):
        def check(ok, what):
            assert ok, _BLAS.format(what=what, n=n, d=d, d_in=d_in, dtype=np.dtype(dtype).name)

        def into(shape, product, *args, **kwargs):
            # the product written into a fresh out= buffer, as a workspace holds it
            return product(*args, **kwargs, out=np.empty(shape, dtype))

        h, d_r = (g.standard_normal((n, d)).astype(dtype) for _ in range(2))
        x = g.standard_normal((n, d_in)).astype(dtype)
        d_y = g.standard_normal((n, d_out)).astype(dtype)
        attn, d_logits = (g.standard_normal((n, n)).astype(dtype) for _ in range(2))
        # a window's rows, gathered into a buffer of its length (window_gather)
        rows = g.integers(0, n, n)
        check(into((n, d_in), x.take, rows, axis=0, mode="clip").tobytes()
              == x[rows].tobytes(), "x.take(rows) into out=")
        # the forward pass: embedding, projections, logits, readout
        check(into((n, d), np.matmul, x, mats[0]).tobytes() == (x @ mats[0]).tobytes(),
              "x @ w_in into out=")
        qkv = h @ w_qkv                                      # the forward projections
        qkv_out = into((3, n, d), np.matmul, h, w_qkv)
        for i, w in enumerate((w_q, w_k, w_v)):
            check(qkv[i].tobytes() == (h @ w).tobytes(), f"h @ w_qkv, slice {i}")
            check(qkv_out[i].tobytes() == (h @ w).tobytes(), f"h @ w_qkv into out=, slice {i}")
        q, k, v = qkv
        check(into((n, n), np.matmul, q, k.T).tobytes() == (q @ k.T).tobytes(),
              "q @ k.T into out=")
        for name, reduce in (("maximum", np.maximum.reduce), ("add", np.add.reduce)):
            check(into((n, 1), reduce, attn, axis=1, keepdims=True).tobytes()
                  == reduce(attn, axis=1, keepdims=True).tobytes(),
                  f"np.{name}.reduce over rows into an out= column")
        check(into((n, d), np.matmul, attn, v).tobytes() == (attn @ v).tobytes(),
              "attn @ v into out=")
        check(into((n, d_out), np.matmul, h, mats[4]).tobytes() == (h @ mats[4]).tobytes(),
              "r @ w_out into out=")
        # the backward pass
        check(into((n, d), np.matmul, d_y, mats[4].T).tobytes() == (d_y @ mats[4].T).tobytes(),
              "d_y @ w_out.T into out=")
        check(into((n, n), np.matmul, d_r, v.T).tobytes() == (d_r @ v.T).tobytes(),
              "d_r @ v.T into out=")
        g_flat = np.empty_like(mats[0].base)                 # a gradient buffer
        (g_in, _, _, _, g_out), g_qkv = mixer._views(g_flat, d_in, d)
        d_qkv = np.empty_like(qkv)
        np.matmul(d_logits, qkv[1], out=d_qkv[0])
        np.matmul(d_logits.T, qkv[0], out=d_qkv[1])
        np.matmul(attn.T, d_r, out=d_qkv[2])
        check(d_qkv[0].tobytes() == (d_logits @ qkv[1]).tobytes(), "d_logits @ k into out=")
        check(d_qkv[1].tobytes() == (d_logits.T @ qkv[0]).tobytes(), "d_logits.T @ q into out=")
        check(d_qkv[2].tobytes() == (attn.T @ d_r).tobytes(), "attn.T @ d_r into out=")
        np.matmul(h.T, d_qkv, out=g_qkv)
        d_h3 = d_qkv @ w_qkv.transpose(0, 2, 1)
        d_h3_out = into((3, n, d), np.matmul, d_qkv, w_qkv.transpose(0, 2, 1))
        for i, w in enumerate((w_q, w_k, w_v)):
            check(g_qkv[i].tobytes() == (h.T @ d_qkv[i]).tobytes(), f"h.T @ d_qkv into out=, {i}")
            check(d_h3[i].tobytes() == (d_qkv[i] @ w.T).tobytes(), f"d_qkv @ w_qkv^T, slice {i}")
            check(d_h3_out[i].tobytes() == (d_qkv[i] @ w.T).tobytes(),
                  f"d_qkv @ w_qkv^T into out=, slice {i}")
        d_h = np.add.reduce(d_h3, axis=0)
        check(d_h.tobytes() == ((d_h3[0] + d_h3[1]) + d_h3[2]).tobytes(),
              "np.add.reduce over q|k|v in order")
        check(into((n, d), np.add.reduce, d_h3, axis=0).tobytes() == d_h.tobytes(),
              "np.add.reduce over q|k|v into out=")
        np.matmul(x.T, d_h, out=g_in)
        np.matmul(h.T, d_y, out=g_out)
        check(g_in.tobytes() == (x.T @ d_h).tobytes(), "x.T @ d_h into out=")
        check(g_out.tobytes() == (h.T @ d_y).tobytes(), "r.T @ d_y into out=")


@settings(deadline=None, max_examples=60)
@given(dtype=st.sampled_from((np.float32, np.float64)), shape=st.sampled_from(_SHAPES),
       seed=st.integers(0, 2**32 - 1),
       windows=st.lists(st.tuples(st.integers(1, 9), st.sampled_from(mixer.MASK_MODES),
                                  st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)),
                        min_size=2, max_size=10))
def test_reused_workspaces_give_the_bits_of_fresh_calls(dtype, shape, seed, windows):
    # one workspace per window length, reused across a sequence of windows
    # of mixed length, content, sigma and mask mode (a workspace serves any
    # parameters of its shapes), gives the bits of calls that get a fresh one
    d_in, d_out, d = shape
    params = {mode: mixer.init_mixer(Rng(seed), d_in, d_out, d=d, mask_mode=mode).astype(dtype)
              for mode in mixer.MASK_MODES}
    spaces = {}
    for n, mode, sigma, s in windows:
        p = params[mode]
        g = np.random.default_rng(s)
        x, clean, eps = (g.standard_normal((n, k)).astype(dtype) for k in (d_in, d_out, d_out))
        mask = g.random(n) < 0.5
        mask[int(g.integers(n))] = True
        idx = tuple(int(i) for i in g.integers(1, 300, n))
        if n not in spaces:
            spaces[n] = mixer.Workspace(p, n, backward=True)
        ws = spaces[n]
        y = mixer.forward(p, x, sigma, idx, ws=ws)
        assert y.tobytes() == mixer.forward(p, x, sigma, idx).tobytes()
        loss, grads = mixer.loss_and_grad(p, x, clean, mask, sigma, eps, idx, ws=ws)
        want_loss, want = mixer.loss_and_grad(p, x, clean, mask, sigma, eps, idx)
        assert loss == want_loss
        assert grads.flat.tobytes() == want.flat.tobytes()
        for name in MATS:
            assert np.shares_memory(grads[name], ws.grads.flat), name


def test_calls_without_a_workspace_return_arrays_no_later_call_writes():
    p = small_params(44)
    x, clean, eps, mask, sigma = random_instance(45)
    ys = [mixer.forward(p, x, sigma) for _ in range(2)]
    passes = [mixer.loss_and_grad(p, x, clean, mask, sigma, eps) for _ in range(2)]
    z = np.zeros((3, 1, 1, 2), FLOAT)
    losses = [mixer.window_loss(mixer.init_mixer(Rng(46), 4, 2, d=6), z + 1, z, (1, 2, 3), 2,
                                Rng(46)) for _ in range(2)]
    outs = [*ys, *(g.flat for _, g in passes), *(g.flat for _, g in losses)]
    before = [a.tobytes() for a in outs]
    for i, a in enumerate(outs):
        for b in outs[i + 1:]:
            assert not np.shares_memory(a, b)
    mixer.forward(p, x, 0.9)
    mixer.loss_and_grad(p, x, clean, mask, 0.9, eps)
    assert [a.tobytes() for a in outs] == before
    # a workspace of another length, or one for forward passes only, is refused
    for ws in (mixer.Workspace(p, 4, backward=True), mixer.Workspace(p, 3)):
        with pytest.raises(ValueError, match="backward workspace of 3 rows"):
            mixer.loss_and_grad(p, x, clean, mask, sigma, eps, ws=ws)
