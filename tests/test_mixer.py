"""Mixer tests: forward masking, loss/gradients, sampler, schedules, I/O,
the packed parameter buffer, and the BLAS bit assumptions it rests on."""

import copy
import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from segvid import mixer, scheduler, stage2
from segvid.codec import CodecConfig
from segvid.grid import FLOAT, SUB_TRAIN, Rng

import oracles
import reference

MATS = ("w_in", "w_q", "w_k", "w_v", "w_out")


def small_params(seed, mask_mode="bidirectional"):
    return mixer.init_mixer(Rng(seed), d_in=10, d_out=4, d=6, mask_mode=mask_mode)


def zero_params():
    """All-zero parameters: they predict v_hat = 0 everywhere."""
    p = small_params(0)
    return mixer.MixerParams(**{name: np.zeros_like(getattr(p, name)) for name in MATS}, d=p.d,
                             mask_mode=p.mask_mode)


def codes(idx, d, dtype):
    """The position-code rows of the blocks idx, each code on its own."""
    return np.stack([reference.sin_code(i, d) for i in idx]).astype(dtype)


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
    p = zero_params()
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


@pytest.mark.parametrize("via", ["denoise_segments", "infer_csg"])
@pytest.mark.parametrize("sigmas, t, anchor_shape, ref_shape, what", [
    ((1.0, 0.5, 0.5, 0.0), 3, (1, 1, 5), (3, 1, 1, 5), "strictly decreasing"),
    ((1.0, 0.6, 0.7, 0.0), 3, (1, 1, 5), (3, 1, 1, 5), "strictly decreasing"),
    ((1.5, 0.5, 0.0), 3, (1, 1, 5), (3, 1, 1, 5), "sigma must lie in"),
    ((1.0, 0.5, -0.5), 3, (1, 1, 5), (3, 1, 1, 5), "sigma must lie in"),
    ((1.0, float("nan"), 0.0), 3, (1, 1, 5), (3, 1, 1, 5), "sigma must lie in"),
    ((1.0, 0.5, 0.0), 4, (1, 1, 5), (3, 1, 1, 5), "plan's 4 blocks"),
    ((1.0, 0.5, 0.0), 3, (1, 1, 5), (3, 1, 1, 4), "anchor's extents"),
    ((1.0, 0.5, 0.0), 3, (1, 5), (3, 1, 5), "anchor's extents"),
    ((1.0, 0.5, 0.0), 3, (1, 1, 4), (3, 1, 1, 4), "mixer reads 10"),
], ids=["repeat", "rise", "above-1", "below-0", "nan", "blocks", "extents", "anchor-2d",
        "d_in"])
def test_refused_requests_draw_nothing(monkeypatch, via, sigmas, t, anchor_shape, ref_shape,
                                       what):
    # a request is checked once, at loop entry: a bad ladder or a reference
    # or anchor of the wrong shape is refused before any noise is drawn or
    # any forward pass runs
    p = mixer.init_mixer(Rng(9), d_in=10, d_out=5, d=6)
    g = np.random.default_rng(4)
    anchor = g.standard_normal(anchor_shape).astype(FLOAT)
    ref = g.standard_normal(ref_shape).astype(FLOAT)
    plan = scheduler.plan(t, 1, 1)
    fills, passes = [], []

    def fill(out, a):
        fills.append(a)

    monkeypatch.setattr(mixer, "forward", lambda *args, **kwargs: passes.append(args))
    with pytest.raises(ValueError, match=what):
        if via == "denoise_segments":
            mixer.denoise_segments(p, sigmas, plan, anchor, ref, fill)
        else:
            monkeypatch.setattr(stage2, "noise_filler", lambda rng, t: fill)
            model = mixer.StageModel(p, CodecConfig(c=5), SimpleNamespace(sigmas=sigmas))
            stage2.infer_csg(model, SimpleNamespace(z_x=anchor, z_ref=ref), plan, 0)
    assert fills == [] and passes == []


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
    want = codes(range(1, 1025), d, dt)
    got = mixer._pos_codes(range(1, 1025), d, dt)
    assert got.dtype == dt and np.array_equal(got, want)
    # resolved once per window: every step of a window reads the same rows
    assert mixer._pos_codes((1, 4, 5), d, dt) is mixer._pos_codes((1, 4, 5), d, dt)
    assert not got.flags.writeable
    for idx in ([7, 3, 3, 1024, 1, 7], (5,), np.array([2, 2, 900, 1])):
        npt.assert_array_equal(mixer._pos_codes(idx, d, dt), codes(idx, d, dt))
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
        want = ((x @ p.w_in + reference.sin_code(1000.0 * sigma, p.d).astype(FLOAT))
                + codes((1, 4, 5, 9), p.d, FLOAT))
        npt.assert_array_equal(mixer._embed(p, x, sigma, (1, 4, 5, 9)), want)
    info = mixer._level_code.cache_info()  # training draws a new sigma per step
    assert info.maxsize is not None and info.currsize <= info.maxsize < len(sigmas)
    assert not mixer._level_code(500.0, p.d, np.dtype(FLOAT)).flags.writeable


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mask_mode", ["causal", "bidirectional"])
def test_attention_equals_uncached_mask_and_softmax(mask_mode, dtype):
    # the cached causal mask and the in-place softmax give the bits of a
    # fresh np.tril mask and out-of-place steps, forward and backward
    p = small_params(13, mask_mode).astype(dtype)
    for n in range(1, 9):
        x, clean, eps, mask, sigma = random_instance(30 + n, n=n)
        x, clean, eps = (a.astype(dtype) for a in (x, clean, eps))
        got_y = mixer.forward(p, x, sigma)
        got_loss, got_grads = mixer.loss_and_grad(p, x, clean, mask, sigma, eps)
        want_y = reference.forward(p, x, sigma, range(1, n + 1))
        want_loss, want_grads = reference.loss_and_grad(p, x, clean, mask, sigma, eps,
                                                        range(1, n + 1))
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
def test_denoise_segments_never_writes_its_inputs_or_shares_its_buffer(broadcast_ref):
    p = mixer.init_mixer(Rng(14), d_in=2 * 2 * 2 * 3, d_out=2 * 2 * 3, d=8)
    g = np.random.default_rng(8)
    z = _readonly(g.standard_normal((4, 2, 2, 3)).astype(FLOAT))
    # stage 1's reference: one anchor latent broadcast over the window (stride 0)
    ref = (np.broadcast_to(g.standard_normal((2, 2, 3)).astype(FLOAT), z.shape)
           if broadcast_ref else _readonly(g.standard_normal((4, 2, 2, 3)).astype(FLOAT)))
    assert not z.flags.writeable and not ref.flags.writeable
    z0, ref0 = z.tobytes(), np.ascontiguousarray(ref).tobytes()
    sigmas = mixer.default_schedule(3).sigmas

    def fill(out, a):
        out[...] = z[a - 1:a - 1 + len(out)]

    # the whole buffer as one window, run in place, and gathered windows,
    # each into the loop's one buffer and workspace of its length: every
    # step equals the concatenating ladder's
    for plan in (scheduler.plan(4, 3, 0), scheduler.plan(4, 1, 1)):
        seen = []
        a = mixer.denoise_segments(p, sigmas, plan, z[0], ref, fill,
                                   on_step=lambda s, k, zw, i: seen.append(zw.tobytes()))
        a_bytes = a.tobytes()
        want, want_seen = np.array(z), []
        for W, m in zip(plan.W, map(len, plan.I)):
            rows = np.subtract(W, 1)
            for k in range(len(sigmas) - 1):
                win = reference.ladder(p, sigmas[:k + 2], want[rows], ref[rows], W, m)
                want_seen.append(win.tobytes())
            want[rows[-m:]] = win[-m:]
        assert seen == want_seen and a_bytes == want.tobytes()
        assert z.tobytes() == z0 and np.ascontiguousarray(ref).tobytes() == ref0
        assert a.flags.writeable and a.shape == z.shape
        assert not np.shares_memory(a, z) and not np.shares_memory(a, ref)
        assert a[0].tobytes() == z[0].tobytes()  # the anchor is held
        b = mixer.denoise_segments(p, sigmas, plan, z[0], ref, fill)
        assert a.tobytes() == a_bytes == b.tobytes()  # a later call leaves it alone
        b[:] = 0.0  # and writing one result changes no other
        assert a.tobytes() == a_bytes


@pytest.mark.parametrize("broadcast_ref", [False, True])
def test_denoise_window_matches_concat_per_step_and_keeps_inputs(broadcast_ref):
    # every window of the loop, over plans whose windows hold each prefix
    # length 1..4 before a tail, in one window buffer per length reused
    # segment after segment: every step equals the concatenating ladder's,
    # and only the tail's z channels are written: the prefix and the
    # reference half stay as built
    p = mixer.init_mixer(Rng(12), d_in=2 * 2 * 2 * 3, d_out=2 * 2 * 3, d=8)
    g = np.random.default_rng(7)
    t = 7
    z = g.standard_normal((t, 2, 2, 3)).astype(FLOAT)
    ref = (np.broadcast_to(g.standard_normal((2, 2, 3)).astype(FLOAT), z.shape)
           if broadcast_ref else g.standard_normal((t, 2, 2, 3)).astype(FLOAT))
    sigmas = mixer.default_schedule(4).sigmas

    def fill(out, a):
        out[...] = z[a - 1:a - 1 + len(out)]

    prefixes = set()
    for plan in (scheduler.plan(t, 6, 0), *(scheduler.plan(t, 2, N) for N in range(4))):
        seen = []
        a = mixer.denoise_segments(
            p, sigmas, plan, z[0], ref, fill,
            on_step=lambda s, k, zw, i: seen.append((s, k, zw.copy(), i, zw.base,
                                                      zw.base[..., 3:].tobytes())))
        want, want_seen = np.array(z), []
        for W, m in zip(plan.W, map(len, plan.I)):
            rows = np.subtract(W, 1)
            prefixes.add(len(W) - m)
            for k in range(len(sigmas) - 1):
                win = reference.ladder(p, sigmas[:k + 2], want[rows], ref[rows], W, m)
                want_seen.append((W, win))
            want[rows[-m:]] = win[-m:]
        assert len(seen) == len(want_seen) == plan.S * (len(sigmas) - 1)
        bufs = {}
        for (s, k, zw, i, buf, got_ref), (W, zw_want) in zip(seen, want_seen):
            assert i == W == plan.W[s - 1] and zw.tobytes() == zw_want.tobytes(), (s, k)
            assert got_ref == np.ascontiguousarray(ref[np.subtract(W, 1)]).tobytes(), (s, k)
            assert bufs.setdefault(len(W), buf) is buf  # one buffer per window length
        assert a.tobytes() == want.tobytes()
        assert a.base[..., 3:].tobytes() == np.ascontiguousarray(ref).tobytes()
    assert prefixes == {1, 2, 3, 4}


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
    _assert_packed(zero_params())
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
    want_loss, want = reference.loss_and_grad(q, x, clean, mask, sigma, eps,
                                              indices or range(1, n + 1))
    assert loss == want_loss
    for name in MATS:
        assert grads[name].dtype == want[name].dtype == p.flat.dtype
        assert grads[name].tobytes() == want[name].tobytes(), name
        assert np.shares_memory(grads[name], grads.flat), name
    mixer.sgd_update(p, grads, lr)
    q = reference.sgd(q, want, lr)
    for name in MATS:
        assert getattr(p, name).tobytes() == getattr(q, name).tobytes(), name


@settings(deadline=None, max_examples=100)
@given(t=st.integers(2, 12), M=st.integers(1, 4), N=st.integers(0, 3),
       c=st.sampled_from((1, 3, 4)), dtype=st.sampled_from((np.float32, np.float64)),
       broadcast_ref=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_window_loss_equals_where_and_concatenate_build(t, M, N, c, dtype, broadcast_ref, seed,
                                                        data):
    # a training step in a run's buffers (slice writes into one [z | ref]
    # window, only the tail noised, in place) equals the reference's step in
    # fresh arrays, bit for bit, in float32 and float64; both leave the
    # stream at the same place
    plan = scheduler.plan(t, M, N)
    s = data.draw(st.integers(0, plan.S - 1))
    h, w = 2, 1
    g = np.random.default_rng(seed)
    z0 = g.standard_normal((t, h, w, c)).astype(dtype)
    z_ref = (np.broadcast_to(z0[0], z0.shape) if broadcast_ref
             else g.standard_normal((t, h, w, c)).astype(dtype))
    p = mixer.init_mixer(Rng(seed), h * w * 2 * c, h * w * c, d=8)
    ra, rb = Rng(seed).split(SUB_TRAIN), Rng(seed).split(SUB_TRAIN)
    loss, grads = mixer._Spaces(p).step(np.concatenate([z0, z_ref], axis=-1), plan, s + 1, ra)
    want_loss, want = reference.window_step(p, z0, z_ref, plan.W[s], len(plan.I[s]), rb)
    assert loss == want_loss
    for name in MATS:
        assert grads[name].tobytes() == want[name].tobytes(), name
    assert ra.uniform01() == rb.uniform01()


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
    w_in, w_q, w_k, w_v, w_out = mats
    for n in range(1, 162):
        def same(what, got, want):
            assert got.tobytes() == want.tobytes(), _BLAS.format(
                what=what, n=n, d=d, d_in=d_in, dtype=np.dtype(dtype).name)

        def into(what, product, *args, **kwargs):
            # the product written into a fresh out= buffer, as a workspace holds it
            want = product(*args, **kwargs)
            same(f"{what} into out=", product(*args, **kwargs, out=np.empty_like(want)), want)

        h, d_r = (g.standard_normal((n, d)).astype(dtype) for _ in range(2))
        x = g.standard_normal((n, d_in)).astype(dtype)
        d_y = g.standard_normal((n, d_out)).astype(dtype)
        attn, d_logits = (g.standard_normal((n, n)).astype(dtype) for _ in range(2))
        # a window's rows, gathered into a buffer of its length (window_gather)
        rows = g.integers(0, n, n)
        same("x.take(rows) into out=", x.take(rows, axis=0, out=np.empty_like(x), mode="clip"),
             x[rows])
        # the forward pass: embedding, projections, logits, readout; then the
        # backward pass's products into fresh buffers
        qkv = h @ w_qkv
        qkv_out = np.matmul(h, w_qkv, out=np.empty_like(qkv))
        for i, w in enumerate((w_q, w_k, w_v)):
            same(f"h @ w_qkv, slice {i}", qkv[i], h @ w)
            same(f"h @ w_qkv into out=, slice {i}", qkv_out[i], h @ w)
        q, k, v = qkv
        for what, a, b in (("x @ w_in", x, w_in), ("q @ k.T", q, k.T), ("attn @ v", attn, v),
                           ("r @ w_out", h, w_out), ("d_y @ w_out.T", d_y, w_out.T),
                           ("d_r @ v.T", d_r, v.T)):
            into(what, np.matmul, a, b)
        for name, reduce in (("maximum", np.maximum.reduce), ("add", np.add.reduce)):
            into(f"np.{name}.reduce over rows, a column,", reduce, attn, axis=1, keepdims=True)
        # the backward pass's products into views of its buffers
        (g_in, _, _, _, g_out), g_qkv = mixer._views(np.empty_like(mats[0].base), d_in, d)
        d_qkv = np.empty_like(qkv)
        for i, (what, a, b) in enumerate((("d_logits @ k", d_logits, k),
                                          ("d_logits.T @ q", d_logits.T, q),
                                          ("attn.T @ d_r", attn.T, d_r))):
            same(f"{what} into out=", np.matmul(a, b, out=d_qkv[i]), a @ b)
        np.matmul(h.T, d_qkv, out=g_qkv)
        d_h3 = d_qkv @ w_qkv.transpose(0, 2, 1)
        d_h3_out = np.matmul(d_qkv, w_qkv.transpose(0, 2, 1), out=np.empty_like(d_h3))
        for i, w in enumerate((w_q, w_k, w_v)):
            same(f"h.T @ d_qkv into out=, {i}", g_qkv[i], h.T @ d_qkv[i])
            same(f"d_qkv @ w_qkv^T, slice {i}", d_h3[i], d_qkv[i] @ w.T)
            same(f"d_qkv @ w_qkv^T into out=, slice {i}", d_h3_out[i], d_qkv[i] @ w.T)
        d_h = np.add.reduce(d_h3, axis=0)
        same("np.add.reduce over q|k|v in order", d_h, (d_h3[0] + d_h3[1]) + d_h3[2])
        into("np.add.reduce over q|k|v", np.add.reduce, d_h3, axis=0)
        same("x.T @ d_h into out=", np.matmul(x.T, d_h, out=g_in), x.T @ d_h)
        same("r.T @ d_y into out=", np.matmul(h.T, d_y, out=g_out), h.T @ d_y)


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
    losses = [mixer._Spaces(mixer.init_mixer(Rng(46), 4, 2, d=6)).step(
        np.concatenate([z, z + 1], axis=-1), scheduler.plan(3, 2, 0), 1, Rng(46)) for _ in range(2)]
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
