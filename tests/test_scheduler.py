"""Segment-plan tests: pinned examples, oracle agreement, invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segvid import scheduler
from segvid.scheduler import EmptySequenceError

import oracles


def same_as_oracle(p, ref):
    if p.S != len(ref):
        return False
    for s in range(p.S):
        r = ref[s]
        if (p.a[s] != r["start"] or list(p.I[s]) != r["I"]
                or list(p.Nbr[s]) != r["Nbr"] or list(p.W[s]) != r["W"]):
            return False
    return True


def test_plan_21_3_1_exact():
    p = scheduler.plan(21, 3, 1)
    assert p.S == 7
    assert [len(I) for I in p.I] == [3, 3, 3, 3, 3, 3, 2]
    assert list(p.a) == [2, 5, 8, 11, 14, 17, 20]
    assert p.Nbr[0] == ()
    assert p.W[0] == (1, 2, 3, 4)
    assert p.W[6] == (1, 19, 20, 21)


def test_plan_minimal():
    p = scheduler.plan(2, 1, 0)
    assert p.S == 1 and p.I[0] == (2,) and p.Nbr[0] == () and p.W[0] == (1, 2)


def test_plan_10_4_2_matches_oracle():
    p = scheduler.plan(10, 4, 2)
    assert p.S == 3
    assert [list(I) for I in p.I] == [[2, 3, 4, 5], [6, 7, 8, 9], [10]]
    assert [list(n) for n in p.Nbr] == [[], [4, 5], [8, 9]]
    assert list(p.W[2]) == [1, 8, 9, 10]
    assert same_as_oracle(p, oracles.plan_bruteforce(10, 4, 2))


def test_neighbor_clipping_at_anchor():
    p = scheduler.plan(6, 2, 5)
    assert list(p.W[1]) == [1, 2, 3, 4, 5]  # a_2 - N < 2 clips to 2


def test_error_kinds():
    with pytest.raises(EmptySequenceError):
        scheduler.plan(1, 3, 1)
    with pytest.raises(ValueError) as e:
        scheduler.plan(10, 0, 1)
    assert not isinstance(e.value, EmptySequenceError)
    with pytest.raises(ValueError):
        scheduler.plan(10, 3, -1)
    with pytest.raises(TypeError):
        scheduler.plan(10.0, 3, 1)


def test_token_budget_example():
    p = scheduler.plan(21, 3, 1)
    costs = scheduler.token_budget(p, 8, 8)
    assert costs == [256, 320, 320, 320, 320, 320, 256]
    p0 = scheduler.plan(21, 3, 0)
    assert scheduler.token_budget(p0, 8, 8) == [(1 + len(I)) * 64 for I in p0.I]
    with pytest.raises(ValueError):
        scheduler.token_budget(p, 0, 8)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(2, 120), M=st.integers(1, 8), N=st.integers(0, 4))
def test_plan_invariants(t, M, N):
    p = scheduler.plan(t, M, N)
    assert p.S == -((t - 1) // -M)
    flat = [i for I in p.I for i in I]
    assert flat == list(range(2, t + 1))            # partition, ordered
    assert all(len(I) == M for I in p.I[:-1])       # only the last may be short
    assert 1 <= len(p.I[-1]) <= M
    for s in range(p.S):
        assert 1 in p.W[s]
        assert list(p.W[s]) == sorted(set(p.W[s]))
        if s > 0:
            assert len(p.Nbr[s]) <= N
            if N > 0:
                assert max(p.Nbr[s]) == p.a[s] - 1
        if s + 1 < p.S:
            assert max(p.I[s]) < min(p.I[s + 1])


@settings(max_examples=80, deadline=None)
@given(t=st.integers(2, 400), M=st.integers(1, 8), N=st.integers(0, 4))
def test_window_is_conditioning_prefix_then_contiguous_noisy_tail(t, M, N):
    p = scheduler.plan(t, M, N)
    for s in range(p.S):
        assert p.W[s] == (1,) + p.Nbr[s] + p.I[s]
        assert p.I[s] == tuple(range(p.a[s], p.a[s] + len(p.I[s])))


def test_window_gather_scatter_roundtrip():
    p = scheduler.plan(10, 3, 1)
    rng = np.random.default_rng(0)
    latents = rng.standard_normal((10, 2, 2, 3)).astype(np.float32)
    for s in range(1, p.S + 1):
        win, idx = scheduler.window_gather(latents, p, s)
        assert idx == p.W[s - 1]
        assert win.shape[0] == len(idx)
        a, m = p.a[s - 1], len(p.I[s - 1])
        out = latents.copy()
        out[a - 1:a - 1 + m] = win[-m:]  # the noisy tail's write-back
        assert np.array_equal(out, latents)


def test_window_gather_validation():
    p = scheduler.plan(10, 3, 1)
    latents = np.zeros((10, 2, 2, 3), np.float32)
    with pytest.raises(ValueError):
        scheduler.window_gather(latents, p, 0)
    with pytest.raises(ValueError):
        scheduler.window_gather(latents, p, p.S + 1)
    with pytest.raises(ValueError):
        scheduler.window_gather(latents[:-1], p, 1)


def test_to_json_schema():
    doc = json.loads(scheduler.to_json(scheduler.plan(10, 4, 2)))
    assert doc["t"] == 10 and doc["M"] == 4 and doc["N"] == 2 and doc["S"] == 3
    seg = doc["segments"][2]
    assert seg["s"] == 3 and seg["start"] == 10
    assert seg["noisy"] == [10] and seg["neighbors"] == [8, 9]
    assert seg["window"] == [1, 8, 9, 10]


def test_plan_is_shared_but_still_type_checked():
    p = scheduler.plan(9, 3, 1)
    assert scheduler.plan(9, 3, 1) is p
    with pytest.raises(TypeError):
        scheduler.plan(9, 3.0, 1)
    with pytest.raises(TypeError):
        scheduler.plan(9.0, 3, 1)
    assert same_as_oracle(scheduler.plan(9, 3, 1), oracles.plan_bruteforce(9, 3, 1))


def test_window_gather_returns_a_copy():
    p = scheduler.plan(10, 3, 2)
    latents = np.random.default_rng(1).standard_normal((10, 2, 2, 3)).astype(np.float32)
    keep = latents.copy()
    bufs = {}
    for s in range(1, p.S + 1):
        win, idx = scheduler.window_gather(latents, p, s)
        want = np.stack([latents[i - 1] for i in idx])
        assert np.array_equal(win, want)
        win += 1.0
        # into a caller's buffer of the window's length, reused
        buf = bufs.setdefault(len(idx), np.empty((len(idx), 2, 2, 3), np.float32))
        out, _ = scheduler.window_gather(latents, p, s, out=buf)
        assert out is buf and out.tobytes() == want.tobytes()
    assert np.array_equal(latents, keep)
    with pytest.raises(ValueError):  # a buffer of another length
        scheduler.window_gather(latents, p, 1, out=np.empty((2, 2, 2, 3), np.float32))
