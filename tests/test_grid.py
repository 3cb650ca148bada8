"""RNG, resize, and SIV1 container tests."""

import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from segvid.grid import (FLOAT, Rng, as_f32, init_noise_blocks, noise_filler, read_siv1,
                         require_finite, resize_spatial, write_siv1)

import oracles


def test_rng_determinism():
    a = Rng(7).normal((2, 2))
    b = Rng(7).normal((2, 2))
    assert np.array_equal(a, b)
    assert a.dtype == FLOAT


def test_rng_distinct_seeds():
    a = Rng(7).normal((2, 2))
    b = Rng(8).normal((2, 2))
    assert not np.array_equal(a, b)


def test_rng_moments():
    x = Rng(0).normal((1000, 1000))
    assert abs(float(x.mean())) < 0.01
    assert abs(float(x.var()) - 1.0) < 0.02


def test_rng_split_independent_of_parent_draws():
    r = Rng(5)
    child_before = r.split(3).normal((4,))
    r.normal((10,))  # consume from the parent
    child_after = Rng(5).split(3).normal((4,))
    assert np.array_equal(child_before, child_after)


def test_rng_split_paths_differ():
    a = Rng(5).split(1).normal((8,))
    b = Rng(5).split(2).normal((8,))
    c = Rng(5).split(1, 2).normal((8,))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_rejects_bad_seeds():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)
    with pytest.raises(ValueError):
        Rng("7")


def test_init_noise_blocks_keyed_per_block():
    z = init_noise_blocks(Rng(3), 5, 2, 2, 3)
    assert np.array_equal(z[0], np.zeros((2, 2, 3), FLOAT))
    # block content depends only on (seed, block index), not on t
    z9 = init_noise_blocks(Rng(3), 9, 2, 2, 3)
    npt.assert_array_equal(z9[:5], z)


@settings(deadline=None, max_examples=60)
@given(seed=st.one_of(st.integers(0, 2**64 - 1),
                     st.sampled_from((0, 2**32 - 1, 2**32, 2**64 - 1))),
       key=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 300)), max_size=3),
       t=st.sampled_from((1, 2, 161)), block=st.sampled_from(((2, 2, 4), (8, 8, 4))),
       data=st.data())
def test_init_noise_blocks_equals_per_block_streams(seed, key, t, block, data):
    # the Python-integer SeedSequence/PCG64 seeding gives each block the bits
    # of its own Rng.split(SUB_INIT_NOISE, i) stream, for one- and multi-word
    # seeds and keys, whether all blocks are drawn at once or any run of
    # them through one filler
    rng = Rng(seed).split(*key)
    want = oracles.init_noise_blocks_loop(rng, t, *block)
    npt.assert_array_equal(init_noise_blocks(rng, t, *block), want)
    fill = noise_filler(rng)
    for _ in range(3):
        first = data.draw(st.integers(2, max(2, t)), label="first_block")
        count = data.draw(st.integers(0, t + 1 - first), label="count")
        out = np.full((count,) + block, np.nan, FLOAT)
        fill(out, first)
        assert out.tobytes() == want[first - 1:first - 1 + count].tobytes()


def test_rng_seeds_its_generator_on_first_draw(monkeypatch):
    made = []
    real = np.random.SeedSequence

    def counted(*args, **kwargs):
        made.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    g = Rng(5)
    child = g.split(1).split(2, 3)
    init_noise_blocks(g.split(7), 9, 2, 2, 3)
    assert made == []  # split-only streams and block noise seed no SeedSequence
    a = child.normal((4,))
    assert made == [{"entropy": 5, "spawn_key": (1, 2, 3)}]
    b = child.normal((4,))
    assert len(made) == 1 and not np.array_equal(a, b)
    monkeypatch.undo()
    npt.assert_array_equal(np.concatenate([a, b]), Rng(5).split(1, 2, 3).normal((8,)))


def test_resize_constant_invariance():
    v = np.full((3, 8, 8, 3), 0.5, FLOAT)
    npt.assert_array_equal(resize_spatial(v, "down_avg", 4), np.full((3, 2, 2, 3), 0.5, FLOAT))
    npt.assert_array_equal(resize_spatial(v, "up_nearest", 2), np.full((3, 16, 16, 3), 0.5, FLOAT))


def test_resize_block_mean():
    v = np.array([[0.0, 1.0], [1.0, 0.0]], FLOAT).reshape(1, 2, 2, 1)
    out = resize_spatial(v, "down_avg", 2)
    npt.assert_array_equal(out, np.full((1, 1, 1, 1), 0.5, FLOAT))


def test_down_then_up_matches_loop_oracle():
    rng = np.random.default_rng(0)
    v = rng.random((1, 8, 8, 3)).astype(FLOAT)
    got = resize_spatial(resize_spatial(v, "down_avg", 2), "up_nearest", 2)
    want = np.empty_like(v, dtype=np.float64)
    for y in range(0, 8, 2):
        for x in range(0, 8, 2):
            for c in range(3):
                want[0, y:y + 2, x:x + 2, c] = v[0, y:y + 2, x:x + 2, c].mean(dtype=np.float64)
    npt.assert_allclose(got, want, atol=1e-6)
    # a second cycle with the same factor is idempotent
    again = resize_spatial(resize_spatial(got, "down_avg", 2), "up_nearest", 2)
    npt.assert_array_equal(again, got)


@settings(deadline=None, max_examples=200)
@given(c=st.sampled_from((2, 3, 4)), f=st.integers(1, 8), t=st.integers(1, 3),
       h=st.integers(1, 3), w=st.integers(1, 3), mag=st.floats(1e-3, 1e4),
       neg_zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_down_avg_equals_numpy_mean(c, f, t, h, w, mag, neg_zero, seed):
    # the ordered tap sums give the bits of numpy's float32 mean over the two
    # tap axes for C-contiguous input with C >= 2, including -0.0 taps
    rng = np.random.default_rng(seed)
    v = (mag * rng.standard_normal((t, h * f, w * f, c))).astype(FLOAT)
    if neg_zero and f > 1:  # factor 1 is a copy, which keeps -0.0
        v[rng.random(v.shape) < 0.5] = -0.0
        v[:, :f, :f] = -0.0  # one cell of -0.0 only
    want = v.reshape(t, h, f, w, f, c).mean(axis=(2, 4), dtype=np.float32)
    got = resize_spatial(v, "down_avg", f)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_resize_factor_one_is_copy():
    v = np.zeros((2, 4, 4, 3), FLOAT)
    out = resize_spatial(v, "down_avg", 1)
    assert np.array_equal(out, v) and out is not v


def test_resize_errors():
    v = np.zeros((1, 6, 6, 3), FLOAT)
    with pytest.raises(ValueError):
        resize_spatial(v, "down_avg", 4)
    with pytest.raises(ValueError):
        resize_spatial(v, "sideways", 2)
    with pytest.raises(ValueError):
        resize_spatial(v, "down_avg", 0)
    with pytest.raises(ValueError):
        resize_spatial(np.zeros((4, 4, 3), FLOAT), "down_avg", 2)


def test_siv1_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((3, 4, 5, 2)).astype(FLOAT)
    path = tmp_path / "t.siv1"
    write_siv1(path, arr)
    back = read_siv1(path)
    assert back.tobytes() == arr.tobytes()
    assert back.dtype == FLOAT and back.shape == arr.shape


def test_siv1_rejects_garbage(tmp_path):
    p = tmp_path / "bad.siv1"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        read_siv1(p)
    p.write_bytes(b"SIV")
    with pytest.raises(ValueError):
        read_siv1(p)
    # correct header, short payload
    arr = np.zeros((1, 2, 2, 1), FLOAT)
    write_siv1(p, arr)
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(ValueError):
        read_siv1(p)


def test_siv1_rejects_nonzero_reserved(tmp_path):
    p = tmp_path / "r.siv1"
    write_siv1(p, np.zeros((1, 1, 1, 1), FLOAT))
    raw = bytearray(p.read_bytes())
    raw[20] = 1  # reserved word
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_siv1(p)


def test_siv1_rejects_non4d_and_nonfinite(tmp_path):
    with pytest.raises(ValueError):
        write_siv1(tmp_path / "x.siv1", np.zeros((2, 2), FLOAT))
    bad = np.zeros((1, 1, 1, 1), FLOAT)
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        write_siv1(tmp_path / "y.siv1", bad)


def test_as_f32_and_require_finite():
    out = as_f32([[1.0, 2.0]])
    assert out.dtype == FLOAT
    with pytest.raises(ValueError):
        as_f32([np.inf])
    with pytest.raises(ValueError):
        require_finite(np.array([np.nan]))


def test_canon_oracle_self_check():
    # the ring convention used by the motion tests
    assert oracles.canon(4, 16) == 4
    assert oracles.canon(-4, 16) == -4
    assert oracles.canon(12, 16) == -4
    assert oracles.canon(8, 16) == 8


def _siv1_bytes(dims, payload_floats):
    return (struct.pack("<4sIIIII", b"SIV1", *dims, 0)
            + np.zeros(payload_floats, "<f4").tobytes())


@pytest.mark.parametrize("raw, reason", [
    (_siv1_bytes((1, 2, 2, 1), 4)[:20], "truncated SIV1 header"),
    (_siv1_bytes((1, 2, 2, 1), 3), "payload is 12 bytes, expected 16"),
    (_siv1_bytes((1 << 16, 1 << 16, 1, 1), 1), "exceeds"),
    (_siv1_bytes((1, 2, 2, 1), 5), "payload is 20 bytes, expected 16"),
    (_siv1_bytes((0, 2, 2, 1), 0), "all extents must be positive"),
], ids=["truncated-header", "truncated-payload", "oversized-extents", "trailing-bytes",
        "zero-extent"])
def test_siv1_rejects_corrupt_file_with_one_line_reason(tmp_path, raw, reason):
    p = tmp_path / "c.siv1"
    p.write_bytes(raw)
    with pytest.raises(ValueError) as e:
        read_siv1(p)
    msg = str(e.value)
    assert msg.startswith(f"{p}: ") and reason in msg and "\n" not in msg


_SIV1_CORRUPTION = st.one_of(
    st.tuples(st.just("field"), st.integers(0, 5),
              st.one_of(st.sampled_from((0, 1, 2, 3, 1 << 16, 1 << 31, (1 << 32) - 1)),
                        st.integers(0, (1 << 32) - 1))),
    st.tuples(st.just("byte"), st.integers(0, 24 + 4 * 12 - 1), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 24 + 4 * 12 - 1), st.just(0)),
    st.tuples(st.just("append"), st.integers(1, 9), st.integers(0, 255)),
)


@settings(deadline=None, max_examples=300)
@given(corruptions=st.lists(_SIV1_CORRUPTION, min_size=1, max_size=3))
def test_siv1_fuzz_rejects_only_with_one_line_reason(tmp_path_factory, corruptions):
    # mutated header fields or bytes, truncations and trailing bytes of a
    # valid (1, 2, 3, 2) file: reading it either succeeds or raises a
    # ValueError whose one-line message starts with the path
    p = tmp_path_factory.mktemp("fuzz") / "f.siv1"
    raw = bytearray(struct.pack("<4sIIIII", b"SIV1", 1, 2, 3, 2, 0)
                    + np.arange(12, dtype="<f4").tobytes())
    for kind, at, value in corruptions:
        if kind == "field" and 4 * at + 4 <= len(raw):
            struct.pack_into("<I", raw, 4 * at, value)  # field 0 is the magic
        elif kind == "byte" and at < len(raw):
            raw[at] = value
        elif kind == "truncate":
            del raw[at:]
        elif kind == "append":
            raw += bytes([value]) * at
    p.write_bytes(bytes(raw))
    try:
        arr = read_siv1(p)
    except ValueError as e:
        msg = str(e)
        assert msg.startswith(f"{p}"), msg
        assert "\n" not in msg, msg
    else:
        assert arr.dtype == FLOAT and arr.ndim == 4 and np.isfinite(arr).all()


@pytest.mark.parametrize("head", [b"SIVX" + bytes(20), _siv1_bytes((1, 2, 2, 1), 0)],
                         ids=["bad-magic", "size-mismatch"])
def test_siv1_rejects_large_corrupt_file_without_reading_it(tmp_path, head):
    p = tmp_path / "big.siv1"
    with open(p, "wb") as f:
        f.write(head)
        f.truncate(64 << 20)  # sparse 64 MB tail
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            read_siv1(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20), f"{peak} bytes allocated to reject the file"
