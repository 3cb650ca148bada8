"""RNG, spatial pooling (codec.pool over grid.cell_means), and SIV1 container
tests."""

import io
import os
import stat
import struct
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from segvid import grid
from segvid.codec import CodecConfig, pool
from segvid.grid import (FLOAT, SUB_INIT_NOISE, Rng, as_f32, init_noise_blocks, noise_filler,
                         read_siv1, require_finite, write_siv1)

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


EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)


@settings(deadline=None, max_examples=60)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
       key=st.lists(st.integers(0, 2**64 - 1), max_size=3),
       t=st.sampled_from((1, 2, 3, 161)), block=st.sampled_from(((2, 2, 4), (8, 8, 4))),
       data=st.data())
def test_noise_filler_chunkings_equal_init_noise_blocks(seed, key, t, block, data):
    # any chunking of blocks 2..t into consecutive fills draws the bits of
    # init_noise_blocks, which draws them all at once from the one stream
    # rng.split(SUB_INIT_NOISE)
    rng = Rng(seed).split(*key)
    want = init_noise_blocks(rng, t, *block)
    assert want[1:].tobytes() == rng.split(SUB_INIT_NOISE).normal((t - 1,) + block).tobytes()
    fill = noise_filler(rng, t)
    got = np.full((t,) + block, np.nan, FLOAT)
    first = 2
    while first <= t:
        count = data.draw(st.integers(1, t + 1 - first), label="count")
        fill(got[first - 1:first - 1 + count], first)
        first += count
    assert got[1:].tobytes() == want[1:].tobytes()


def test_noise_filler_rejects_blocks_outside_its_range():
    # blocks come consecutively from block 2: a gap, a repeat, or a block
    # past t fails without drawing, and the filler goes on where it was
    blk = (2, 2, 3)
    fill = noise_filler(Rng(1), 6)
    out = np.full((6,) + blk, np.nan, FLOAT)

    def rejects(first, count, reason):
        with pytest.raises(ValueError, match=reason):
            fill(np.empty((count,) + blk, FLOAT), first)

    rejects(3, 1, "blocks 3..3 requested; the next block is 2 and the last is 6")  # gap
    rejects(1, 1, "next block is 2")  # the anchor
    rejects(0, 2, "next block is 2")
    rejects(2, 6, "blocks 2..7 requested.* the last is 6")  # past t
    fill(out[1:3], 2)
    rejects(2, 1, "next block is 4")  # repeats
    rejects(3, 2, "next block is 4")
    rejects(5, 3, "blocks 5..7")  # a gap and past t
    fill(out[3:6], 4)
    fill(out[6:], 7)  # an empty run at the next block draws nothing
    rejects(7, 1, "blocks 7..7")
    assert out[1:].tobytes() == init_noise_blocks(Rng(1), 6, *blk)[1:].tobytes()


def test_noise_filler_threads_draw_on_their_own_generators():
    # each filler draws on its own generator: two fillers filling at once on
    # two threads, switching every few bytecodes, each give the bits they
    # give alone on one thread
    t, block, runs = 161, (2, 2, 4), 30
    rngs = [Rng(seed).split(9) for seed in range(2)]
    want = [init_noise_blocks(r, t, *block)[1:].tobytes() for r in rngs]
    got = [[] for _ in rngs]
    start = threading.Barrier(len(rngs))

    def work(i):
        fills = [noise_filler(rngs[i], t) for _ in range(runs)]
        start.wait(timeout=30)
        for fill in fills:
            out = np.empty((t,) + block, FLOAT)
            for first in range(2, t + 1, 3):
                fill(out[first - 1:first + 2], first)
            got[i].append(out[1:].tobytes())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(rngs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i, runs_i in enumerate(got):
        assert len(runs_i) == runs and all(r == want[i] for r in runs_i), f"thread {i}"


def test_rng_seeds_its_generator_on_first_draw(monkeypatch):
    made = []
    real = np.random.SeedSequence

    def counted(*args, **kwargs):
        made.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    g = Rng(5)
    child = g.split(1).split(2, 3)
    assert made == []  # split-only streams seed no SeedSequence
    init_noise_blocks(g.split(7), 9, 2, 2, 3)
    assert made == [{"entropy": 5, "spawn_key": (7, SUB_INIT_NOISE)}]  # one for all blocks
    made.clear()
    a = child.normal((4,))
    assert made == [{"entropy": 5, "spawn_key": (1, 2, 3)}]
    b = child.normal((4,))
    assert len(made) == 1 and not np.array_equal(a, b)
    monkeypatch.undo()
    npt.assert_array_equal(np.concatenate([a, b]), Rng(5).split(1, 2, 3).normal((8,)))


def test_resize_constant_invariance():
    v = np.full((3, 8, 8, 3), 0.5, FLOAT)
    npt.assert_array_equal(pool(v, CodecConfig(f_s=4)), np.full((3, 2, 2, 3), 0.5, FLOAT))


def test_resize_block_mean():
    v = np.array([[0.0, 1.0], [1.0, 0.0]], FLOAT).reshape(1, 2, 2, 1)
    out = pool(v, CodecConfig(f_s=2))
    npt.assert_array_equal(out, np.full((1, 1, 1, 1), 0.5, FLOAT))


@settings(deadline=None, max_examples=200)
@given(c=st.sampled_from((2, 3, 4)), f=st.integers(1, 8), t=st.integers(1, 3),
       h=st.integers(1, 3), w=st.integers(1, 3), mag=st.floats(1e-3, 1e4),
       neg_zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_down_avg_equals_numpy_mean(c, f, t, h, w, mag, neg_zero, seed):
    # the ordered tap sums give the bits of numpy's float32 mean over the two
    # tap axes for C-contiguous input with C >= 2, including -0.0 taps
    rng = np.random.default_rng(seed)
    v = (mag * rng.standard_normal((t, h * f, w * f, c))).astype(FLOAT)
    if neg_zero:
        v[rng.random(v.shape) < 0.5] = -0.0
        v[:, :f, :f] = -0.0  # one cell of -0.0 only
    want = v.reshape(t, h, f, w, f, c).mean(axis=(2, 4), dtype=np.float32)
    got = pool(v, CodecConfig(f_s=f))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_resize_factor_one_is_copy():
    v = np.zeros((2, 4, 4, 3), FLOAT)
    out = pool(v, CodecConfig(f_s=1))
    assert np.array_equal(out, v) and out is not v


def test_resize_errors():
    v = np.zeros((1, 6, 6, 3), FLOAT)
    with pytest.raises(ValueError, match="6x6 not divisible by f_s=4"):
        pool(v, CodecConfig(f_s=4))
    with pytest.raises(ValueError):
        pool(v, CodecConfig(f_s=0))
    with pytest.raises(ValueError, match="expected"):
        pool(np.zeros((4, 4, 3), FLOAT), CodecConfig(f_s=2))


def test_siv1_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((3, 4, 5, 2)).astype(FLOAT)
    path = tmp_path / "t.siv1"
    write_siv1(path, arr)
    back = read_siv1(path)
    assert back.tobytes() == arr.tobytes()
    assert back.dtype == FLOAT and back.shape == arr.shape


@settings(deadline=None, max_examples=80)
@given(shape=st.tuples(*[st.integers(1, 5)] * 4),
       before=st.sampled_from(("missing", "shorter", "equal", "longer")),
       spare=st.integers(1, 64), fill=st.integers(1, 255),
       umask=st.sampled_from((0o000, 0o002, 0o022, 0o077)))
def test_siv1_write_in_place_equals_truncating_write(tmp_path_factory, shape, before,
                                                     spare, fill, umask):
    # writing over a missing, shorter, equal-size or longer file gives the
    # bytes of a truncating write, and a new file its mode; no open truncates
    d = tmp_path_factory.mktemp("inplace")
    p, ref = d / "p.siv1", d / "ref.siv1"
    arr = np.random.default_rng(sum(shape)).standard_normal(shape).astype(FLOAT)
    size = 24 + 4 * arr.size
    if before != "missing":
        old = {"shorter": size - min(spare, size - 1), "equal": size, "longer": size + spare}
        p.write_bytes(bytes([fill]) * old[before])
    mask = os.umask(umask)
    try:
        with mock.patch.object(os, "open", wraps=os.open) as spy:
            write_siv1(p, arr)
        oracles.write_siv1_truncating(ref, arr)
    finally:
        os.umask(mask)
    assert spy.call_count == 1
    assert not spy.call_args.args[1] & os.O_TRUNC
    assert p.read_bytes() == ref.read_bytes()
    if before == "missing":
        assert stat.S_IMODE(p.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode)


def test_siv1_writes_to_non_regular_targets(tmp_path):
    # /dev/null cannot be truncated and a pipe cannot be rewound either:
    # both take the header, then the payload
    arr = np.arange(12, dtype=FLOAT).reshape(1, 2, 3, 2)
    write_siv1(os.devnull, arr)
    oracles.write_siv1_truncating(tmp_path / "ref.siv1", arr)
    r, w = os.pipe()
    try:
        write_siv1(f"/proc/self/fd/{w}", arr)
        got = os.read(r, 1 << 16)
    finally:
        os.close(r)
        os.close(w)
    assert got == (tmp_path / "ref.siv1").read_bytes()


class _TruncateFails(io.BufferedWriter):
    def truncate(self, pos=None):
        raise OSError("simulated failure after the payload")


def test_siv1_interrupted_rewrite_reads_back_as_bad_magic(tmp_path, monkeypatch):
    # a rewrite of a same-shape file that stops after the payload must not
    # read back as a valid header over old and new data, and must close
    # its descriptor
    p = tmp_path / "v.siv1"
    write_siv1(p, np.zeros((2, 3, 3, 2), FLOAT))
    fds = len(os.listdir("/proc/self/fd"))
    # the kept traceback holds the writer's frame, so only an explicit close
    # frees the descriptor before the count
    with monkeypatch.context() as m, pytest.raises(OSError, match="simulated failure") as failed:
        m.setattr(grid, "open", lambda fd, mode: _TruncateFails(io.FileIO(fd, "w")),
                  raising=False)
        write_siv1(p, np.ones((2, 3, 3, 2), FLOAT))
    assert len(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ValueError) as e:
        read_siv1(p)
    msg = str(e.value)
    assert msg.startswith(f"{p}: ") and "bad magic" in msg and "\n" not in msg


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
