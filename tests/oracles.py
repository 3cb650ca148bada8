"""Independent re-derivations used as test oracles.

Each is written the slow, obvious way on purpose (python loops, brute
force, closed forms) and uses nothing from the package, so a bug in the
implementation cannot hide in its own oracle. The whole pipeline's plain
form, the bit reference for everything the package computes, is
`tests/reference.py`; these oracles check what it does not reach: the
segment plan, the codec's fidelity, the metrics, the synthetic motion, the
streaming timing model, finite-difference gradients, and the order in which
`grid.plane_means` adds its planes (`cell_means`), over layouts and sizes no
pipeline config makes.
"""

import numpy as np


def plan_bruteforce(t, M, N):
    """Walk indices 2..t, cut greedy segments of M, attach neighbors/windows."""
    segs = []
    i = 2
    while i <= t:
        I = list(range(i, min(i + M - 1, t) + 1))
        segs.append(I)
        i = I[-1] + 1
    out = []
    for k, I in enumerate(segs):
        a = I[0]
        nbr = [] if k == 0 else list(range(max(2, a - N), a))
        win = sorted({1, *nbr, *I})
        out.append({"start": a, "I": I, "Nbr": nbr, "W": win})
    return out


def block_frames(i, f_t):
    """1-based inclusive frame range of block i (block 1 is the lone anchor)."""
    if i == 1:
        return (1, 1)
    return ((i - 2) * f_t + 2, (i - 1) * f_t + 1)


def boundary_pairs_ref(t, M, N, f_t):
    """Frame pairs straddling segment seams, from the brute-force plan."""
    segs = plan_bruteforce(t, M, N)
    pairs = []
    for a, b in zip(segs, segs[1:]):
        pairs.append((block_frames(a["I"][-1], f_t)[1], block_frames(b["I"][0], f_t)[0]))
    return pairs


def pool_broadcast(video, f_s, f_t):
    """What decode(encode(v)) must produce: every f_s x f_s x frame-group cell
    replaced by its mean (frame 1 is its own group)."""
    v = np.asarray(video, dtype=np.float64)
    T, H, W, C = v.shape
    groups = [[0]]
    f = 1
    while f < T:
        groups.append(list(range(f, f + f_t)))
        f += f_t
    out = np.empty_like(v)
    for fr in groups:
        for y in range(0, H, f_s):
            for x in range(0, W, f_s):
                for ch in range(C):
                    vals = [v[i, yy, xx, ch] for i in fr
                            for yy in range(y, y + f_s) for xx in range(x, x + f_s)]
                    m = sum(vals) / len(vals)
                    for i in fr:
                        out[i, y:y + f_s, x:x + f_s, ch] = m
    return out


def fd_grad(loss_fn, mats, step=1e-3):
    """Central finite differences over a dict of float64 matrices, mutated in
    place entry by entry; loss_fn() re-evaluates the loss at the current
    parameters."""
    out = {}
    for name, m in mats.items():
        g = np.zeros_like(m)
        it = np.nditer(m, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            keep = m[ij]
            m[ij] = keep + step
            lp = loss_fn()
            m[ij] = keep - step
            lm = loss_fn()
            m[ij] = keep
            g[ij] = (lp - lm) / (2.0 * step)
        out[name] = g
    return out


def ssim_ref(a, b, win=8, c1=1e-4, c2=9e-4):
    """Direct windowed SSIM on one plane, biased moments, loop per position."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    h, w = a.shape
    vals = []
    for y in range(h - win + 1):
        for x in range(w - win + 1):
            pa = a[y:y + win, x:x + win].ravel()
            pb = b[y:y + win, x:x + win].ravel()
            ma, mb = pa.mean(), pb.mean()
            va = (pa * pa).mean() - ma * ma
            vb = (pb * pb).mean() - mb * mb
            cov = (pa * pb).mean() - ma * mb
            vals.append(((2 * ma * mb + c1) * (2 * cov + c2))
                        / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def ols_ref(points):
    """Least squares through lstsq; returns (slope, intercept, r2)."""
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid * resid).sum()) / ss_tot
    return float(coef[0]), float(coef[1]), r2


def canon(d, n):
    """Displacement on a ring of size n mapped into (-n/2, n/2]."""
    d = int(d) % n
    return d if d <= n // 2 else d - n


def best_shift(a, b):
    """Circular shift (dy, dx) that best aligns frame a onto frame b, by
    exhaustive zero-mean correlation over the channel-averaged planes."""
    fa = np.asarray(a, dtype=np.float64).mean(axis=2)
    fb = np.asarray(b, dtype=np.float64).mean(axis=2)
    fa -= fa.mean()
    fb -= fb.mean()
    h, w = fa.shape
    best, arg = -np.inf, (0, 0)
    for dy in range(h):
        for dx in range(w):
            c = float((np.roll(fa, (dy, dx), axis=(0, 1)) * fb).sum())
            if c > best:
                best, arg = c, (dy, dx)
    return canon(arg[0], h), canon(arg[1], w)


def timing_ref(denoise, decode):
    """Hand simulation of the two-worker pipeline with an unbounded queue.

    Returns (first_output, full_output, sequential_total, completion order);
    ties resolve denoise-first, matching the package convention.
    """
    events = []
    tp = 0.0
    ready = []
    for s, d in enumerate(denoise, 1):
        tp += d
        events.append((tp, 0, "segment_denoised", s))
        ready.append(tp)
    tc = 0.0
    first = None
    for s, d in enumerate(decode, 1):
        tc = max(tc, ready[s - 1]) + d
        events.append((tc, 1, "segment_decoded", s))
        if first is None:
            first = tc
    events.sort(key=lambda e: (e[0], e[1]))
    order = [(k, s) for _, _, k, s in events]
    return first, tc, float(sum(denoise) + sum(decode)), order


def cell_means(taps):
    """(n, h, f, w, g, C) float32 tap view to its (n, h, w, C) cell means:
    the f·g taps of a cell added one by one in row-major (i, j) order into a
    float32 sum that starts at +0.0, then divided by f·g in float32. The
    retired pooling loop, the bit reference for ``grid.plane_means`` and its
    callers; any strides, stride-0 views included."""
    f, g = taps.shape[2], taps.shape[4]
    out = taps[:, :, 0, :, 0] + np.float32(0)  # as numpy's sum, so a cell of -0.0 gives +0.0
    for i in range(f):
        for j in range(g):
            if i or j:
                out += taps[:, :, i, :, j]
    out /= np.float32(f * g)
    return out


def stack_means(planes):
    """``cell_means`` of a (k, n, h, w, C) stack of planes, added in order:
    plane j is tap (0, j) of (n, h, 1, w, k, C) one-row cells."""
    return cell_means(planes.transpose(1, 2, 3, 0, 4)[:, :, None])
