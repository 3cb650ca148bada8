"""Quality and structure metrics for the benchmark harness.

PSNR uses signal range 1.0. SSIM uses a uniform 8x8 sliding window with
C1=1e-4, C2=9e-4, biased moment estimates, averaged over window positions
and channels. pixel_diff is the mean absolute difference in 0-255 units.
All metric arithmetic runs in float64; these feed reports, not the
bit-exact pipeline.

Structure helpers: per-segment frame coverage, the boundary-vs-nonboundary
dissimilarity gap across segment seams, per-segment PSNR series, and an
ordinary least-squares trend fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codec import CodecConfig, frames_for_block
from .scheduler import SegmentPlan

SSIM_WIN = 8
SSIM_C1 = 1e-4
SSIM_C2 = 9e-4


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(1/MSE) with range 1.0; +inf for identical inputs."""
    if a.shape != b.shape:
        raise ValueError(f"extent mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0.0:
        return float("inf")
    return -10.0 * np.log10(mse)


def pixel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute difference scaled to 0-255 units."""
    if a.shape != b.shape:
        raise ValueError(f"extent mismatch {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a.astype(np.float64) - b.astype(np.float64)))) * 255.0


def _ssim_plane(a: np.ndarray, b: np.ndarray) -> float:
    win = SSIM_WIN
    if a.shape[0] < win or a.shape[1] < win:
        raise ValueError(f"frame {a.shape} smaller than the {win}x{win} SSIM window")
    wa = sliding_window_view(a, (win, win))
    wb = sliding_window_view(b, (win, win))
    mu_a = wa.mean(axis=(-2, -1))
    mu_b = wb.mean(axis=(-2, -1))
    var_a = (wa * wa).mean(axis=(-2, -1)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(-2, -1)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(-2, -1)) - mu_a * mu_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float((num / den).mean())


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM over window positions, then channels. Accepts (H,W) or (H,W,C)."""
    if a.shape != b.shape:
        raise ValueError(f"extent mismatch {a.shape} vs {b.shape}")
    af = a.astype(np.float64)
    bf = b.astype(np.float64)
    if af.ndim == 2:
        return _ssim_plane(af, bf)
    if af.ndim != 3:
        raise ValueError(f"expected a frame, got shape {a.shape}")
    return float(np.mean([_ssim_plane(af[..., k], bf[..., k]) for k in range(af.shape[2])]))


def video_ssim(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"extent mismatch {a.shape} vs {b.shape}")
    return float(np.mean([ssim(a[i], b[i]) for i in range(a.shape[0])]))


def snr_db(clean: np.ndarray, approx: np.ndarray) -> float:
    """10*log10(sum(v^2)/sum((v-vt)^2)); +inf for identical, error for zero signal."""
    if clean.shape != approx.shape:
        raise ValueError(f"extent mismatch {clean.shape} vs {approx.shape}")
    v = clean.astype(np.float64)
    sig = float((v * v).sum())
    if sig == 0.0:
        raise ValueError("zero-signal SNR is undefined")
    err = float(((v - approx.astype(np.float64)) ** 2).sum())
    if err == 0.0:
        return float("inf")
    return 10.0 * np.log10(sig / err)


def segment_frames(p: SegmentPlan, s: int, f_t: int) -> tuple[int, int]:
    """Inclusive 1-based frame range covered by segment s's blocks."""
    if not 1 <= s <= p.S:
        raise ValueError(f"segment {s} out of range [1, {p.S}]")
    blocks = p.I[s - 1]
    return frames_for_block(blocks[0], f_t)[0], frames_for_block(blocks[-1], f_t)[1]


def boundary_pairs(p: SegmentPlan, f_t: int) -> list[tuple[int, int]]:
    """The S-1 consecutive frame pairs that straddle segment seams."""
    out = []
    for s in range(1, p.S):
        last = segment_frames(p, s, f_t)[1]
        nxt = segment_frames(p, s + 1, f_t)[0]
        out.append((last, nxt))
    return out


@dataclass(frozen=True)
class BoundaryReport:
    metric: str
    boundary_mean: float
    nonboundary_mean: float
    gap_pct: float
    pairs: tuple[tuple[int, int], ...]


_FRAME_DISSIM = {
    "pixel_diff": pixel_diff,
    "one_minus_ssim": lambda a, b: 1.0 - ssim(a, b),
}


def boundary_gap(video: np.ndarray, p: SegmentPlan, cfg: CodecConfig, metric: str) -> BoundaryReport:
    """Mean frame-pair dissimilarity at segment seams vs everywhere else."""
    if metric not in _FRAME_DISSIM:
        raise ValueError(f"metric must be one of {sorted(_FRAME_DISSIM)}, got {metric!r}")
    T = video.shape[0]
    expect = 1 + (p.t - 1) * cfg.f_t
    if T != expect:
        raise ValueError(f"video has {T} frames, plan covers {expect}")
    fn = _FRAME_DISSIM[metric]
    bpairs = boundary_pairs(p, cfg.f_t)
    bset = set(bpairs)
    b_vals, nb_vals = [], []
    for tau in range(1, T):
        d = fn(video[tau - 1], video[tau])
        (b_vals if (tau, tau + 1) in bset else nb_vals).append(d)
    if len(b_vals) != len(bpairs):
        raise ValueError("boundary pairs fell outside the frame range")
    b_mean = float(np.mean(b_vals)) if b_vals else float("nan")
    nb_mean = float(np.mean(nb_vals))
    if nb_mean == 0.0:
        raise ValueError("nonboundary mean is zero; gap percentage undefined")
    gap = (b_mean - nb_mean) / nb_mean * 100.0
    return BoundaryReport(metric=metric, boundary_mean=b_mean, nonboundary_mean=nb_mean,
                          gap_pct=gap, pairs=tuple(bpairs))


@dataclass(frozen=True)
class TrendReport:
    slope: float
    intercept: float
    r2: float
    points: tuple[tuple[float, float], ...]


def trend_fit(points) -> TrendReport:
    """Ordinary least squares y = slope*x + intercept.

    r2 is the standard coefficient of determination, defined as 1 for
    constant y (a flat series is a perfect flat fit).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    x = np.array([q[0] for q in pts])
    y = np.array([q[1] for q in pts])
    vx = x - x.mean()
    sxx = float(vx @ vx)
    if sxx == 0.0:
        raise ValueError("degenerate x: all abscissae equal")
    slope = float(vx @ (y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        resid = y - (slope * x + intercept)
        r2 = 1.0 - float((resid * resid).sum()) / ss_tot
    return TrendReport(slope=slope, intercept=intercept, r2=r2, points=tuple(pts))


def segment_quality_series(generated: np.ndarray, truth: np.ndarray,
                           p: SegmentPlan, cfg: CodecConfig) -> list[float]:
    """PSNR against truth over each segment's frame coverage."""
    if generated.shape != truth.shape:
        raise ValueError(f"extent mismatch {generated.shape} vs {truth.shape}")
    out = []
    for s in range(1, p.S + 1):
        lo, hi = segment_frames(p, s, cfg.f_t)
        out.append(psnr(generated[lo - 1:hi], truth[lo - 1:hi]))
    return out
