"""Metric tests: closed forms, independent SSIM/OLS references, segment
coverage, and the boundary-gap report."""

import numpy as np
import pytest

import oracles
from segvid import metrics
from segvid.codec import CodecConfig
from segvid.scheduler import plan


def test_psnr_closed_forms():
    a = np.zeros((4, 16, 16, 3))
    assert metrics.psnr(a, a) == float("inf")
    assert abs(metrics.psnr(a, a + 0.1) - 20.0) < 1e-9
    assert abs(metrics.psnr(a, a + 0.5) - 10.0 * np.log10(4.0)) < 1e-9
    with pytest.raises(ValueError):
        metrics.psnr(a, a[:2])


def test_pixel_diff_closed_forms():
    a = np.zeros((16, 16, 3))
    assert metrics.pixel_diff(a, a) == 0.0
    assert abs(metrics.pixel_diff(a, a + 0.1) - 25.5) < 1e-9
    with pytest.raises(ValueError):
        metrics.pixel_diff(a, a[:8])


def test_ssim_matches_direct_reference():
    rng = np.random.default_rng(0)
    a = rng.random((16, 16))
    b = np.clip(a + 0.1 * rng.standard_normal((16, 16)), 0, 1)
    assert abs(metrics.ssim(a, b) - oracles.ssim_ref(a, b)) < 1e-6
    # channels average the per-plane scores
    a3 = rng.random((16, 16, 3))
    b3 = np.clip(a3 + 0.05 * rng.standard_normal(a3.shape), 0, 1)
    want = np.mean([oracles.ssim_ref(a3[..., k], b3[..., k]) for k in range(3)])
    assert abs(metrics.ssim(a3, b3) - want) < 1e-6


def test_ssim_identity_symmetry_and_errors():
    rng = np.random.default_rng(1)
    a = rng.random((12, 12, 3))
    b = rng.random((12, 12, 3))
    assert abs(metrics.ssim(a, a) - 1.0) < 1e-12
    assert abs(metrics.ssim(a, b) - metrics.ssim(b, a)) < 1e-12
    assert metrics.ssim(a, b) < 1.0
    with pytest.raises(ValueError):
        metrics.ssim(a[:7, :7], b[:7, :7])  # below the 8x8 window
    with pytest.raises(ValueError):
        metrics.ssim(a, b[:8])
    with pytest.raises(ValueError):
        metrics.ssim(a[None], b[None])  # video, not frame


def test_video_ssim_is_frame_mean():
    rng = np.random.default_rng(2)
    a = rng.random((3, 16, 16, 3))
    b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, 1)
    want = np.mean([metrics.ssim(a[i], b[i]) for i in range(3)])
    assert abs(metrics.video_ssim(a, b) - want) < 1e-12
    with pytest.raises(ValueError):
        metrics.video_ssim(a, b[:2])


def test_snr_closed_forms():
    v = np.ones((8, 8))
    assert metrics.snr_db(v, v.copy()) == float("inf")
    assert abs(metrics.snr_db(v, np.zeros_like(v)) - 0.0) < 1e-9
    assert abs(metrics.snr_db(v, v - 0.1) - 20.0) < 1e-9
    with pytest.raises(ValueError):
        metrics.snr_db(np.zeros((4, 4)), np.ones((4, 4)))
    with pytest.raises(ValueError):
        metrics.snr_db(v, v[:4])


def test_segment_frames_coverage():
    p = plan(21, 3, 1)
    assert metrics.segment_frames(p, 1, 4) == (2, 13)
    assert metrics.segment_frames(p, 7, 4) == (74, 81)
    # agrees with per-block frame ranges
    for s in range(1, p.S + 1):
        lo, hi = metrics.segment_frames(p, s, 4)
        assert lo == oracles.block_frames(p.I[s - 1][0], 4)[0]
        assert hi == oracles.block_frames(p.I[s - 1][-1], 4)[1]
    with pytest.raises(ValueError):
        metrics.segment_frames(p, 0, 4)
    with pytest.raises(ValueError):
        metrics.segment_frames(p, 8, 4)


def test_boundary_pairs_match_bruteforce():
    for t, M, N in [(21, 3, 1), (11, 3, 1), (10, 4, 2), (5, 2, 0)]:
        p = plan(t, M, N)
        got = metrics.boundary_pairs(p, 4)
        assert got == oracles.boundary_pairs_ref(t, M, N, 4)
        T = 1 + (t - 1) * 4
        assert all(b == a + 1 and 1 <= a and b <= T for a, b in got)
    assert metrics.boundary_pairs(plan(21, 3, 1), 4)[0] == (13, 14)
    assert len(metrics.boundary_pairs(plan(21, 3, 1), 4)) == 6


def test_boundary_gap_report():
    p = plan(5, 2, 0)          # one seam, frames (9, 10)
    cfg = CodecConfig()
    tau = np.arange(1, 18, dtype=np.float64)
    vals = 0.2 + 0.001 * tau + np.where(tau >= 10, 0.2, 0.0)
    video = np.broadcast_to(vals[:, None, None, None], (17, 16, 16, 3)).copy()
    rep = metrics.boundary_gap(video, p, cfg, "pixel_diff")
    assert rep.pairs == ((9, 10),)
    assert abs(rep.boundary_mean - 0.201 * 255) < 1e-6
    assert abs(rep.nonboundary_mean - 0.001 * 255) < 1e-6
    assert rep.gap_pct > 1000.0
    assert rep.metric == "pixel_diff"
    rep2 = metrics.boundary_gap(video, p, cfg, "one_minus_ssim")
    assert np.isfinite(rep2.gap_pct) and rep2.boundary_mean > rep2.nonboundary_mean


def test_boundary_gap_errors():
    p = plan(5, 2, 0)
    cfg = CodecConfig()
    video = np.random.default_rng(0).random((17, 16, 16, 3))
    with pytest.raises(ValueError):
        metrics.boundary_gap(video, p, cfg, "l2")
    with pytest.raises(ValueError):
        metrics.boundary_gap(video[:13], p, cfg, "pixel_diff")
    with pytest.raises(ValueError):
        metrics.boundary_gap(np.full((17, 16, 16, 3), 0.5), p, cfg, "pixel_diff")


def test_trend_fit_exact_line_and_reference():
    pts = [(x, 2.0 * x + 1.0) for x in range(5)]
    rep = metrics.trend_fit(pts)
    assert abs(rep.slope - 2.0) < 1e-12
    assert abs(rep.intercept - 1.0) < 1e-12
    assert abs(rep.r2 - 1.0) < 1e-12
    assert rep.points == tuple((float(x), float(y)) for x, y in pts)

    rng = np.random.default_rng(3)
    noisy = [(float(x), 3.0 * x - 2.0 + float(e))
             for x, e in zip(range(10), rng.standard_normal(10))]
    rep = metrics.trend_fit(noisy)
    slope, intercept, r2 = oracles.ols_ref(noisy)
    assert abs(rep.slope - slope) < 1e-9
    assert abs(rep.intercept - intercept) < 1e-9
    assert abs(rep.r2 - r2) < 1e-9


def test_trend_fit_degenerate_cases():
    assert metrics.trend_fit([(0, 5.0), (1, 5.0), (2, 5.0)]).r2 == 1.0
    assert metrics.trend_fit([(0, 5.0), (1, 5.0)]).slope == 0.0
    with pytest.raises(ValueError):
        metrics.trend_fit([(0, 1.0)])
    with pytest.raises(ValueError):
        metrics.trend_fit([(2.0, 1.0), (2.0, 3.0)])


def test_segment_quality_series():
    p = plan(5, 2, 0)
    cfg = CodecConfig()
    truth = np.random.default_rng(4).random((17, 16, 16, 3))
    assert metrics.segment_quality_series(truth, truth, p, cfg) == [float("inf")] * p.S
    series = metrics.segment_quality_series(truth + 0.1, truth, p, cfg)
    assert len(series) == p.S
    whole = metrics.psnr(truth + 0.1, truth)
    assert all(abs(v - whole) < 1e-9 for v in series)
    with pytest.raises(ValueError):
        metrics.segment_quality_series(truth[:13], truth, p, cfg)
