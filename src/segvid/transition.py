"""Stage-transition training data: corrupt an LR clip (``stage1.low_res``)
along the flow path in latent space, partially denoise it with the LR model,
and pair the decoded result with the original HR clip. Stage II trained on
such pairs sees LR-stage artifacts instead of meeting them cold at inference.

Corruption happens in latent space ((1-sigma)*z + sigma*eps) rather than as
raw pixel noise so the LR denoiser sees exactly its training-time noise
model. sigma=0 skips denoising entirely and yields the plain codec
projection of the LR clip.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import metrics, stage1
from .codec import decode, encode
from .grid import Rng, SUB_TRANSITION, write_siv1
from .mixer import StageModel


@dataclass(frozen=True)
class TransitionConfig:
    sigma: float = 0.10
    steps: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0,1], got {self.sigma}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def synthesize_lr(v_lr: np.ndarray, s1: StageModel, cfg: TransitionConfig, key: int = 0):
    """The corrupted-and-redenoised version of a clean LR video.

    `key` separates corruption sub-streams when synthesizing many pairs from
    one config seed. Deterministic per (cfg.seed, key).
    """
    z0 = encode(v_lr, s1.codec_cfg)
    if cfg.sigma == 0.0:
        return decode(z0, s1.codec_cfg)
    eps = Rng(cfg.seed).split(SUB_TRANSITION, key).normal(z0.shape)
    z_noisy = (1.0 - cfg.sigma) * z0 + cfg.sigma * eps
    z_tilde = stage1.denoise_from(s1, z_noisy, v_lr[0], cfg.sigma, cfg.steps)
    return decode(z_tilde, s1.codec_cfg)


def diagnostics(v_lr_tilde: np.ndarray, v_lr_clean: np.ndarray):
    """(SNR dB, PSNR dB, SSIM) of the synthesized LR video against the clean one."""
    snr = metrics.snr_db(v_lr_clean, v_lr_tilde)
    ps = metrics.psnr(v_lr_tilde, v_lr_clean)
    ss = metrics.video_ssim(v_lr_tilde, v_lr_clean)
    return snr, ps, ss


def sigma_sweep(v_lr: np.ndarray, s1: StageModel, sigmas, steps: int = 1, seed: int = 0):
    """Diagnostics rows (sigma, steps, snr, psnr, ssim) of an LR video, fixed seed/model."""
    rows = []
    for sg in sigmas:
        cfg = TransitionConfig(sigma=float(sg), steps=steps, seed=seed)
        snr, ps, ss = diagnostics(synthesize_lr(v_lr, s1, cfg), v_lr)
        rows.append((float(sg), steps, snr, ps, ss))
    return rows


def synthesize_corpus(down_pairs, s1: StageModel, cfg: TransitionConfig):
    """Transition pairs (synthesized LR video, HR video) from plain (LR, HR)
    pairs, one corruption sub-stream per pair."""
    return [(synthesize_lr(v_lr, s1, cfg, key=i), v_hr)
            for i, (v_lr, v_hr) in enumerate(down_pairs)]


def save_pairs(out_dir: str, pairs, cfg: TransitionConfig) -> None:
    """SIV1 tensors plus a JSON-lines manifest recording sigma/steps/seed."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "pairs.jsonl"), "w") as f:
        for i, (v_tilde, v_hr) in enumerate(pairs):
            hr_name = f"pair_{i:04d}_hr.siv1"
            lr_name = f"pair_{i:04d}_lr_tilde.siv1"
            write_siv1(os.path.join(out_dir, hr_name), v_hr)
            write_siv1(os.path.join(out_dir, lr_name), v_tilde)
            row = {"hr": hr_name, "lr_tilde": lr_name, "sigma": cfg.sigma,
                   "steps": cfg.steps, "seed": cfg.seed}
            f.write(json.dumps(row) + "\n")
