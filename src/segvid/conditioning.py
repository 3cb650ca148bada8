"""Stage II input construction.

Two pieces: the hybrid pixel reference (upsampled low-resolution video with
frame 1 swapped for the true input image), and its encoding into latent
conditioning together with the anchor latent of the input image. The
denoiser (mixer) installs the anchor as block 1 and concatenates the
reference to the noisy latents along channels, one window at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import CodecConfig, encode
from .grid import as_f32, resize_spatial


@dataclass(frozen=True)
class StageTwoInput:
    z_ref: np.ndarray   # (t, h, w, c) hybrid reference latents
    z_x: np.ndarray     # (h, w, c) anchor latent of the input image

    def __post_init__(self):
        if self.z_ref.ndim != 4 or self.z_x.ndim != 3:
            raise ValueError("z_ref must be (t,h,w,c) and z_x (h,w,c)")
        if self.z_ref.shape[1:] != self.z_x.shape:
            raise ValueError(f"block shape mismatch {self.z_ref.shape[1:]} vs {self.z_x.shape}")


def build_hybrid_reference(v_lr: np.ndarray, x: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-upsample the LR video and replace frame 1 with the input image."""
    v = as_f32(v_lr, "v_lr")
    xf = as_f32(x, "x")
    if v.ndim != 4 or xf.ndim != 3:
        raise ValueError("v_lr must be (T,H,W,C), x a single (H,W,C) frame")
    up = resize_spatial(v, "up_nearest", factor)
    if up.shape[1:] != xf.shape:
        raise ValueError(f"upsampled frames {up.shape[1:]} do not match input frame {xf.shape}")
    out = up.copy()
    out[0] = xf
    return out


def build_stage2_input(v_ref: np.ndarray, x: np.ndarray, cfg: CodecConfig) -> StageTwoInput:
    """Encode the hybrid reference and the input image into latent conditioning."""
    z_ref = encode(v_ref, cfg)
    z_x = encode(as_f32(x, "x")[None], cfg)[0]
    return StageTwoInput(z_ref=z_ref, z_x=z_x)
