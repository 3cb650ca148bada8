"""Stage II input construction.

Stage II is conditioned on the hybrid reference: the LR video (the HR video
pooled by f_s) upsampled back to HR, with frame 1 swapped for the true input
image. ``encode_reference`` computes its latents, and the anchor latent of
the input image, without building the HR hybrid video or its group frames:
block 1 is the encoded input image, and blocks 2..t pool the f_t-frame
temporal means at LR through a stride-0 view that repeats each LR pixel
f_s×f_s times (averaging commutes with nearest upsampling bit for bit).
``grid.cell_means`` adds the copies one by one as the pooling of the HR
frames does (skipping the pooling would change bits), so this equals
encoding the HR hybrid video (the tests check it against that construction).

The denoiser (mixer) installs the anchor as block 1 and concatenates the
reference to the noisy latents along channels, one window at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import CodecConfig, channel_lift, encode, group_means, num_blocks
from .grid import FLOAT, as_f32, cell_means


@dataclass(frozen=True)
class StageTwoInput:
    z_ref: np.ndarray   # (t, h, w, c) hybrid reference latents
    z_x: np.ndarray     # (h, w, c) anchor latent of the input image

    def __post_init__(self):
        if self.z_ref.ndim != 4 or self.z_x.ndim != 3:
            raise ValueError("z_ref must be (t,h,w,c) and z_x (h,w,c)")
        if self.z_ref.shape[1:] != self.z_x.shape:
            raise ValueError(f"block shape mismatch {self.z_ref.shape[1:]} vs {self.z_x.shape}")


def encode_reference(v_lr: np.ndarray, x: np.ndarray, cfg: CodecConfig) -> StageTwoInput:
    """Latents of the hybrid reference of a (T, H/f_s, W/f_s, 3) LR video and
    a (H, W, 3) input image, and the anchor latent of the image."""
    v = as_f32(v_lr, "v_lr")
    xf = as_f32(x, "x")
    if v.ndim != 4 or xf.ndim != 3:
        raise ValueError("v_lr must be (T,H,W,C), x a single (H,W,C) frame")
    f = cfg.f_s
    if (v.shape[1] * f, v.shape[2] * f, v.shape[3]) != xf.shape:
        raise ValueError(f"LR frames {v.shape[1:]} are not input frame {xf.shape} "
                         f"pooled by f_s={f}")
    t = num_blocks(v.shape[0], cfg.f_t)
    z_x = encode(xf[None], cfg)[0]
    z_ref = np.empty((t, *z_x.shape), FLOAT)
    z_ref[0] = z_x
    if t > 1:
        means = group_means(v, cfg.f_t)
        n, h, w, _ = means.shape
        taps = np.broadcast_to(means[:, :, None, :, None], (n, h, f, w, f, 3))
        z_ref[1:] = cell_means(taps) @ channel_lift(cfg).T
    return StageTwoInput(z_ref=z_ref, z_x=z_x)
