"""Stage II input construction.

Stage II is conditioned on the hybrid reference: the LR video (the HR video
pooled by f_s) upsampled back to HR, with frame 1 swapped for the true input
image. ``encode_reference`` computes its latents without building the HR
hybrid video, its group frames, or the LR video itself. It takes the anchor
latent of the input image, which is block 1, and the LR video's f_t-frame
block means, one per block 2..t. At inference those means come straight
from the stage-1 latents (``codec.decode_group_means``), so stage 1 hands
over latents, not an LR video; training and the ground-truth runs pass
``codec.group_means`` of their LR videos. Blocks 2..t pool the means through
a stride-0 view that repeats each LR pixel f_s×f_s times (averaging commutes
with nearest upsampling bit for bit). ``grid.cell_means`` adds the copies
one by one as the pooling of the HR frames does (skipping the pooling would
change bits), so this equals encoding the HR hybrid video (the tests check
it against that construction).

The denoiser's input puts the reference beside the noisy latents along
channels, with the anchor as block 1: stage 2 packs each block's reference
into the request's [z | ref] buffer when its segment reaches it
(``stage2.infer_csg``), and the full-window path concatenates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import CodecConfig, lift
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


def encode_reference(means: np.ndarray, z_x: np.ndarray, cfg: CodecConfig) -> StageTwoInput:
    """Latents of the hybrid reference from the (t-1, h, w, 3) block means of
    an LR video and the (h, w, c) anchor latent z_x of the input image. The
    LR frames and the anchor's latent grid are both the HR frame pooled by
    f_s, so they share h x w."""
    m = as_f32(means, "means")
    zx = as_f32(z_x, "z_x")
    if m.ndim != 4 or zx.ndim != 3 or zx.shape[2] != cfg.c:
        raise ValueError(f"means must be (n,h,w,3) and z_x (h,w,{cfg.c}), "
                         f"got {m.shape} and {zx.shape}")
    n, h, w, _ = m.shape
    if (h, w, m.shape[3]) != (*zx.shape[:2], 3):
        raise ValueError(f"LR frames {m.shape[1:]} do not match anchor latent {zx.shape}: "
                         f"both are the HR frame pooled by f_s={cfg.f_s}")
    z_ref = np.empty((1 + n, *zx.shape), FLOAT)
    z_ref[0] = zx
    if n:
        f = cfg.f_s
        taps = np.broadcast_to(m[:, :, None, :, None], (n, h, f, w, f, 3))
        z_ref[1:] = lift(cell_means(taps), cfg)
    return StageTwoInput(z_ref=z_ref, z_x=zx)
