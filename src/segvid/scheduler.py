"""Segment scheduling for windowed denoising.

Blocks are 1-based. Block 1 is the anchor (the encoded input image) and is
never generated. The remaining indices {2..t} are partitioned into S
consecutive segments of at most M blocks each. Segment s additionally sees
the anchor plus up to N already-finalized neighbor blocks immediately before
its start, so every denoise step runs on a window of at most 1 + N + M
blocks regardless of t.

    S   = ceil((t - 1) / M)
    a_s = 2 + (s - 1) * M
    I_s = (a_s .. min(a_s + M - 1, t))
    N_1 = () ;  N_s = (max(2, a_s - N) .. a_s - 1)   for s > 1
    W_s = (1,) + N_s + I_s

A window is therefore a read-only conditioning prefix, the anchor and the
neighbors, followed by its noisy tail I_s: the last len(I_s) blocks of W_s,
which are the consecutive global blocks a_s .. a_s + len(I_s) - 1. The
denoiser and the window loss take a window as (W_s, len(I_s)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class EmptySequenceError(ValueError):
    """Raised when t < 2: there is nothing to generate beyond the anchor."""


@dataclass(frozen=True)
class SegmentPlan:
    t: int
    M: int
    N: int
    S: int
    a: tuple[int, ...]                  # segment starts a_s
    I: tuple[tuple[int, ...], ...]      # noisy indices per segment
    Nbr: tuple[tuple[int, ...], ...]    # neighbor (read-only) indices per segment
    W: tuple[tuple[int, ...], ...]      # full window per segment: (1,) + Nbr + I, ascending


def plan(t: int, M: int, N: int) -> SegmentPlan:
    """Build the segment plan for t blocks with segment size M and N neighbors."""
    if not (isinstance(M, int) and isinstance(N, int) and isinstance(t, int)):
        raise TypeError("t, M, N must be ints")
    if M < 1 or N < 0:
        raise ValueError(f"need M >= 1 and N >= 0, got M={M} N={N}")
    if t < 2:
        raise EmptySequenceError(f"t={t}: no blocks to generate beyond the anchor")
    return _build_plan(t, M, N)


# Plans are immutable and training asks for the same few (t, M, N) on every
# step. The cache sits behind plan's checks: a cached plan() would answer 5.0
# from the entry for 5 instead of raising TypeError.
@lru_cache(maxsize=256, typed=True)
def _build_plan(t: int, M: int, N: int) -> SegmentPlan:
    S = -((t - 1) // -M)  # ceil((t-1)/M)
    a, I, Nbr, W = [], [], [], []
    for s in range(1, S + 1):
        a_s = 2 + (s - 1) * M
        i_s = tuple(range(a_s, min(a_s + M - 1, t) + 1))
        n_s = () if s == 1 else tuple(range(max(2, a_s - N), a_s))
        a.append(a_s)
        I.append(i_s)
        Nbr.append(n_s)
        W.append((1,) + n_s + i_s)
    return SegmentPlan(t=t, M=M, N=N, S=S, a=tuple(a), I=tuple(I), Nbr=tuple(Nbr), W=tuple(W))


def token_budget(p: SegmentPlan, h: int, w: int) -> list[int]:
    """Per-segment token counts |W_s| * h * w."""
    if h < 1 or w < 1:
        raise ValueError(f"need positive spatial extents, got h={h} w={w}")
    return [len(w_s) * h * w for w_s in p.W]


def window_gather(latents: np.ndarray, p: SegmentPlan, s: int):
    """Pull segment s's window out of (t, h, w, c) latents.

    Returns (window, idx) where window[k] is a copy of latents[idx[k] - 1]
    and idx is the ascending tuple of global block indices W_s. The window's
    last len(I_s) blocks are the noisy tail, global blocks a_s onward.
    """
    if latents.shape[0] != p.t:
        raise ValueError(f"latents have {latents.shape[0]} blocks, plan expects {p.t}")
    if not 1 <= s <= p.S:
        raise ValueError(f"segment {s} out of range [1, {p.S}]")
    idx = p.W[s - 1]
    window = latents[np.asarray(idx) - 1]
    return window, idx


def to_json(p: SegmentPlan) -> str:
    doc = {
        "t": p.t, "M": p.M, "N": p.N, "S": p.S,
        "segments": [
            {"s": s + 1, "start": p.a[s], "noisy": list(p.I[s]),
             "neighbors": list(p.Nbr[s]), "window": list(p.W[s])}
            for s in range(p.S)
        ],
    }
    return json.dumps(doc, indent=2)
