"""Engine configuration and validation."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple

# COCO per-keypoint falloff constants (nose, eyes, ears, shoulders, elbows,
# wrists, hips, knees, ankles), used directly when K = 17.
COCO_KAPPAS = (
    0.026, 0.025, 0.025, 0.035, 0.035,
    0.079, 0.079, 0.072, 0.072, 0.062, 0.062,
    0.107, 0.107, 0.087, 0.087, 0.089, 0.089,
)

# 15-joint skeleton (nose, head bottom, head top, then shoulders..ankles).
# The two head points reuse the COCO ear constant, the rest map one-to-one.
HEAD15_KAPPAS = (
    0.026, 0.035, 0.035,
    0.079, 0.079, 0.072, 0.072, 0.062, 0.062,
    0.107, 0.107, 0.087, 0.087, 0.089, 0.089,
)

UNIFORM_KAPPA = 0.07


def default_kappas(keypoint_count: int) -> Tuple[float, ...]:
    """Per-keypoint OKS constants for a skeleton of the given size."""
    if keypoint_count == 17:
        return COCO_KAPPAS
    if keypoint_count == 15:
        return HEAD15_KAPPAS
    return (UNIFORM_KAPPA,) * keypoint_count


@dataclass(frozen=True)
class EngineConfig:
    """All tunables of the association engine in one place."""

    d: int = 256                      # embedding width
    d_e: int = 32                     # edge path width
    keypoint_count: int = 15
    n_encoder_stages: int = 2
    n_decoder_stages: int = 2
    alpha: float = 0.3                # appearance/pose blend weight
    tau_dup: float = 0.4              # duplicate suppression threshold
    tau_age: int = 60                 # frames a track may go unmatched
    ffn_hidden: int = 1024            # hidden width of the d-wide stage FFNs
    oks_kappas: Tuple[float, ...] = ()  # empty means "derive from keypoint_count"
    crop_height: int = 64
    crop_width: int = 32

    def __post_init__(self):
        validate_config(self)


_INT_FIELDS = ("d", "d_e", "keypoint_count", "n_encoder_stages", "n_decoder_stages",
               "ffn_hidden", "tau_age", "crop_height", "crop_width")
_REAL_FIELDS = ("alpha", "tau_dup")


def validate_config(cfg: EngineConfig) -> EngineConfig:
    """Return cfg if every invariant holds; raise ValueError on the first
    violation.  Every EngineConfig runs this when built, which also turns
    oks_kappas into a tuple of floats, or into default_kappas(keypoint_count)
    when it is empty."""
    for name in _INT_FIELDS:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name in _REAL_FIELDS:
        value = getattr(cfg, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not isinstance(cfg.oks_kappas, (list, tuple)):
        raise ValueError(f"oks_kappas must be a list of numbers, got {cfg.oks_kappas!r}")
    for i, k in enumerate(cfg.oks_kappas):
        if isinstance(k, bool) or not isinstance(k, numbers.Real):
            raise ValueError(f"oks_kappas[{i}] must be a number, got {k!r}")
    object.__setattr__(cfg, "oks_kappas", tuple(float(k) for k in cfg.oks_kappas)
                       or default_kappas(cfg.keypoint_count))
    if not (0.0 <= cfg.alpha <= 1.0):
        raise ValueError("alpha out of range")
    if cfg.d <= 0:
        raise ValueError("embedding dim must be positive")
    if cfg.d_e <= 0:
        raise ValueError("edge width d_e must be positive")
    if cfg.keypoint_count <= 0:
        raise ValueError("keypoint count must be positive")
    if cfg.n_encoder_stages <= 0:
        raise ValueError("encoder stage count must be positive")
    if cfg.n_decoder_stages <= 0:
        raise ValueError("decoder stage count must be positive")
    if cfg.ffn_hidden <= 0:
        raise ValueError("ffn hidden dim must be positive")
    if not (0.0 <= cfg.tau_dup <= 1.0):
        raise ValueError("tau_dup out of range")
    if cfg.tau_age < 0:
        raise ValueError("tau_age must be non-negative")
    if len(cfg.oks_kappas) != cfg.keypoint_count:
        raise ValueError("kappa count must match keypoint count")
    for i, k in enumerate(cfg.oks_kappas):
        if not math.isfinite(k):
            raise ValueError(f"oks_kappas[{i}] must be finite, got {k}")
    if any(k <= 0 for k in cfg.oks_kappas):
        raise ValueError("kappas must be strictly positive")
    if cfg.crop_height <= 0 or cfg.crop_width <= 0:
        raise ValueError("crop dims must be positive")
    if cfg.crop_height % 8 or cfg.crop_width % 8:
        # three 2x2 pooling stages in the toy backbone
        raise ValueError("crop dims must be divisible by 8")
    return cfg
