"""Pose-conditioned appearance embeddings.

A small convolutional backbone whose normalization layers are de-normalized
by pose heatmaps: per stage, batch statistics strip the feature maps to zero
mean and unit variance, then heatmap-derived gamma/beta maps re-modulate them
spatially.  This keeps the embedding focused on the person whose keypoints
are highlighted, which matters when crops overlap.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .config import EngineConfig
from .datatypes import Pose

SIGMA_GUARD = 1e-5
STAGE_CHANNELS = (8, 16, 32)
HEATMAP_KERNEL_WIDTH = 10.0  # Gaussian std in px of the heatmaps rendered from poses


def render_heatmaps(pose: Pose, height: int, width: int, kernel_width: float) -> np.ndarray:
    """One unit-peak Gaussian channel per keypoint, zeros where invisible.

    Coordinates are expected in the crop frame: x along width, y along height.
    """
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    two_s2 = 2.0 * kernel_width * kernel_width
    x0 = pose.coords[:, 0, None, None]
    y0 = pose.coords[:, 1, None, None]
    out = np.exp(-((xs - x0) ** 2 + (ys - y0) ** 2) / two_s2)
    out[~pose.visibility_mask()] = 0.0
    return out


def init_spapde_params(store: nn.ParamStore, prefix: str, in_channels: int,
                       feat_channels: int, rng: np.random.Generator):
    """Shared trunk conv plus the two modulation convs for one stage."""
    hidden = feat_channels
    store.create(f"{prefix}.shared.w", (hidden, in_channels, 3, 3), rng)
    store.create(f"{prefix}.shared.b", (hidden,), rng, init="zeros")
    store.create(f"{prefix}.gamma.w", (feat_channels, hidden, 3, 3), rng)
    store.create(f"{prefix}.gamma.b", (feat_channels,), rng, init="zeros")
    store.create(f"{prefix}.beta.w", (feat_channels, hidden, 3, 3), rng)
    store.create(f"{prefix}.beta.b", (feat_channels,), rng, init="zeros")


def spapde_modulation(heatmaps, store: nn.ParamStore, prefix: str):
    """gamma/beta modulation maps from pose heatmaps: a shared ReLU conv
    branch feeding two parallel output convs."""
    h = nn.as_tensor(heatmaps)
    a = nn.relu(nn.conv3x3(h, store[f"{prefix}.shared.w"], store[f"{prefix}.shared.b"]))
    gamma = nn.conv3x3(a, store[f"{prefix}.gamma.w"], store[f"{prefix}.gamma.b"])
    beta = nn.conv3x3(a, store[f"{prefix}.beta.w"], store[f"{prefix}.beta.b"])
    return gamma, beta


def spapde_forward(f, gamma, beta) -> nn.Tensor:
    """Normalize per channel over every person and pixel in the batch, then
    apply the spatial affine modulation: gamma * (f - mu)/sigma + beta."""
    f = nn.as_tensor(f)
    if f.data.ndim != 4:
        raise ValueError("spapde_forward expects (N, C, H, W) features")
    mu = nn.reduce_mean(f, axis=(0, 2, 3), keepdims=True)
    diff = nn.add(f, nn.mul(mu, -1.0))
    var = nn.reduce_mean(nn.mul(diff, diff), axis=(0, 2, 3), keepdims=True)
    sigma = nn.sqrt(var)
    # additive guard only where sigma underflows; constant w.r.t. the tape
    bump = SIGMA_GUARD * (sigma.data < SIGMA_GUARD)
    inv = nn.reciprocal(nn.add(sigma, bump))
    return nn.add(nn.mul(gamma, nn.mul(diff, inv)), beta)


def init_backbone_params(store: nn.ParamStore, cfg: EngineConfig, rng: np.random.Generator):
    """All toy-backbone parameters, namespaced under backbone.*"""
    in_ch = 3
    for s, out_ch in enumerate(STAGE_CHANNELS):
        store.create(f"backbone.stage{s}.conv.w", (out_ch, in_ch, 3, 3), rng)
        store.create(f"backbone.stage{s}.conv.b", (out_ch,), rng, init="zeros")
        init_spapde_params(
            store, f"backbone.stage{s}.spapde", cfg.keypoint_count, out_ch, rng
        )
        in_ch = out_ch
    store.create("backbone.head.w", (cfg.d, STAGE_CHANNELS[-1]), rng)
    store.create("backbone.head.b", (cfg.d,), rng, init="zeros")


def appearance_embed_batch(crops, heatmaps, store: nn.ParamStore) -> nn.Tensor:
    """Embed a batch of person crops, pose-modulated by their heatmaps.

    crops: (N, 3, H, W); heatmaps: (N, K, H, W).  Normalization statistics
    are computed from this batch alone, so persons in one call share
    statistics (callers batch per frame).  The shapes are not checked here:
    tracker.check_detections holds every detection to the config first.
    """
    hm = np.asarray(heatmaps, dtype=np.float64)
    x = nn.Tensor(np.asarray(crops, dtype=np.float64))
    for s in range(len(STAGE_CHANNELS)):
        if s:  # the heatmaps follow x down to the previous stage's pooled size
            hm = nn.avg_pool2(hm)
        x = nn.conv3x3(x, store[f"backbone.stage{s}.conv.w"], store[f"backbone.stage{s}.conv.b"])
        gamma, beta = spapde_modulation(hm, store, f"backbone.stage{s}.spapde")
        x = nn.avg_pool2(nn.relu(spapde_forward(x, gamma, beta)))
    pooled = nn.reduce_mean(x, axis=(2, 3))
    return nn.linear(pooled, store["backbone.head.w"], store["backbone.head.b"])
