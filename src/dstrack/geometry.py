"""Temporal person similarities: IoU, the three OKS variants, and the raw
track/detection edge-feature tensor.

`iou_grid` and `oks_grid` score every pair of two lists at once by
broadcasting.  The tests keep scalar one-pair references to compare them
against.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import EngineConfig
from .datatypes import Box, Pose


def _corners(boxes: Sequence[Box]) -> np.ndarray:
    return np.array([[b.x_min, b.y_min, b.x_max, b.y_max] for b in boxes],
                    dtype=np.float64).reshape(len(boxes), 4)


def iou_grid(boxes_a: Sequence[Box], boxes_b: Sequence[Box]) -> np.ndarray:
    """A x B matrix of the intersection over union of boxes_a[i] and
    boxes_b[j]; boxes that only touch overlap by 0."""
    a = _corners(boxes_a)[:, None, :]
    b = _corners(boxes_b)[None, :, :]
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    overlap = (ix > 0.0) & (iy > 0.0)
    inter = np.where(overlap, ix * iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlap)


def oks_grid(poses_a: Sequence[Pose], poses_b: Sequence[Pose], areas_a,
             kappas: np.ndarray) -> np.ndarray:
    """A x B x 3 array of three keypoint-similarity readings of each pose
    pair (poses_a[i], poses_b[j]).

    Per keypoint the kernel is exp(-d^2 / (2 s_i k^2)), with s_i = areas_a[i]
    the area of pose i's scale box.  Component 0 averages over jointly
    visible keypoints (0 if there are none), component 1 over poses_a[i]'s
    visible set, component 2 over poses_b[j]'s; in the one-sided variants a
    keypoint whose partner is missing contributes 0.  Each average is the
    sum over all keypoints of the jointly visible kernel values, so it can
    differ from a sum over the selected keypoints in the last bits when some
    keypoints are hidden.
    """
    n_a, n_b = len(poses_a), len(poses_b)
    if n_a == 0 or n_b == 0:
        return np.zeros((n_a, n_b, 3))
    k = poses_a[0].keypoint_count
    if any(p.keypoint_count != k for p in list(poses_a) + list(poses_b)):
        raise ValueError("poses must share the same keypoint count")
    kappas = np.asarray(kappas, dtype=np.float64)
    if kappas.shape != (k,):
        raise ValueError("kappa count must match keypoint count")
    coords_a = np.array([p.coords for p in poses_a])[:, None]          # A x 1 x K x 2
    coords_b = np.array([p.coords for p in poses_b])[None]             # 1 x B x K x 2
    vis_a = np.array([p.visibility_mask() for p in poses_a])[:, None]  # A x 1 x K
    vis_b = np.array([p.visibility_mask() for p in poses_b])[None]     # 1 x B x K
    both = vis_a & vis_b
    sq = (coords_a - coords_b) ** 2
    d2 = sq[..., 0] + sq[..., 1]
    scale = 2.0 * np.asarray(areas_a, dtype=np.float64)[:, None] * kappas**2
    g = np.exp(-d2 / scale[:, None, :])
    total = (g * both).sum(axis=-1, keepdims=True)
    counts = np.empty((n_a, n_b, 3))
    counts[..., 0] = both.sum(axis=-1)
    counts[..., 1] = vis_a.sum(axis=-1)
    counts[..., 2] = vis_b.sum(axis=-1)
    return np.divide(total, counts, out=np.zeros(counts.shape), where=counts > 0)


def edge_features(tracks, dets, cfg: EngineConfig) -> np.ndarray:
    """T x D x 4 tensor of [iou, oks_shared, oks_over_track, oks_over_det]
    between every track's last pose and box and every detection."""
    track_boxes = [t.last_box for t in tracks]
    out = np.empty((len(tracks), len(dets), 4))
    out[..., 0] = iou_grid(track_boxes, [d.box for d in dets])
    out[..., 1:] = oks_grid([t.last_pose for t in tracks], [d.pose for d in dets],
                            [b.area for b in track_boxes], cfg.oks_kappas)
    return out
