"""Temporal person similarities: IoU, the three OKS variants, and the raw
track/detection edge-feature tensor."""
from __future__ import annotations

import numpy as np

from .config import EngineConfig, kappa_array
from .datatypes import Box, Pose


def iou(a: Box, b: Box) -> float:
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def oks_triplet(p: Pose, q: Pose, scale_box: Box, kappas: np.ndarray) -> np.ndarray:
    """Three keypoint-similarity readings of the same pose pair.

    Per keypoint the kernel is exp(-d^2 / (2 s k^2)) with s the scale-box
    area.  Component 0 averages over jointly visible keypoints (0 if there
    are none), component 1 over p's visible set, component 2 over q's; in
    the one-sided variants a keypoint whose partner is missing contributes 0.
    """
    if p.keypoint_count != q.keypoint_count:
        raise ValueError("poses must share the same keypoint count")
    kappas = np.asarray(kappas, dtype=np.float64)
    if kappas.shape != (p.keypoint_count,):
        raise ValueError("kappa count must match keypoint count")
    vp = p.visibility_mask()
    vq = q.visibility_mask()
    both = vp & vq
    d2 = ((p.coords - q.coords) ** 2).sum(axis=1)
    s = scale_box.area
    g = np.exp(-d2 / (2.0 * s * kappas**2))

    def one_sided(mask):
        if not mask.any():
            return 0.0
        return float((g * both)[mask].sum() / mask.sum())

    shared = float(g[both].mean()) if both.any() else 0.0
    return np.array([shared, one_sided(vp), one_sided(vq)])


def edge_features(tracks, dets, cfg: EngineConfig) -> np.ndarray:
    """T x D x 4 tensor of [iou, oks_shared, oks_over_track, oks_over_det]
    between every track's last pose and box and every detection."""
    kappas = kappa_array(cfg)
    out = np.zeros((len(tracks), len(dets), 4))
    for j, track in enumerate(tracks):
        pose, box = track.last_pose, track.last_box
        for i, det in enumerate(dets):
            out[j, i, 0] = iou(box, det.box)
            out[j, i, 1:] = oks_triplet(pose, det.pose, box, kappas)
    return out
