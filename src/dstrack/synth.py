"""Synthetic labeled sequences with controlled appearance clusters.

Four scenario families exercise the failure modes the tracker has to
handle: identities crossing paths, temporary occlusion, injected duplicate
detections, and a crowded block of overlapping boxes.  Appearance vectors
are drawn per identity from well-separated clusters (orthogonal directions
scaled by `separation`), so appearance carries exactly as much signal as
the caller asks for; separation 0 makes appearance pure noise.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .config import EngineConfig
from .datatypes import Box, Detection, Pose
from .sequence_io import SequenceFile, SequenceFrame

SCENARIOS = ("crossing", "occlusion", "duplicates", "crowd")

BOX_W = 40.0
BOX_H = 80.0
APPEARANCE_NOISE = 0.3  # std of the per-detection appearance noise

_DEFAULT_FRAMES = {"crossing": 41, "occlusion": 40, "duplicates": 40, "crowd": 30}


def _identity_centers(rng: np.random.Generator, n_ident: int, d: int,
                      separation: float) -> np.ndarray:
    """Cluster centers: orthonormal directions scaled by separation (random
    unit vectors when there are more identities than dimensions)."""
    if n_ident <= d:
        q, _ = np.linalg.qr(rng.standard_normal((d, n_ident)))
        dirs = q.T
    else:
        dirs = rng.standard_normal((n_ident, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return separation * dirs


def _pose_template(rng: np.random.Generator, k: int) -> np.ndarray:
    """Keypoint layout in box-fraction coordinates, fixed per identity."""
    xs = 0.5 + 0.22 * np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    ys = (np.arange(k) + 0.5) / k
    tpl = np.column_stack([xs, ys])
    tpl += 0.03 * rng.standard_normal((k, 2))
    return tpl


class _Scene:
    """Accumulates frames for one synthetic sequence."""

    def __init__(self, scenario: str, seed: int, cfg: EngineConfig,
                 n_ident: int, separation: float, crops: bool = False):
        self.rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.centers = _identity_centers(self.rng, n_ident, cfg.d, separation)
        self.templates = [_pose_template(self.rng, cfg.keypoint_count)
                          for _ in range(n_ident)]
        self.crop_bases = None
        if crops:
            # a fixed random image per identity stands in for how a person looks
            self.crop_bases = self.rng.uniform(
                0.0, 1.0, size=(n_ident, 3, cfg.crop_height, cfg.crop_width))
        self.frames: List[SequenceFrame] = []
        self.scenario = scenario
        self.seed = seed

    def detection(self, ident: int, cx: float, cy: float,
                  box_jitter: Tuple[float, float, float] = (1.0, 0.0, 0.0)) -> Detection:
        scale, dx, dy = box_jitter
        hw, hh = scale * BOX_W / 2, scale * BOX_H / 2
        box = Box(cx - hw + dx, cy - hh + dy, cx + hw + dx, cy + hh + dy)
        tpl = self.templates[ident]
        coords = np.column_stack([
            box.x_min + tpl[:, 0] * (box.x_max - box.x_min),
            box.y_min + tpl[:, 1] * (box.y_max - box.y_min),
        ]) + 0.4 * self.rng.standard_normal(tpl.shape)
        k = self.cfg.keypoint_count
        pose = Pose(coords=coords, conf=self.rng.uniform(0.6, 1.0, size=k),
                    visible=np.ones(k, dtype=bool))
        if self.crop_bases is not None:
            crop = (self.crop_bases[ident]
                    + 0.1 * APPEARANCE_NOISE * self.rng.standard_normal(
                        self.crop_bases[ident].shape))
            return Detection(box=box, pose=pose, crop=crop)
        appearance = self.centers[ident] + APPEARANCE_NOISE * self.rng.standard_normal(self.cfg.d)
        return Detection(box=box, pose=pose, appearance=appearance)

    def add_frame(self, index: int, people: List[Tuple[int, float, float]],
                  image_size: Tuple[int, int], duplicates: Tuple[int, ...] = (),
                  extra: Optional[List[Tuple[Detection, int]]] = None):
        dets = [self.detection(ident, cx, cy) for ident, cx, cy in people]
        idents: List[Optional[int]] = [ident for ident, _, _ in people]
        if extra:
            for det, ident in extra:
                dets.append(det)
                idents.append(ident)
        self.frames.append(SequenceFrame(
            index=index, image_size=image_size, detections=dets,
            identities=idents, duplicates=duplicates))

    def build(self, fps: float = 30.0) -> SequenceFile:
        return SequenceFile(
            sequence_id=f"synth-{self.scenario}-{self.seed}",
            fps=fps, frames=self.frames)


def synth_sequence(scenario: str, n_frames: Optional[int] = None, seed: int = 0,
                   cfg: Optional[EngineConfig] = None, separation: float = 6.0,
                   gap: int = 10, duplicate_prob: float = 0.5,
                   crops: bool = False) -> SequenceFile:
    """Build a labeled scenario sequence.

    Detections normally carry appearance vectors; with crops=True they
    carry image crops instead, routing the tracker and the trainer through
    the convolutional backbone.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    cfg = cfg or EngineConfig()
    if n_frames is None:
        n_frames = _DEFAULT_FRAMES[scenario]
    builder = {
        "crossing": _crossing,
        "occlusion": _occlusion,
        "duplicates": _duplicates,
        "crowd": _crowd,
    }[scenario]
    extra = {}
    if scenario == "occlusion":
        extra["gap"] = gap
    if scenario == "duplicates":
        extra["duplicate_prob"] = duplicate_prob
    return builder(n_frames, seed, cfg, separation, crops=crops, **extra)


def _crossing(n_frames, seed, cfg, separation, crops=False) -> SequenceFile:
    """Two identities swap x positions; their paths meet mid-sequence with
    heavy box overlap, but a slight constant y offset keeps the true
    continuation geometrically favored."""
    sc = _Scene("crossing", seed, cfg, 2, separation, crops)
    size = (256, 512)
    cy = 128.0
    for t in range(n_frames):
        u = t / max(n_frames - 1, 1)
        xa = 100.0 + 200.0 * u
        xb = 300.0 - 200.0 * u
        sc.add_frame(t, [(0, xa, cy - 5.0), (1, xb, cy + 5.0)], size)
    return sc.build()


def _occlusion(n_frames, seed, cfg, separation, crops=False, gap=10) -> SequenceFile:
    """Identity 1 vanishes for `gap` frames while continuing to move, so it
    reappears displaced well clear of its stale box."""
    sc = _Scene("occlusion", seed, cfg, 2, separation, crops)
    size = (256, 512)
    start = n_frames // 3
    for t in range(n_frames):
        people = [(0, 80.0 + 1.0 * t, 60.0)]
        if not (start <= t < start + gap):
            people.append((1, 60.0 + 6.0 * t, 190.0))
        sc.add_frame(t, people, size)
    return sc.build()


def _duplicates(n_frames, seed, cfg, separation, crops=False, duplicate_prob=0.5) -> SequenceFile:
    """Steady two-person motion with random frames carrying one jittered
    duplicate of an existing detection.  Frame 0 never carries one: with no
    tracks established yet, a duplicate is indistinguishable from a person."""
    sc = _Scene("duplicates", seed, cfg, 2, separation, crops)
    size = (256, 512)
    for t in range(n_frames):
        people = [(0, 80.0 + 3.0 * t, 64.0), (1, 420.0 - 3.0 * t, 192.0)]
        dup_flags: Tuple[int, ...] = ()
        extra = None
        if t > 0 and sc.rng.uniform() < duplicate_prob:
            src = int(sc.rng.integers(len(people)))
            ident, cx, cy = people[src]
            jitter = (1.0 + sc.rng.uniform(-0.05, 0.05),
                      sc.rng.uniform(-3.0, 3.0), sc.rng.uniform(-3.0, 3.0))
            extra = [(sc.detection(ident, cx, cy, box_jitter=jitter), ident)]
            dup_flags = (len(people),)
        sc.add_frame(t, people, size, duplicates=dup_flags, extra=extra)
    return sc.build()


def _crowd(n_frames, seed, cfg, separation, crops=False) -> SequenceFile:
    """Eight identities in two rows with spacing below the box width, so
    horizontal neighbors always overlap; everyone oscillates."""
    sc = _Scene("crowd", seed, cfg, 8, separation, crops)
    size = (288, 512)
    for t in range(n_frames):
        people = []
        for ident in range(8):
            row, col = divmod(ident, 4)
            base_x = 120.0 + 32.0 * col
            phase = ident * np.pi / 4
            cx = base_x + 12.0 * np.sin(2 * np.pi * t / n_frames + phase)
            cy = 90.0 + 110.0 * row + 3.0 * np.cos(2 * np.pi * t / n_frames + phase)
            people.append((ident, cx, cy))
        sc.add_frame(t, people, size)
    return sc.build()
