"""Seeded inputs for the benchmark workloads.

Every workload is a list of labeled sequences plus the engine config it
runs at.  The benchmark writes the sequences to files with `save_sequence`
before anything is timed; the measured process only ever sees those files.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

import numpy as np

from dstrack.config import EngineConfig
from dstrack.sequence_io import SequenceFile, SequenceFrame
from dstrack.synth import synth_sequence

# the engine defaults (d=256, ffn_hidden=1024) and the acceptance suite's
# small config, the two sizes ROADMAP asks the benchmark to cover
DEFAULT = EngineConfig()
SMALL = EngineConfig(d=16, d_e=16, keypoint_count=8, oks_kappas=(0.08,) * 8,
                     ffn_hidden=32)

DUO_SCENARIOS = ("crossing", "occlusion", "duplicates")

# Two crowd scenes sit side by side: every box of the crowd scenario lies
# within x in [88, 248], so a 512 px shift leaves ~350 px between the scenes
# and no pair across them has any IoU or OKS.  side_by_side checks the gap.
CROWD_SHIFT_X = 512.0
CROWD_MIN_GAP = 256.0
CROWD_IDENTITIES = 8

TRAIN_ITERS = 200        # iterations per training pass, as in train_toy's default

# the smoke test's size: each sequence cut to its first frames, which keeps
# the scenario's motion per frame (a shorter synth sequence would not)
TINY_FRAMES = 6
TINY_TRAIN_ITERS = 3


@dataclass
class Workload:
    name: str
    kind: str                      # "track" or "train"
    cfg: EngineConfig
    crops: bool                    # appearance from the conv backbone
    sequences: List[SequenceFile]
    train_iters: int = 0


def _sub_seeds(seed: int, n: int) -> List[int]:
    """n distinct synth seeds derived from the workload seed (any integer)."""
    state = np.random.SeedSequence(seed % 2**64).generate_state(n)
    return [int(s) for s in state % (2**31)]


def _x_extent(seq: SequenceFile):
    """(min, max) x over every box and keypoint of a sequence."""
    xs = [x for fr in seq.frames for d in fr.detections
          for x in (d.box.x_min, d.box.x_max, *d.pose.coords[:, 0])]
    return min(xs), max(xs)


def side_by_side(left: SequenceFile, right: SequenceFile, dx: float,
                 ident_offset: int, min_gap: float = 0.0) -> SequenceFile:
    """One sequence holding both scenes: `right` moved by dx in x, its
    identity labels moved past `left`'s so the two label sets are disjoint.
    Raises unless at least min_gap px separate the two scenes in x."""
    if len(left.frames) != len(right.frames):
        raise ValueError("scenes must have the same frame count")
    if any(i is not None and i >= ident_offset for fr in left.frames for i in fr.identities):
        raise ValueError("left scene has identities at or past ident_offset")
    gap = _x_extent(right)[0] + dx - _x_extent(left)[1]
    if gap < min_gap:
        raise ValueError(f"scenes only {gap:.0f} px apart, need {min_gap:.0f}")
    frames = []
    for fl, fr in zip(left.frames, right.frames):
        moved = [dataclasses.replace(d, box=d.box.shifted(dx, 0.0),
                                     pose=d.pose.shifted(dx, 0.0))
                 for d in fr.detections]
        idents = list(fl.identities) + [None if i is None else i + ident_offset
                                        for i in fr.identities]
        n_left = len(fl.detections)
        frames.append(SequenceFrame(
            index=fl.index,
            image_size=(max(fl.image_size[0], fr.image_size[0]),
                        fl.image_size[1] + int(dx)),
            detections=list(fl.detections) + moved,
            identities=idents,
            duplicates=tuple(fl.duplicates) + tuple(n_left + i for i in fr.duplicates)))
    return SequenceFile(sequence_id=f"{left.sequence_id}+{right.sequence_id}",
                        fps=left.fps, frames=frames)


def _crowd16(seed: int) -> Workload:
    a, b = (synth_sequence("crowd", seed=s, cfg=DEFAULT) for s in _sub_seeds(seed, 2))
    return Workload("crowd16", "track", DEFAULT, False,
                    [side_by_side(a, b, CROWD_SHIFT_X, CROWD_IDENTITIES, CROWD_MIN_GAP)])


def _duo(seed: int, crops: bool) -> Workload:
    # crops cost ~6x more per frame, so one seed per scenario is enough there
    per_scenario = 1 if crops else 2
    seeds = _sub_seeds(seed, per_scenario * len(DUO_SCENARIOS))
    seqs = [synth_sequence(sc, seed=seeds[k * per_scenario + r], cfg=DEFAULT, crops=crops)
            for k, sc in enumerate(DUO_SCENARIOS) for r in range(per_scenario)]
    return Workload("duo_crops" if crops else "duo", "track", DEFAULT, crops, seqs)


def _train_small(seed: int) -> Workload:
    seqs = [synth_sequence("crowd", seed=s, cfg=SMALL) for s in _sub_seeds(seed, 2)]
    return Workload("train_small", "train", SMALL, False, seqs, train_iters=TRAIN_ITERS)


BUILDERS = {
    "crowd16": _crowd16,
    "duo": lambda seed: _duo(seed, crops=False),
    "duo_crops": lambda seed: _duo(seed, crops=True),
    "train_small": _train_small,
}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    wl = BUILDERS[name](seed)
    if tiny:
        wl.sequences = [SequenceFile(s.sequence_id, s.fps, s.frames[:TINY_FRAMES])
                        for s in wl.sequences]
        wl.train_iters = min(wl.train_iters, TINY_TRAIN_ITERS)
    return wl
