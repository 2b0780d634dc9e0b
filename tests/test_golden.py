"""Numerics regression: the heuristic tracker's results on the four synth
scenarios, a short toy-training loss curve, and the pose-conditioned
backbone (its embeddings, and a loss curve of training on crops) must match
recorded golden files byte for byte.

Regenerate the golden files (only when a change is meant to alter tracking
decisions, training numerics or the backbone's numbers) with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import os

import numpy as np

from dstrack import nn
from dstrack.config import EngineConfig
from dstrack.datatypes import Pose
from dstrack.heuristics import build_heuristic_model
from dstrack.sequence_io import result_to_dict
from dstrack.spapde import (
    HEATMAP_KERNEL_WIDTH,
    appearance_embed_batch,
    init_backbone_params,
    render_heatmaps,
)
from dstrack.synth import SCENARIOS, synth_sequence
from dstrack.tracker import run_sequence
from dstrack.training import labeled_frames, train_toy
from small_config import SMALL

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_tracks.jsonl")
GOLDEN_LOSS = os.path.join(DATA, "golden_loss.json")
GOLDEN_BACKBONE = os.path.join(DATA, "golden_backbone.json")

LOSS_ITERS = 20
CROP_LOSS_ITERS = 5


def golden_lines():
    cfg = EngineConfig()
    model = build_heuristic_model(cfg)
    lines = []
    for scenario in SCENARIOS:
        frames = synth_sequence(scenario, seed=0, cfg=cfg).detection_frames()
        for idx, res, _ in run_sequence(frames, model):
            row = dict(result_to_dict(idx, res), scenario=scenario)
            lines.append(json.dumps(row, sort_keys=True) + "\n")
    return "".join(lines)


def golden_loss_text():
    """train_toy's loss curve on a crowd and a duplicates sequence (seed 0);
    floats are written with repr, so equal text means equal bits."""
    seqs = [labeled_frames(synth_sequence(scenario, seed=0, cfg=SMALL))
            for scenario in ("crowd", "duplicates")]
    _, curve = train_toy(seqs, SMALL, seed=0, n_iters=LOSS_ITERS)
    rows = [{"iteration": r.iteration, "match": r.match, "enc": list(r.enc),
             "dec": list(r.dec), "total": r.total} for r in curve]
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def golden_backbone_text():
    """appearance_embed_batch on a seeded 3-person batch at the default
    config, and train_toy's loss curve on a 6-frame crossing crop sequence
    at SMALL, which runs the backbone's backward pass; floats by repr."""
    cfg = EngineConfig()
    rng = np.random.default_rng(0)
    store = nn.ParamStore()
    init_backbone_params(store, cfg, rng)
    h, w, k = cfg.crop_height, cfg.crop_width, cfg.keypoint_count
    crops = rng.uniform(0.0, 1.0, size=(3, 3, h, w))
    heats = np.stack([
        render_heatmaps(Pose(coords=rng.uniform(0.0, 1.0, size=(k, 2)) * (w, h),
                             conf=np.ones(k), visible=np.ones(k, bool)),
                        h, w, HEATMAP_KERNEL_WIDTH)
        for _ in range(3)])
    embed = appearance_embed_batch(crops, heats, store).data
    seq = synth_sequence("crossing", n_frames=6, seed=0, cfg=SMALL, crops=True)
    _, curve = train_toy([labeled_frames(seq)], SMALL, seed=0, n_iters=CROP_LOSS_ITERS)
    rows = [json.dumps(row) for row in embed.tolist()]
    return ('{"embeddings": [\n' + ",\n".join(rows) + "\n],\n"
            + '"crop_loss": ' + json.dumps([r.total for r in curve]) + "}\n")


def test_tracking_matches_golden_file():
    with open(GOLDEN) as fh:
        assert golden_lines() == fh.read()


def test_training_matches_golden_loss_curve():
    with open(GOLDEN_LOSS) as fh:
        assert golden_loss_text() == fh.read()


def test_backbone_matches_golden_file():
    with open(GOLDEN_BACKBONE) as fh:
        assert golden_backbone_text() == fh.read()


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write(golden_lines())
    with open(GOLDEN_LOSS, "w") as fh:
        fh.write(golden_loss_text())
    with open(GOLDEN_BACKBONE, "w") as fh:
        fh.write(golden_backbone_text())
