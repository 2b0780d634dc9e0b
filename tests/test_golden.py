"""Numerics regression: the heuristic tracker's results on the four synth
scenarios, and a short toy-training loss curve, must match recorded golden
files byte for byte.

Regenerate the golden files (only when a change is meant to alter tracking
decisions or training numerics) with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import os

from dstrack.config import EngineConfig
from dstrack.heuristics import build_heuristic_model
from dstrack.sequence_io import result_to_dict
from dstrack.synth import SCENARIOS, synth_sequence
from dstrack.tracker import run_sequence
from dstrack.training import labeled_frames, train_toy
from small_config import SMALL

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_tracks.jsonl")
GOLDEN_LOSS = os.path.join(DATA, "golden_loss.json")

LOSS_ITERS = 20


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


def test_tracking_matches_golden_file():
    with open(GOLDEN) as fh:
        assert golden_lines() == fh.read()


def test_training_matches_golden_loss_curve():
    with open(GOLDEN_LOSS) as fh:
        assert golden_loss_text() == fh.read()


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write(golden_lines())
    with open(GOLDEN_LOSS, "w") as fh:
        fh.write(golden_loss_text())
