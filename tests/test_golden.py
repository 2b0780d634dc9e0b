"""Decision regression: the heuristic tracker's results on the four synth
scenarios must match a recorded golden file byte for byte.

Regenerate the golden file (only when a change is meant to alter tracking
decisions) with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import os

from dstrack.config import EngineConfig
from dstrack.heuristics import build_heuristic_model
from dstrack.sequence_io import result_to_dict
from dstrack.synth import SCENARIOS, synth_sequence
from dstrack.tracker import run_sequence

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_tracks.jsonl")


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


def test_tracking_matches_golden_file():
    with open(GOLDEN) as fh:
        assert golden_lines() == fh.read()


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write(golden_lines())
