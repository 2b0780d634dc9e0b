"""Command-line front end.

Subcommands: track, train, eval, gradcheck, synth.  Engine settings come
from the built-in defaults, overridden field by field by the JSON config
file given with --config; there is no other source.  Usage and
config-validation problems exit 2; runtime failures exit 1.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from typing import List, Optional

import numpy as np

from . import nn
from .config import EngineConfig
from .evaluate import check_results, evaluate
from .gradsuite import format_outcomes, run_suite, suite_passed
from .heuristics import build_heuristic_model
from .sequence_io import (
    SequenceFile,
    load_sequence,
    read_results_jsonl,
    result_to_dict,
    save_sequence,
    write_loss_csv,
    write_results_jsonl,
)
from .synth import SCENARIOS, synth_sequence
from .tracker import check_detections, run_sequence
from .training import TOY_LR, labeled_frames, train_toy
from .transformer import TrackingModel


class UsageError(Exception):
    pass


def _ranged(kind, ok, wanted: str):
    """argparse type: a `kind` value for which `ok` holds; any other value
    exits 2 with argparse's line naming the flag."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse says "invalid int value: ..."
    return parse


_COUNT = _ranged(int, lambda v: v >= 1, "at least 1")
_NON_NEGATIVE = _ranged(int, lambda v: v >= 0, "non-negative")
_RATE = _ranged(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
_SPREAD = _ranged(float, lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")
_PROBABILITY = _ranged(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstrack", description="Pose-tracking association engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="associate detections over a sequence")
    p.add_argument("sequence", help="input sequence JSON")
    p.add_argument("--weights", help="checkpoint; omitted = untrained baseline")
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0, help="without --weights: "
                   "seeds the random backbone that embeds crop-only detections")
    p.add_argument("--out", help="JSONL output path (default stdout)")
    p.add_argument("--config", help="JSON file of engine config overrides")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("train", help="toy-scale training on labeled sequences")
    p.add_argument("sequences", nargs="+", help="labeled sequence JSON files")
    p.add_argument("--iters", type=_COUNT, default=200)
    p.add_argument("--lr", type=_RATE, default=TOY_LR, help="base learning rate")
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.add_argument("--out", default="model.ckpt", help="checkpoint output path")
    p.add_argument("--curve", help="loss curve CSV output path")
    p.add_argument("--config", help="JSON file of engine config overrides")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score tracking results against labels")
    p.add_argument("results", help="JSONL from the track subcommand")
    p.add_argument("gt", help="labeled sequence JSON")
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference the whole model")
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.add_argument("--seeds", type=_COUNT, default=5, help="instances per check")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic labeled sequence")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--frames", type=_COUNT, help="sequence length")
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.add_argument("--separation", type=_SPREAD, default=6.0,
                   help="appearance cluster separation")
    p.add_argument("--gap", type=_NON_NEGATIVE, default=10, help="occlusion length")
    p.add_argument("--duplicate-prob", type=_PROBABILITY, default=0.5)
    p.add_argument("--crops", action="store_true",
                   help="emit image crops instead of appearance vectors, "
                        "routing the tracker through the backbone")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file of engine config overrides")
    p.set_defaults(func=cmd_synth)
    return parser


def _load_config(path: Optional[str]) -> EngineConfig:
    fields = {}
    if path:
        try:
            with open(path) as fh:
                fields = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config {path}: {e}")
        if not isinstance(fields, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        unknown = set(fields) - {f.name for f in dataclasses.fields(EngineConfig)}
        if unknown:
            raise UsageError(f"unknown config fields {sorted(unknown)}")
    try:
        return EngineConfig(**fields)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e))


@contextlib.contextmanager
def _reading(path: str):
    """Put the path of the input file being read in front of any
    ValueError raised about it; an OSError names its file already."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _load_model(cfg: EngineConfig, weights: Optional[str], seed: int,
                with_backbone: bool = False) -> TrackingModel:
    if weights is None:
        model = build_heuristic_model(cfg)
        if with_backbone:
            from .spapde import init_backbone_params
            init_backbone_params(model.store, cfg, np.random.default_rng(seed))
        return model
    with _reading(weights):
        state = nn.load_checkpoint(weights)
        has_backbone = any(k.startswith("backbone.") for k in state)
        model = TrackingModel(cfg, seed=None, with_backbone=has_backbone)
        model.store.load_state(state)  # replaces every tensor
    return model


def _load_sequence(path: str, cfg: EngineConfig) -> SequenceFile:
    """load_sequence, refusing any frame that check_detections refuses
    before the first frame runs."""
    with _reading(path):
        seq = load_sequence(path)
        for fr in seq.frames:
            try:
                check_detections(fr.detections, cfg)
            except ValueError as e:
                raise ValueError(f"frame {fr.index}, {e}") from None
    return seq


def cmd_track(args) -> int:
    cfg = _load_config(args.config)
    seq = _load_sequence(args.sequence, cfg)
    frames = seq.detection_frames()
    crops_only = any(d.appearance is None for dets in frames for d in dets)
    model = _load_model(cfg, args.weights, args.seed, with_backbone=crops_only)
    if crops_only and "backbone.head.w" not in model.store:
        raise ValueError(f"{args.weights}: checkpoint has no backbone.* tensors to embed "
                         f"the detections of {args.sequence} that have only a crop")
    rows = []
    try:
        for idx, res, _ in run_sequence(frames, model):
            rows.append((idx, res))
    except FloatingPointError as e:  # raised under main's np.errstate
        raise FloatingPointError(
            f"{args.sequence}: frame {seq.frames[len(rows)].index}, {e}") from None
    if args.out:
        write_results_jsonl(rows, args.out)
    else:
        for idx, res in rows:
            print(json.dumps(result_to_dict(idx, res), sort_keys=True))
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    seqs = [labeled_frames(_load_sequence(p, cfg)) for p in args.sequences]
    try:
        model, curve = train_toy(seqs, cfg, seed=args.seed, n_iters=args.iters, lr=args.lr)
    except FloatingPointError as e:  # raised under main's np.errstate
        raise FloatingPointError(f"{args.sequences[e.sequence]}: {e}") from None
    nn.save_checkpoint(args.out, model.store.state_dict())
    if args.curve:
        write_loss_csv(curve, args.curve)
    print(f"trained {args.iters} iterations, final loss {curve[-1].total:.6f}, "
          f"checkpoint {args.out}")
    return 0


def cmd_eval(args) -> int:
    with _reading(args.results):
        results = read_results_jsonl(args.results)
    with _reading(args.gt):
        gt = load_sequence(args.gt)
    with _reading(args.results):  # results that do not fit the ground truth
        check_results(results, gt)
        report = evaluate(results, gt)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_gradcheck(args) -> int:
    outcomes = run_suite(seeds=args.seeds, base_seed=args.seed)
    for line in format_outcomes(outcomes):
        print(line)
    if suite_passed(outcomes):
        print("gradient suite passed")
        return 0
    print("gradient suite FAILED", file=sys.stderr)
    return 1


def cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    seq = synth_sequence(args.scenario, n_frames=args.frames, seed=args.seed,
                         cfg=cfg, separation=args.separation, gap=args.gap,
                         duplicate_prob=args.duplicate_prob, crops=args.crops)
    save_sequence(seq, args.out)
    print(f"wrote {args.out}: {len(seq.frames)} frames")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # a float overflow, 0/0 or division by zero stops the command; an
        # underflow does not, since softmax and GELU tails underflow by design
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
