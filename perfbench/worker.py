"""The measured process: one workload in a fresh interpreter.

It reads only the sequence files and the manifest the benchmark wrote into
its work directory, sets the program up several times (the median is
`setup_s`), then runs closed-loop passes over the inputs: each frame is
handed to `tracker.step` only after the previous call returned, and each
training iteration starts only after the previous one ended.

    python3 perfbench/worker.py --dir WORKDIR --seconds 20 --trace 0

It writes WORKDIR/out.json, per-sequence results JSONL and, when tracing,
WORKDIR/spans.jsonl.  The parent benchmark checks and summarises them.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from dstrack import heuristics, sequence_io, tracker, training, transformer
from dstrack.config import EngineConfig, validate_config
from dstrack.sequence_io import result_to_dict
from dstrack.spapde import init_backbone_params

import tracing as tr

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_BUDGET_S = 2.0
WARMUP_FRAMES = 10
WARMUP_TRAIN_ITERS = 5


def blas_threads():
    """OpenBLAS thread count of the loaded library, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Program:
    """What a `dstrack track` or `dstrack train` user runs, split into the
    set-up they pay once and the passes over the inputs."""

    def __init__(self, manifest: dict, workdir: str):
        self.kind = manifest["kind"]
        self.crops = manifest["crops"]
        self.train_iters = manifest["train_iters"]
        self.cfg = validate_config(EngineConfig(**manifest["config"]))
        self.paths = [os.path.join(workdir, f) for f in manifest["files"]]
        self.sequences = []
        self.model = None

    def setup(self):
        seqs = [sequence_io.load_sequence(p) for p in self.paths]
        if self.kind == "train":
            # each training pass starts from a fresh model of its own; this
            # one is built only because a `dstrack train` user pays for it
            self.sequences = [training.labeled_frames(s) for s in seqs]
            self.model = transformer.TrackingModel(self.cfg, seed=0)
            return
        self.sequences = [s.detection_frames() for s in seqs]
        self.model = heuristics.build_heuristic_model(self.cfg, seed=0)
        if self.crops:
            init_backbone_params(self.model.store, self.cfg, np.random.default_rng(0))


class Pass:
    """Outcome of one pass over all inputs."""

    def __init__(self):
        self.op_seconds = []      # wall time of each frame or iteration
        self.loop_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.outputs = []         # results JSONL per sequence, or the loss curve
        self.losses = []


def track_pass(prog: Program, tracer, first_op: int) -> Pass:
    out = Pass()
    clock = time.perf_counter
    t_loop = clock()
    op = first_op
    for frames in prog.sequences:
        state = tracker.TrackerState()
        results = []
        for dets in frames:
            if tracer is not None:
                tracer.op = op
            op += 1
            out.attempted += 1
            t0 = clock()
            try:
                res, state, _ = tracker.step(state, dets, prog.model)
            except Exception:
                traceback.print_exc()
                out.failed += 1
                break
            out.op_seconds.append(clock() - t0)
            results.append((res, len(dets)))
        out.outputs.append(results)
    out.loop_seconds = clock() - t_loop
    if tracer is not None:
        tracer.op = None
    jsonl = []
    for results in out.outputs:
        lines = []
        for i, (res, n_dets) in enumerate(results):
            if not res.detection_partition(n_dets):
                out.failed += 1
            lines.append(json.dumps(result_to_dict(i, res), sort_keys=True) + "\n")
        jsonl.append("".join(lines))
    out.outputs = jsonl
    return out


class IterationClock:
    """Timestamps of successive AdamW.step returns; each return closes one
    training iteration.  Installed in every mode, so no private function of
    the trainer is wrapped."""

    def __init__(self, patches: tr.Patches):
        self.stamps = []
        self.tracer = None
        owner, attr, step = tr.resolve("dstrack.training", "AdamW.step")
        clock = time.perf_counter

        def stamped(opt, *args, **kwargs):
            out = step(opt, *args, **kwargs)
            self.stamps.append(clock())
            if self.tracer is not None:
                self.tracer.op += 1
            return out
        patches.swap(owner, attr, stamped)


def train_pass(prog: Program, iclock: IterationClock, tracer, first_op: int) -> Pass:
    out = Pass()
    model = transformer.TrackingModel(prog.cfg, seed=0)
    iclock.tracer = tracer
    if tracer is not None:
        tracer.op = first_op
    iclock.stamps = [time.perf_counter()]
    try:
        _, curve = training.train_toy(prog.sequences, prog.cfg, seed=0,
                                      n_iters=prog.train_iters, model=model)
    except RuntimeError:
        # train_toy raises on a non-finite loss
        traceback.print_exc()
        curve = None
        out.failed += 1
    stamps = iclock.stamps
    out.loop_seconds = stamps[-1] - stamps[0]
    out.op_seconds = [b - a for a, b in zip(stamps, stamps[1:])]
    out.attempted = len(out.op_seconds) + (curve is None)
    if tracer is not None:
        tracer.op = None
    iclock.tracer = None
    if curve is not None:
        out.losses = [row.total for row in curve]
        out.failed += sum(1 for v in out.losses if not np.isfinite(v))
        out.outputs = [json.dumps([[r.iteration, r.match, list(r.enc), list(r.dec), r.total]
                                   for r in curve]) + "\n"]
    return out


def warm_up(prog: Program) -> None:
    """A few untimed frames or training iterations, so that first-call and
    allocator costs stay out of the passes."""
    if prog.kind == "train":
        training.train_toy(prog.sequences, prog.cfg, seed=0, n_iters=WARMUP_TRAIN_ITERS,
                           model=transformer.TrackingModel(prog.cfg, seed=0))
        return
    state = tracker.TrackerState()
    for dets in prog.sequences[0][:WARMUP_FRAMES]:
        _, state, _ = tracker.step(state, dets, prog.model)


def run_passes(run_one, seconds: float, min_passes: int):
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        first_op = sum(len(p.op_seconds) for p in passes)
        passes.append(run_one(first_op))
    return passes


def timed_setups(prog: Program, tracer) -> list:
    """Warm-up set-up first, so lazy imports and the file cache are paid
    outside the timed set-ups; then the timed ones."""
    prog.setup()
    times = []
    t_start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPS
           or (len(times) < SETUP_MAX_REPS
               and time.perf_counter() - t_start < SETUP_BUDGET_S)):
        if tracer is not None:
            tracer.op = f"setup-{len(times)}"
        t0 = time.perf_counter()
        prog.setup()
        times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.op = None
    return times


def summarize(passes):
    return {
        "op_seconds": [s for p in passes for s in p.op_seconds],
        "loop_seconds": sum(p.loop_seconds for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "passes": len(passes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    prog = Program(manifest, args.dir)
    patches = tr.Patches()
    if prog.kind == "train":
        iclock = IterationClock(patches)

        def one(tracer):
            return lambda first_op: train_pass(prog, iclock, tracer, first_op)
    else:
        def one(tracer):
            return lambda first_op: track_pass(prog, tracer, first_op)

    report = {"blas_threads": blas_threads()}
    if args.trace == 0:
        t0 = time.perf_counter()
        report["setup_seconds"] = timed_setups(prog, None)
        t1 = time.perf_counter()
        warm_up(prog)
        t2 = time.perf_counter()
        passes = run_passes(one(None), args.seconds, min_passes=2)
        report["phase_seconds"] = {"setups": t1 - t0, "warm_up": t2 - t1,
                                   "passes": time.perf_counter() - t2}
        traced = []
    else:
        prog.setup()
        warm_up(prog)
        passes = run_passes(one(None), args.seconds / 2, min_passes=2)
        tracer = tr.Tracer()
        tr.install(tracer, patches)
        report["setup_seconds"] = timed_setups(prog, tracer)
        traced = run_passes(one(tracer), args.seconds / 2, min_passes=1)
        op_seconds = {}
        first = 0
        for p in traced:
            op_seconds.update(zip(range(first, first + len(p.op_seconds)), p.op_seconds))
            first += len(p.op_seconds)
        report["per_layer"] = tr.per_layer(tracer, op_seconds, prog.kind == "train")
        report["absent"] = tracer.absent
        report["traced"] = summarize(traced)
        patches.undo()
        tracer.write(os.path.join(args.dir, "spans.jsonl"))

    report["untraced"] = summarize(passes)
    reference = passes[0].outputs
    report["identical_passes"] = all(p.outputs == reference for p in passes + traced)
    report["losses"] = passes[0].losses
    for k, text in enumerate(reference):
        with open(os.path.join(args.dir, f"results_{k}.jsonl"), "w") as fh:
            fh.write(text)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["setup_s"] = statistics.median(report["setup_seconds"])
    with open(os.path.join(args.dir, "out.json"), "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
