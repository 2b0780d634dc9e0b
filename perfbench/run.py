"""dstrack benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload crowd16 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The benchmark builds the workload's inputs from --seed and writes
them to sequence files (untimed), then starts a fresh interpreter
(perfbench/worker.py) that loads those files and runs closed-loop passes
for --seconds.  Afterwards it checks the outputs against the labels and
prints a table, then one JSON line: the end-to-end metrics BENCHMARK.json
names with --trace 0, its per-layer metrics from a traced run with
--trace 1.  Workloads, metrics and the layer map are described in
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

RUN_LIMIT_S = 170.0          # the whole run, set-up and checks included
LOSS_WINDOW = 10             # iterations averaged into final_loss


def p90(values):
    """90th percentile, interpolated between the samples around it."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def source_digest() -> str:
    """sha256 over the program's source files, standing in for the commit
    (a checkout need not be a git repository)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "dstrack"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def write_inputs(wl, workdir: str) -> None:
    from dstrack.sequence_io import save_sequence

    files = []
    for k, seq in enumerate(wl.sequences):
        name = f"seq_{k}.json"
        save_sequence(seq, os.path.join(workdir, name))
        files.append(name)
    manifest = {"kind": wl.kind, "crops": wl.crops, "train_iters": wl.train_iters,
                "config": dataclasses.asdict(wl.cfg), "files": files}
    with open(os.path.join(workdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def check_tracking(wl, workdir: str):
    """evaluate() every sequence against its labels; returns
    (checks attempted, checks failed, mota_lite minimum, id switches)."""
    from dstrack.evaluate import evaluate
    from dstrack.sequence_io import read_results_jsonl

    motas, switches, failed = [], 0, 0
    for k, seq in enumerate(wl.sequences):
        results = read_results_jsonl(os.path.join(workdir, f"results_{k}.jsonl"))
        if len(results) != len(seq.frames):
            failed += 1
            motas.append(0.0)
            continue
        rep = evaluate(results, seq)
        motas.append(rep.mota_lite)
        switches += rep.id_switches
        # the seed tracks every workload perfectly; anything less is a failure
        failed += int(rep.mota_lite != 1.0 or rep.id_switches != 0)
    return len(wl.sequences), failed, min(motas), switches


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="a few frames or iterations per input, for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dstrack", "__init__.py")):
        print(f"perfbench: no dstrack sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    write_inputs(wl, workdir)
    t_inputs = time.monotonic()

    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--dir", workdir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    budget = RUN_LIMIT_S - (time.monotonic() - t_start)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {budget:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(workdir, "out.json")) as fh:
        out = json.load(fh)
    t_worker = time.monotonic()

    untraced = out["untraced"]
    op_ms = [1000.0 * s for s in untraced["op_seconds"]]
    attempted = untraced["attempted"]
    failed = untraced["failed"]
    if "traced" in out:
        attempted += out["traced"]["attempted"]
        failed += out["traced"]["failed"]
    if len(op_ms) < 2:
        print(f"perfbench: only {len(op_ms)} {args.workload} steps completed", file=sys.stderr)
        return 1
    correct = out["identical_passes"] and failed == 0

    op = "iter" if wl.kind == "train" else "frame"
    report = {}          # every metric the run measured: name -> (value, unit)
    if wl.kind == "track":
        checks, bad, mota, switches = check_tracking(wl, workdir)
        attempted += checks
        failed += bad
        correct = correct and bad == 0
        report["mota_lite"] = (mota, "ratio")
        report["id_switches"] = (switches, "count")
    else:
        losses = out["losses"]
        final = statistics.fmean(losses[-LOSS_WINDOW:]) if losses else math.nan
        first = statistics.fmean(losses[:LOSS_WINDOW]) if losses else math.nan
        # training must make progress, as acceptance criterion 5 requires
        progress = math.isfinite(final) and (args.tiny or final < first)
        attempted += 1
        failed += int(not progress)
        correct = correct and progress
        report["final_loss"] = (final, "loss")
    report[f"{op}_ms_p50"] = report["step_ms_p50"] = (statistics.median(op_ms), "ms")
    report[f"{op}_ms_p90"] = report["step_ms_p90"] = (p90(op_ms), "ms")
    rate = len(op_ms) / untraced["loop_seconds"]
    report[f"{op}s_per_s"] = report["steps_per_s"] = (rate, "1/s")
    report["setup_s"] = (out["setup_s"], "s")
    report["peak_rss_mb"] = (out["peak_rss_mb"], "MB")
    report["failed_frac"] = (failed / attempted, "ratio")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.trace:
        layer = dict(out["per_layer"])
        traced_ms = [1000.0 * s for s in out["traced"]["op_seconds"]]
        layer["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(op_ms)
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: (report[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}

    phases = {"inputs": t_inputs - t_start, "worker": t_worker - t_inputs,
              **out.get("phase_seconds", {}), "checks": time.monotonic() - t_worker}
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "nproc": os.cpu_count(),
        "blas_threads": out["blas_threads"],
        "samples": {"untraced_ops": len(op_ms), "passes": untraced["passes"],
                    "setups": len(out["setup_seconds"])},
        "absent_layers": out.get("absent", []),
        "phase_seconds": phases,
    }
    with open(os.path.join(workdir, "report.json"), "w") as fh:
        json.dump({"provenance": provenance, "correct": correct,
                   "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh, indent=1, sort_keys=True)

    traced_note = f"{len(out['traced']['op_seconds'])} traced, " if args.trace else ""
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"{len(op_ms)} untraced {op}s in {untraced['passes']} passes, {traced_note}"
          f"{len(out['setup_seconds'])} set-ups, correct={correct}; "
          + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))
    for absent in provenance["absent_layers"]:
        print(f"# absent layer: {absent}")
    for name, (value, unit) in list(report.items()) + (
            list(metrics.items()) if args.trace else []):
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _version(module: str) -> str:
    return __import__(module).__version__


if __name__ == "__main__":
    sys.exit(main())
