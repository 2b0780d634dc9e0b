"""Span tracing from outside the program.

Wrappers from this file are put on the public functions of each measured
layer.  A wrapper replaces every name a caller looks the function up by:
`tracker` and `training` import `edge_features` by name, `tracker.step`
reads `assign_and_filter` as a module global, and `appearance_embed_batch`
is imported from `spapde` at call time.  So each target is swapped in every
loaded `dstrack` module that binds it, and methods are swapped on their
class.  A target that no longer exists is reported as absent.

Spans (name, start, end, parent, operation id) stay in memory until the run
ends.  An operation is one `tracker.step` frame or one training iteration.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, defining module, attribute path); two targets may share a name
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("tracker.step", "dstrack.tracker", "step"),
    ("tracker.assign_and_filter", "dstrack.tracker", "assign_and_filter"),
    ("geometry.edge_features", "dstrack.geometry", "edge_features"),
    ("transformer.forward_frame", "dstrack.transformer", "TrackingModel.forward_frame"),
    ("transformer.encoder_forward", "dstrack.transformer", "TrackingModel.encoder_forward"),
    ("transformer.edge_head", "dstrack.transformer", "TrackingModel.edge_head"),
    ("transformer.decoder_layer", "dstrack.transformer", "TrackingModel.decoder_layer"),
    ("transformer.track_head", "dstrack.transformer", "TrackingModel.track_head"),
    ("transformer.new_track_head", "dstrack.transformer", "TrackingModel.new_track_head"),
    ("transformer.confidence_update", "dstrack.transformer", "TrackingModel.confidence_update"),
    ("transformer.matching_layer", "dstrack.transformer", "TrackingModel.matching_layer"),
    ("spapde.appearance_embed_batch", "dstrack.spapde", "appearance_embed_batch"),
    ("nn.conv3x3", "dstrack.nn", "conv3x3"),
    ("nn.backward", "dstrack.nn", "Tensor.backward"),
    ("training.greedy_identity_assignment", "dstrack.training", "greedy_identity_assignment"),
    ("training.loss", "dstrack.training", "loss_match"),
    ("training.loss", "dstrack.training", "loss_attn"),
    ("training.adamw", "dstrack.training", "AdamW.step"),
    ("heuristics.build_heuristic_model", "dstrack.heuristics", "build_heuristic_model"),
    ("sequence_io.load_sequence", "dstrack.sequence_io", "load_sequence"),
)

# set-up layers: inclusive seconds per set-up, median over set-ups
SETUP_S = {
    "heuristics.build_heuristic_model": "heuristics.build_heuristic_model.s",
    "sequence_io.load_sequence": "sequence_io.load_sequence.s",
}

# self time per operation, in ms, keyed by span name; tracker.step's self
# time is its lifecycle and glue, so it gets its own metric name
SELF_MS = {name: f"{name}.ms" for name, _, _ in SPAN_TARGETS if name not in SETUP_S}
SELF_MS["tracker.step"] = "tracker.step.self_ms"
# decoder_layer spans are named per stage when the method takes `stage`;
# the unsplit name only appears if a refactor drops that argument
DECODER_STAGES = 2
# a training iteration's time that no top-level span covers
ITERATION_GLUE_MS = "training.iteration.self_ms"

# counts per operation
COUNTERS = ("geometry.pairs", "transformer.edge_bytes", "tracker.tracks",
            "tracker.detections", "nn.tape_nodes")


def resolve(module: str, path: str):
    """(owner, attribute, current value) for a target, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def swap(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def swap_everywhere(self, module: str, path: str, make: Callable) -> bool:
        """Wrap a target under every name that binds it; False if it is gone."""
        found = resolve(module, path)
        if found is None:
            return False
        owner, attr, original = found
        wrapped = make(original)
        if inspect.isclass(owner):
            self.swap(owner, attr, wrapped)
            return True
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dstrack" or mod_name.startswith("dstrack.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.swap(mod, name, wrapped)
        return True

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span and counter store."""

    def __init__(self):
        self.spans: List[list] = []          # [name, start, end, parent, op]
        self.counts: Dict[Tuple[object, str], float] = {}
        self.absent: List[str] = []
        # int: operation id; str: a timed set-up; None: anything else
        self.op: object = None
        self._stack: List[int] = []

    def count(self, name: str, n: float):
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, name_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            idx = len(spans)
            spans.append([label, clock(), None, stack[-1] if stack else None, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result:
                on_result(args, kwargs, out)
            return out
        return traced

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _stage_namer(fn):
    sig = inspect.signature(fn)
    if "stage" not in sig.parameters:
        return None

    def name_of(args, kwargs):
        stage = sig.bind(*args, **kwargs).arguments["stage"]
        return f"transformer.decoder_layer.stage{stage}"
    return name_of


def _nbytes(t) -> int:
    data = getattr(t, "data", t)
    return int(data.size * data.itemsize)


def install(tracer: Tracer, patches: Patches) -> None:
    """Put a span wrapper on every target and the counters beside them."""
    tracer.absent = []
    counters = {
        "geometry.edge_features": lambda a, k, out: tracer.count(
            "geometry.pairs", out.shape[0] * out.shape[1]),
        "transformer.edge_head": lambda a, k, out: tracer.count(
            "transformer.edge_bytes", _nbytes(out)),
        "transformer.decoder_layer": lambda a, k, out: tracer.count(
            "transformer.edge_bytes", _nbytes(out[1])),
    }
    for name, module, path in SPAN_TARGETS:
        def make(fn, name=name):
            name_of = _stage_namer(fn) if name == "transformer.decoder_layer" else None
            if name == "tracker.step":
                sig = inspect.signature(fn)

                def on_step(a, k, out):
                    bound = sig.bind(*a, **k).arguments
                    tracer.count("tracker.tracks", len(bound["state"].tracks))
                    tracer.count("tracker.detections", len(bound["detections"]))
                return tracer.wrap(fn, name, on_result=on_step)
            return tracer.wrap(fn, name, name_of, counters.get(name))
        if not patches.swap_everywhere(module, path, make):
            tracer.absent.append(f"{module}:{path}")

    found = resolve("dstrack.nn", "Tensor.__init__")
    if found is None:
        tracer.absent.append("dstrack.nn:Tensor.__init__")
        return
    owner, attr, init = found

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.count("nn.tape_nodes", 1)
    patches.swap(owner, attr, counted_init)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (name, start, end, parent, op) in enumerate(spans)]


def per_layer(tracer: Tracer, op_seconds: Dict[object, float],
              training: bool = False) -> Dict[str, float]:
    """Per-layer metrics, averaged over the operations in op_seconds, plus
    set-up times.

    op_seconds maps each operation to its wall time as the caller measured
    it.  For training, the part of that time no top-level span covers is
    reported as ITERATION_GLUE_MS (windows, duplicate injection, teacher
    forcing); trace.accounted_share leaves it out.
    """
    n_ops = max(len(op_seconds), 1)
    ms: Dict[str, float] = dict.fromkeys(SELF_MS.values(), 0.0)
    for stage in range(DECODER_STAGES):
        ms[f"transformer.decoder_layer.stage{stage}.ms"] = 0.0
    covered: Dict[object, float] = {}
    spanned = 0.0
    setup: Dict[str, Dict[object, float]] = {m: {} for m in SETUP_S.values()}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, parent, op = span
        if op in op_seconds:
            metric = (f"{name}.ms" if name.startswith("transformer.decoder_layer.")
                      else SELF_MS.get(name))
            if metric:
                ms[metric] = ms.get(metric, 0.0) + 1000.0 * own
            spanned += own
            if parent is None:
                covered[op] = covered.get(op, 0.0) + (end - start)
        elif name in SETUP_S and isinstance(op, str):
            per = setup[SETUP_S[name]]
            per[op] = per.get(op, 0.0) + (end - start)
    out = {k: v / n_ops for k, v in ms.items()}
    glue = sum(sec - covered.get(op, 0.0) for op, sec in op_seconds.items())
    out[ITERATION_GLUE_MS] = 1000.0 * glue / n_ops if training else 0.0
    # the traced operation time, and the share of it the layer spans cover
    op_total = sum(op_seconds.values())
    out["trace.step_ms_mean"] = 1000.0 * op_total / n_ops
    out["trace.accounted_share"] = spanned / op_total if op_total else 0.0
    for name in COUNTERS:
        out[name] = sum(v for (op, n), v in tracer.counts.items()
                        if n == name and op in op_seconds) / n_ops
    for metric, per in setup.items():
        vals = sorted(per.values())
        out[metric] = vals[len(vals) // 2] if vals else 0.0
    return out
