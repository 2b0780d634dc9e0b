"""The program names the benchmark reaches, checked without running it.

perfbench/ wraps public functions by name and its worker calls the library
directly; a refactor that drops or renames one of them is otherwise seen
only by perfbench/test_smoke.py, which takes tens of seconds.  This test
imports perfbench/tracing.py as it is and reads its target list.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from dstrack import heuristics, tracker, training, transformer
from dstrack.sequence_io import SequenceFile
from dstrack.spapde import init_backbone_params
from dstrack.synth import synth_sequence
from dstrack.tracker import FrameResult, TrackerState, step
from small_config import SMALL

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# targets the benchmark still lists after the program dropped them
KNOWN_STALE = {"dstrack.training:loss_match"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tr = _tracing()
    targets = [(module, path) for _, module, path in tr.SPAN_TARGETS]
    targets.append(("dstrack.nn", "Tensor.__init__"))
    absent = {f"{module}:{path}" for module, path in targets
              if tr.resolve(module, path) is None}
    assert absent <= KNOWN_STALE


def test_traced_arguments_keep_their_names():
    # the step span counts tracks and detections by argument name, and the
    # decoder spans are named per stage
    assert {"state", "detections"} <= set(inspect.signature(step).parameters)
    decoder = inspect.signature(transformer.TrackingModel.decoder_layer)
    assert "stage" in decoder.parameters


def test_the_calls_the_worker_makes_exist():
    model = heuristics.build_heuristic_model(SMALL, seed=0)
    init_backbone_params(model.store, SMALL, np.random.default_rng(0))
    assert "backbone.head.w" in model.store
    assert isinstance(transformer.TrackingModel(SMALL, seed=0), transformer.TrackingModel)
    assert training.labeled_frames(SequenceFile("s", 30.0, [])) == []
    assert FrameResult(new_tracks=[(0, 0)]).detection_partition(1)


def test_training_takes_no_tracking_decision():
    # perfbench/test_smoke.py requires the step and assignment metrics, and
    # the track and detection counts that the step span takes, to read 0 on
    # train_small: training advances its state without either function, and
    # the worker starts every tracked sequence from TrackerState()
    watched = {tracker.step.__code__, tracker.assign_and_filter.__code__}
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            called.append(frame.f_code.co_name)
    frames = training.labeled_frames(synth_sequence("crowd", n_frames=4, seed=0, cfg=SMALL))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        training.train_toy([frames], SMALL, seed=0, n_iters=2)
        step(TrackerState(), frames[0].detections, transformer.TrackingModel(SMALL, seed=0))
    finally:
        sys.setprofile(previous)
    assert called == ["step", "assign_and_filter"]  # only the tracked frame
    assert TrackerState().tracks == [] and TrackerState().next_id == 0
