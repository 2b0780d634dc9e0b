"""The program names the benchmark reaches, checked without running it.

perfbench/ wraps public functions by name and its worker calls the library
directly; a refactor that drops or renames one of them is otherwise seen
only by perfbench/test_smoke.py, which takes tens of seconds.  This test
imports perfbench/tracing.py as it is and reads its target list.
"""
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from dstrack import heuristics, training, transformer
from dstrack.sequence_io import SequenceFile
from dstrack.spapde import init_backbone_params
from dstrack.tracker import FrameResult, step
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
