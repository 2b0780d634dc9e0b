"""Tracking quality metrics against labeled sequences.

Deliberately lightweight: box-IoU matching at 0.5, identity switches,
association accuracy against each identity's modal track id, and a coarse
mota_lite = 1 - (misses + false positives + switches) / gt instances.
These numbers are not comparable to benchmark-toolkit metrics; they exist
to compare configurations of this engine against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .geometry import iou_grid
from .sequence_io import SequenceFile
from .tracker import FrameResult, hungarian

IOU_MATCH_THRESHOLD = 0.5


@dataclass
class EvalReport:
    # one {"frame", "identity", "from_track", "to_track"} per identity
    # switch, in frame order: at `frame` the identity's matched track
    # changed from from_track to to_track
    switches: List[Dict[str, int]]
    association_accuracy: float
    mota_lite: float
    misses: int
    false_positives: int
    total_gt: int
    precision: List[float]
    recall: List[float]

    @property
    def id_switches(self) -> int:
        return len(self.switches)

    def to_dict(self) -> dict:
        return {
            "id_switches": self.id_switches,
            "switches": [{k: int(v) for k, v in s.items()} for s in self.switches],
            "association_accuracy": float(self.association_accuracy),
            "mota_lite": float(self.mota_lite),
            "misses": int(self.misses),
            "false_positives": int(self.false_positives),
            "total_gt": int(self.total_gt),
            "precision": [float(v) for v in self.precision],
            "recall": [float(v) for v in self.recall],
        }


def _frame_outputs(res: FrameResult) -> List[Tuple[int, int]]:
    """Tracker-claimed instances this frame: (det idx, track id)."""
    return list(res.assignments) + list(res.new_tracks)


def _match_frame(outputs, gt_indices, dets):
    """IoU-maximal one-to-one matching between output dets and gt dets."""
    if not outputs or not gt_indices:
        return []
    scores = iou_grid([dets[det_idx].box for det_idx, _ in outputs],
                      [dets[gt_idx].box for gt_idx in gt_indices])
    return [(a, b) for a, b in hungarian(-scores) if scores[a, b] > IOU_MATCH_THRESHOLD]


def check_results(results: Sequence[Tuple[int, FrameResult]], gt: SequenceFile) -> None:
    """Refuse results that tracking `gt` cannot write: record k names frame k
    and places each of its detections in one bucket.  evaluate() also
    scores partial results, counting an unlisted detection as a miss."""
    for k, ((frame_index, res), frame) in enumerate(zip(results, gt.frames)):
        if frame_index != k:
            raise ValueError(f"record {k} names frame {frame_index}, expected frame {k}")
        fault = res.partition_fault(len(frame.detections))
        if fault is not None:
            raise ValueError(f"frame {k}: {fault}")


def evaluate(results: Sequence[Tuple[int, FrameResult]], gt: SequenceFile) -> EvalReport:
    if len(results) != len(gt.frames):
        raise ValueError(f"frame count mismatch: results cover {len(results)} frames, "
                         f"ground truth {len(gt.frames)}")

    total_gt = 0
    misses = 0
    false_positives = 0
    precision: List[float] = []
    recall: List[float] = []
    # identity -> (frame, matched track id) of each frame it was matched in
    history: Dict[int, List[Tuple[int, int]]] = {}

    for (frame_index, res), frame in zip(results, gt.frames):
        gt_indices = [i for i, ident in enumerate(frame.identities)
                      if ident is not None and i not in frame.duplicates]
        outputs = _frame_outputs(res)
        pairs = _match_frame(outputs, gt_indices, frame.detections)
        total_gt += len(gt_indices)
        misses += len(gt_indices) - len(pairs)
        false_positives += len(outputs) - len(pairs)
        precision.append(len(pairs) / len(outputs) if outputs else 1.0)
        recall.append(len(pairs) / len(gt_indices) if gt_indices else 1.0)
        for a, b in pairs:
            ident = frame.identities[gt_indices[b]]
            history.setdefault(ident, []).append((frame_index, outputs[a][1]))

    switches: List[Dict[str, int]] = []
    agreements = 0
    matched_total = 0
    for ident, seen in history.items():
        switches += [{"frame": f, "identity": ident, "from_track": prev, "to_track": cur}
                     for (_, prev), (f, cur) in zip(seen, seen[1:]) if prev != cur]
        ids = [track for _, track in seen]
        values, counts = np.unique(np.asarray(ids), return_counts=True)
        modal = values[np.argmax(counts)]
        agreements += int((np.asarray(ids) == modal).sum())
        matched_total += len(ids)

    if total_gt == 0:
        accuracy = 1.0
        mota = 1.0
    else:
        accuracy = agreements / matched_total if matched_total else 0.0
        mota = 1.0 - (misses + false_positives + len(switches)) / total_gt
    switches.sort(key=lambda s: (s["frame"], s["identity"]))
    return EvalReport(
        switches=switches,
        association_accuracy=accuracy,
        mota_lite=mota,
        misses=misses,
        false_positives=false_positives,
        total_gt=total_gt,
        precision=precision,
        recall=recall,
    )
