"""File formats: sequence JSON, per-frame result JSONL, loss-curve CSV.

A sequence file is a single JSON document holding ordered frames of
detections.  Detections may carry an identity label (for evaluation and
training) and a precomputed appearance vector (standing in for a backbone).
Frames may flag some detection indices as injected duplicates; those are
distractors, not ground-truth instances.  Schema 2 writes a detection's
arrays packed as base64 float64 bytes (`datatypes.Detection.to_dict`);
both schemas read arrays packed or as nested lists.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .datatypes import Detection
from .tracker import FrameResult

SCHEMA_VERSION = 2
_READABLE_VERSIONS = (1, 2)

_KNOWN_TOP = {"schema_version", "sequence_id", "fps", "frames"}
_KNOWN_FRAME = {"index", "image_size", "detections", "duplicates"}
_KNOWN_DET = {"box", "pose", "score", "appearance", "crop", "identity"}


@dataclass
class SequenceFrame:
    index: int
    image_size: Tuple[int, int]                  # (height, width)
    detections: List[Detection] = field(default_factory=list)
    identities: List[Optional[int]] = field(default_factory=list)
    duplicates: Tuple[int, ...] = ()             # indices of injected distractors

    def __post_init__(self):
        if len(self.identities) != len(self.detections):
            raise ValueError("one identity slot per detection required")


@dataclass
class SequenceFile:
    sequence_id: str
    fps: float
    frames: List[SequenceFrame] = field(default_factory=list)

    def detection_frames(self) -> List[List[Detection]]:
        return [list(fr.detections) for fr in self.frames]


def _frame_to_dict(fr: SequenceFrame) -> dict:
    dets = []
    for det, ident in zip(fr.detections, fr.identities):
        d = det.to_dict()
        if ident is not None:
            d["identity"] = int(ident)
        dets.append(d)
    out = {
        "index": int(fr.index),
        "image_size": [int(fr.image_size[0]), int(fr.image_size[1])],
        "detections": dets,
    }
    if fr.duplicates:
        out["duplicates"] = [int(i) for i in fr.duplicates]
    return out


def save_sequence(seq: SequenceFile, path: str) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "sequence_id": seq.sequence_id,
        "fps": float(seq.fps),
        "frames": [_frame_to_dict(fr) for fr in seq.frames],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _warn_unknown(found: dict, known: set, where: str) -> None:
    extra = sorted(set(found) - known)
    if extra:
        warnings.warn(f"ignoring unknown field(s) {extra} in {where}")


def _int(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: expected an integer, got {value!r}") from None


def load_sequence(path: str) -> SequenceFile:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed JSON: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("frames"), list):
        raise ValueError("sequence file needs a top-level frames list")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version not in _READABLE_VERSIONS:
        raise ValueError(f"unrecognized schema version {version}")
    _warn_unknown(doc, _KNOWN_TOP, "sequence header")
    fps = doc.get("fps", 0.0)
    try:
        finite = (isinstance(fps, (int, float)) and not isinstance(fps, bool)
                  and math.isfinite(fps))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"fps must be a finite number, got {fps!r}")

    frames: List[SequenceFrame] = []
    last_index = None
    kp_count = None
    for n, fd in enumerate(doc["frames"]):
        if not isinstance(fd, dict) or "index" not in fd:
            raise ValueError(f"frame {n} in the frames list needs an index")
        _warn_unknown(fd, _KNOWN_FRAME, f"frame {fd['index']}")
        index = _int(fd["index"], f"frame {n} in the frames list: index")
        if last_index is not None and index <= last_index:
            raise ValueError(f"frame {n} in the frames list: non-monotone frame index, "
                             f"{index} after {last_index}")
        last_index = index
        dets: List[Detection] = []
        idents: List[Optional[int]] = []
        raw_dets = fd.get("detections", [])
        if not isinstance(raw_dets, list):
            raise ValueError(f"frame {index}: detections must be a list")
        for j, dd in enumerate(raw_dets):
            where = f"frame {index}, detection {j}"
            if not isinstance(dd, dict):
                raise ValueError(f"{where}: not a JSON object")
            _warn_unknown(dd, _KNOWN_DET, where)
            try:
                det = Detection.from_dict(dd)
            except KeyError as e:
                raise ValueError(f"{where}: missing field {e}") from None
            except (TypeError, IndexError, ValueError) as e:
                raise ValueError(f"{where}: {e}") from None
            if kp_count is None:
                kp_count = det.pose.keypoint_count
            elif det.pose.keypoint_count != kp_count:
                raise ValueError(f"{where}: inconsistent keypoint count, "
                                 f"{det.pose.keypoint_count} where earlier poses have {kp_count}")
            ident = dd.get("identity")
            if ident is not None and (isinstance(ident, bool) or not isinstance(ident, int)):
                raise ValueError(f"{where}: identity must be an integer or null, got {ident!r}")
            dets.append(det)
            idents.append(ident)
        size = fd.get("image_size", [0, 0])
        if not isinstance(size, list) or len(size) != 2:
            raise ValueError(f"frame {index}: image_size must be [height, width]")
        dups = fd.get("duplicates", [])
        if not isinstance(dups, list):
            raise ValueError(f"frame {index}: duplicates must be a list")
        frames.append(SequenceFrame(
            index=index,
            image_size=tuple(_int(v, f"frame {index}: image_size") for v in size),
            detections=dets,
            identities=idents,
            duplicates=tuple(_int(i, f"frame {index}: duplicates") for i in dups),
        ))
    return SequenceFile(
        sequence_id=str(doc.get("sequence_id", "")),
        fps=float(fps),
        frames=frames,
    )


# ---------------------------------------------------------------------------
# tracker results

def result_to_dict(frame_index: int, res: FrameResult) -> dict:
    return {
        "frame": int(frame_index),
        "assignments": [[int(d), int(t)] for d, t in res.assignments],
        "duplicates": [int(d) for d in res.duplicates],
        "new_tracks": [[int(d), int(t)] for d, t in res.new_tracks],
        "closed_tracks": [int(t) for t in res.closed_tracks],
    }


def _is_index(v) -> bool:
    """A non-negative integer that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _index_pairs(d: dict, key: str) -> List[Tuple[int, int]]:
    """d[key] as (detection index, track id) pairs of non-negative integers."""
    for item in d[key]:
        if not (isinstance(item, list) and len(item) == 2 and all(map(_is_index, item))):
            raise ValueError(f"{key}: expected [detection index, track id], two "
                             f"non-negative integers, got {item!r}")
    return [(a, b) for a, b in d[key]]


def _indices(d: dict, key: str) -> List[int]:
    """d[key] as a list of non-negative integers."""
    for item in d[key]:
        if not _is_index(item):
            raise ValueError(f"{key}: expected a non-negative integer, got {item!r}")
    return list(d[key])


def result_from_dict(d: dict) -> Tuple[int, FrameResult]:
    res = FrameResult(
        assignments=_index_pairs(d, "assignments"),
        duplicates=_indices(d, "duplicates"),
        new_tracks=_index_pairs(d, "new_tracks"),
        closed_tracks=_indices(d, "closed_tracks"),
    )
    frame = d["frame"]
    if not _is_index(frame):
        raise ValueError(f"frame: expected a non-negative integer, got {frame!r}")
    return frame, res


def write_results_jsonl(frame_results: Sequence[Tuple[int, FrameResult]], path: str) -> None:
    with open(path, "w") as fh:
        for frame_index, res in frame_results:
            fh.write(json.dumps(result_to_dict(frame_index, res), sort_keys=True))
            fh.write("\n")


def read_results_jsonl(path: str) -> List[Tuple[int, FrameResult]]:
    out = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"results line {n}: malformed JSON: {e}") from e
            if not isinstance(record, dict):
                raise ValueError(f"results line {n}: not a JSON object")
            try:
                out.append(result_from_dict(record))
            except KeyError as e:
                raise ValueError(f"results line {n}: missing field {e}") from None
            except (TypeError, ValueError) as e:
                raise ValueError(f"results line {n}: {e}") from None
    return out


# ---------------------------------------------------------------------------
# loss curves

def write_loss_csv(rows, path: str) -> None:
    """One row per iteration: iteration, match loss, per-stage attention
    losses, total."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if rows:
            n_enc = len(rows[0].enc)
            n_dec = len(rows[0].dec)
            header = (["iteration", "match"]
                      + [f"enc{k}" for k in range(n_enc)]
                      + [f"dec{k}" for k in range(n_dec)]
                      + ["total"])
            writer.writerow(header)
        for r in rows:
            writer.writerow([r.iteration, repr(r.match)]
                            + [repr(v) for v in r.enc]
                            + [repr(v) for v in r.dec]
                            + [repr(r.total)])
