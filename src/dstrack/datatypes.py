"""Immutable value types shared across the engine.

Everything here is a frozen dataclass; array fields are numpy arrays marked
read-only at construction.  The tracker replaces instances rather than
mutating them.  to_dict/from_dict round-trip through JSON without losing a
single bit: scalars serialize via repr, which is exact for float64, and a
detection's arrays as their little-endian float64 bytes in base64.
"""
from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

VISIBILITY_CONF_FLOOR = 0.05


def _frozen_array(x, dtype=np.float64) -> np.ndarray:
    """x as a read-only array that nothing else can write: a copy, unless x
    already views immutable bytes, as a packed array decodes."""
    if isinstance(x, np.ndarray) and not x.flags.writeable and x.dtype == dtype:
        base = x.base
        while isinstance(base, np.ndarray):
            base = base.base
        if isinstance(base, bytes):
            return x
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _pack_array(arr: np.ndarray) -> dict:
    """{"shape": [...], "f64le": base64 of the C-order little-endian float64 bytes}."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "f64le": base64.b64encode(raw).decode("ascii")}


def _array_field(d: dict, name: str):
    """The array under d[name]: a packed object as _pack_array writes it,
    or a nested list (hand-written and schema-1 files); None if absent."""
    value = d.get(name)
    if value is None:
        return None
    if isinstance(value, list):
        try:
            return np.array(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as e:  # ragged, or a non-number inside
            raise ValueError(f"{name}: {e}") from None
    if not isinstance(value, dict) or set(value) != {"shape", "f64le"}:
        raise ValueError(f"{name} must be a nested list or an object with exactly "
                         "'shape' and 'f64le'")
    shape = value["shape"]
    if not (isinstance(shape, list) and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
        raise ValueError(f"{name}: shape must be a list of non-negative integers, "
                         f"got {shape!r}")
    packed = value["f64le"]
    if not isinstance(packed, str):
        raise ValueError(f"{name}: f64le must be a base64 string")
    try:
        raw = base64.b64decode(packed, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{name}: f64le is not valid base64") from None
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise ValueError(f"{name}: f64le holds {len(raw)} bytes, shape {shape} needs {need}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


@dataclass(frozen=True)
class Box:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for v in (self.x_min, self.y_min, self.x_max, self.y_max):
            try:
                finite = math.isfinite(v)
            except (TypeError, OverflowError):  # not a number, or an int past the float range
                finite = False
            if not finite:
                raise ValueError(f"box coordinates must be finite numbers, got {v!r}")
        if not (self.x_min < self.x_max):
            raise ValueError("box needs x_min < x_max")
        if not (self.y_min < self.y_max):
            raise ValueError("box needs y_min < y_max")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def shifted(self, dx: float, dy: float) -> "Box":
        return Box(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)

    def to_dict(self) -> dict:
        return {
            "x_min": float(self.x_min),
            "y_min": float(self.y_min),
            "x_max": float(self.x_max),
            "y_max": float(self.y_max),
        }

    @staticmethod
    def from_dict(d: dict) -> "Box":
        return Box(d["x_min"], d["y_min"], d["x_max"], d["y_max"])


@dataclass(frozen=True)
class Pose:
    """K keypoints: (K,2) coordinates, (K,) confidences, (K,) visible flags."""

    coords: np.ndarray
    conf: np.ndarray
    visible: np.ndarray

    def __post_init__(self):
        coords = _frozen_array(self.coords)
        conf = _frozen_array(self.conf)
        vis = _frozen_array(self.visible, dtype=bool)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("pose coords must have shape (K, 2)")
        k = coords.shape[0]
        if conf.shape != (k,) or vis.shape != (k,):
            raise ValueError("pose conf/visible must have shape (K,)")
        if not np.isfinite(coords).all():
            raise ValueError("pose coordinates must be finite")
        # a Python loop, as K is small: numpy's three ufuncs cost 3x as much
        if not all(0.0 <= c <= 1.0 for c in conf.tolist()):  # NaN fails both bounds
            raise ValueError("pose confidences must lie in [0, 1]")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "conf", conf)
        object.__setattr__(self, "visible", vis)

    @property
    def keypoint_count(self) -> int:
        return self.coords.shape[0]

    def visibility_mask(self) -> np.ndarray:
        """A keypoint counts as present if flagged visible or confidently detected."""
        return self.visible | (self.conf > VISIBILITY_CONF_FLOOR)

    def shifted(self, dx: float, dy: float) -> "Pose":
        return Pose(self.coords + np.array([dx, dy]), self.conf, self.visible)

    def to_dict(self) -> dict:
        return {
            "keypoints": [
                [float(x), float(y), float(c), bool(v)]
                for (x, y), c, v in zip(self.coords, self.conf, self.visible)
            ]
        }

    @staticmethod
    def from_dict(d: dict) -> "Pose":
        try:
            rows = np.array(d["keypoints"])
        except ValueError as e:  # ragged
            raise ValueError(f"pose keypoints: {e}") from None
        if rows.dtype.kind not in "biuf":  # a string, null or integer past the float range
            raise ValueError("pose keypoints must all be numbers")
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise ValueError("pose keypoints must be rows of [x, y, confidence, visible], "
                             f"got shape {rows.shape}")
        # json reads NaN and Infinity, and either != 0 would read as visible;
        # Pose checks the other columns.  math: half a numpy check's cost
        if not all(map(math.isfinite, rows[:, 3].tolist())):
            raise ValueError("pose visible flags must be finite")
        return Pose(coords=rows[:, :2], conf=rows[:, 2], visible=rows[:, 3] != 0.0)


@dataclass(frozen=True)
class Detection:
    box: Box
    pose: Pose
    score: float = 1.0
    appearance: Optional[np.ndarray] = None      # precomputed embedding, length d
    crop: Optional[np.ndarray] = None            # (3, H, W) image patch for the backbone

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError("detection score must lie in [0, 1]")
        if self.appearance is not None:
            appearance = _frozen_array(self.appearance)
            if not np.isfinite(appearance).all():
                raise ValueError("detection appearance must be finite")
            object.__setattr__(self, "appearance", appearance)
        if self.crop is not None:
            crop = _frozen_array(self.crop)
            if crop.ndim != 3 or crop.shape[0] != 3:
                raise ValueError("crop must have shape (3, H, W)")
            if not np.isfinite(crop).all():
                raise ValueError("detection crop must be finite")
            object.__setattr__(self, "crop", crop)

    def to_dict(self) -> dict:
        out = {
            "box": self.box.to_dict(),
            "pose": self.pose.to_dict(),
            "score": float(self.score),
        }
        for name in ("appearance", "crop"):
            arr = getattr(self, name)
            if arr is not None:
                out[name] = _pack_array(arr)
        return out

    @staticmethod
    def from_dict(d: dict) -> "Detection":
        return Detection(
            box=Box.from_dict(d["box"]),
            pose=Pose.from_dict(d["pose"]),
            score=d.get("score", 1.0),
            appearance=_array_field(d, "appearance"),
            crop=_array_field(d, "crop"),
        )


@dataclass(frozen=True)
class Track:
    """A track's id, the pose and box of its last matched detection, and how
    many frames it has gone unmatched since.  Its embedding is its row of
    the TrackerState's embedding matrix."""

    id: int
    last_pose: Pose
    last_box: Box
    frames_since_match: int = 0

    def __post_init__(self):
        if self.frames_since_match < 0:
            raise ValueError("frames_since_match must be non-negative")
