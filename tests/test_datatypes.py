import base64
import dataclasses
import json
import struct

import numpy as np
import pytest

from dstrack.datatypes import Box, Detection, Pose, Track


def make_pose(k=4, seed=0):
    rng = np.random.default_rng(seed)
    return Pose(
        coords=rng.uniform(0, 100, size=(k, 2)),
        conf=rng.uniform(0, 1, size=k),
        visible=rng.integers(0, 2, size=k).astype(bool),
    )


def test_box_validation():
    Box(0, 0, 10, 20)
    with pytest.raises(ValueError, match="x_min < x_max"):
        Box(5, 0, 5, 10)
    with pytest.raises(ValueError, match="y_min < y_max"):
        Box(0, 10, 5, 2)
    with pytest.raises(ValueError, match="finite"):
        Box(0, 0, np.inf, 10)


def test_box_area_and_shift():
    b = Box(1, 2, 4, 6)
    assert b.area == 12
    s = b.shifted(2, -1)
    assert (s.x_min, s.y_min, s.x_max, s.y_max) == (3, 1, 6, 5)


def test_pose_validation():
    with pytest.raises(ValueError, match="shape"):
        Pose(coords=np.zeros((3, 3)), conf=np.zeros(3), visible=np.zeros(3, bool))
    with pytest.raises(ValueError, match="finite"):
        Pose(coords=[[np.nan, 0.0]], conf=[0.5], visible=[True])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Pose(coords=[[0.0, 0.0]], conf=[1.5], visible=[True])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Pose(coords=[[0.0, 0.0], [1.0, 1.0]], conf=[0.5, np.nan], visible=[True, True])


def test_pose_arrays_are_read_only():
    p = make_pose()
    with pytest.raises(ValueError):
        p.coords[0, 0] = 99.0
    with pytest.raises(ValueError):
        p.conf[0] = 0.0


def test_visibility_mask_combines_flag_and_confidence():
    p = Pose(
        coords=np.zeros((3, 2)),
        conf=[0.0, 0.2, 0.01],
        visible=[True, False, False],
    )
    np.testing.assert_array_equal(p.visibility_mask(), [True, True, False])


def test_pose_shift():
    p = make_pose()
    q = p.shifted(5.0, -2.0)
    np.testing.assert_allclose(q.coords, p.coords + [5.0, -2.0])
    np.testing.assert_array_equal(q.visible, p.visible)


def test_detection_validation():
    pose = make_pose(k=3)
    box = Box(0, 0, 10, 10)
    with pytest.raises(ValueError, match="score"):
        Detection(box=box, pose=pose, score=2.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="appearance must be finite"):
            Detection(box=box, pose=pose, appearance=[0.0, bad, 1.0])
    for bad in (np.nan, np.inf):
        crop = np.zeros((3, 8, 4))
        crop[2, 5, 1] = bad
        with pytest.raises(ValueError, match="crop must be finite"):
            Detection(box=box, pose=pose, crop=crop)
    for shape in ((8, 4), (1, 8, 4), (4, 8, 4), (1, 3, 8, 4)):
        with pytest.raises(ValueError, match=r"crop must have shape \(3, H, W\)"):
            Detection(box=box, pose=pose, crop=np.zeros(shape))
    d = Detection(box=box, pose=pose, crop=np.zeros((3, 8, 4)))
    assert d.crop.shape == (3, 8, 4)


def test_track_validation():
    pose = make_pose()
    box = Box(0, 0, 10, 10)
    with pytest.raises(ValueError, match="finite"):
        Track(id=1, embedding=[np.inf, 0.0], last_pose=pose, last_box=box)
    with pytest.raises(ValueError, match="non-negative"):
        Track(id=1, embedding=[0.0], last_pose=pose, last_box=box, frames_since_match=-1)


def test_track_is_replace_friendly():
    t = Track(id=7, embedding=np.ones(4), last_pose=make_pose(), last_box=Box(0, 0, 1, 1))
    t2 = dataclasses.replace(t, frames_since_match=3)
    assert t2.frames_since_match == 3 and t.frames_since_match == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.frames_since_match = 9


@pytest.mark.parametrize("seed", range(3))
def test_detection_json_roundtrip_bit_identical(seed):
    rng = np.random.default_rng(seed)
    pose = make_pose(k=5, seed=seed)
    det = Detection(
        box=Box(*np.sort(rng.uniform(0, 50, 2)), *np.sort(rng.uniform(51, 100, 2))),
        pose=pose,
        score=float(rng.uniform()),
        appearance=rng.standard_normal(8),
        crop=rng.uniform(0, 1, size=(3, 4, 4)),
    )
    back = Detection.from_dict(json.loads(json.dumps(det.to_dict())))
    assert back.box == det.box
    assert (back.pose.coords == det.pose.coords).all()
    assert (back.pose.conf == det.pose.conf).all()
    assert (back.pose.visible == det.pose.visible).all()
    assert back.score == det.score
    assert (back.appearance == det.appearance).all()
    assert (back.crop == det.crop).all()


def test_packed_arrays_round_trip_bit_exact():
    big = np.finfo(np.float64).max
    edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, big, -big, 0.1]
    det = Detection(box=Box(0, 0, 1, 1), pose=make_pose(k=2),
                    appearance=edge,
                    crop=np.reshape(edge * 3, (3, 2, 4)))
    d = det.to_dict()
    # C-order little-endian float64 bytes, independent of the host's order
    assert d["appearance"] == {"shape": [8],
                               "f64le": base64.b64encode(struct.pack("<8d", *edge)).decode()}
    back = Detection.from_dict(json.loads(json.dumps(d)))
    for name in ("appearance", "crop"):
        a, b = getattr(det, name), getattr(back, name)
        assert a.shape == b.shape and a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def test_optional_fields_survive_roundtrip_absence():
    det = Detection(box=Box(0, 0, 1, 1), pose=make_pose(k=2))
    back = Detection.from_dict(json.loads(json.dumps(det.to_dict())))
    assert back.appearance is None
    assert back.crop is None
