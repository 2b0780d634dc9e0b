"""Sequence file schema, results JSONL, and loss CSV."""
import base64
import csv
import json
import warnings

import numpy as np
import pytest

from dstrack.datatypes import Box, Detection, Pose
from dstrack.sequence_io import (
    SequenceFile,
    SequenceFrame,
    load_sequence,
    read_results_jsonl,
    result_from_dict,
    result_to_dict,
    save_sequence,
    write_loss_csv,
    write_results_jsonl,
)
from dstrack.tracker import FrameResult
from dstrack.training import LossRow


def one_detection(x=10.0, k=4):
    coords = np.column_stack([np.full(k, x), np.linspace(20, 60, k)])
    pose = Pose(coords=coords, conf=np.full(k, 0.9), visible=np.ones(k, bool))
    return Detection(box=Box(x, 20.0, x + 30.0, 80.0), pose=pose,
                     appearance=np.array([0.1, -0.7, 2.5]))


def sample_sequence():
    frames = [
        SequenceFrame(index=0, image_size=(128, 256),
                      detections=[one_detection(10.0)], identities=[3]),
        SequenceFrame(index=2, image_size=(128, 256),
                      detections=[one_detection(14.0), one_detection(15.0)],
                      identities=[3, None], duplicates=(1,)),
    ]
    return SequenceFile(sequence_id="unit", fps=25.0, frames=frames)


def test_round_trip(tmp_path):
    path = tmp_path / "seq.json"
    seq = sample_sequence()
    save_sequence(seq, path)
    back = load_sequence(path)
    assert back.sequence_id == "unit"
    assert back.fps == 25.0
    assert [f.index for f in back.frames] == [0, 2]
    assert back.frames[1].duplicates == (1,)
    assert back.frames[1].identities == [3, None]
    a = seq.frames[0].detections[0]
    b = back.frames[0].detections[0]
    assert b.box == a.box
    np.testing.assert_array_equal(b.pose.coords, a.pose.coords)
    np.testing.assert_array_equal(b.appearance, a.appearance)
    assert b.pose.keypoint_count == 4


def test_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_sequence(sample_sequence(), p1)
    save_sequence(sample_sequence(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def array_sequence():
    """Two frames whose detections carry both array fields."""
    rng = np.random.default_rng(0)
    frames = []
    for t in range(2):
        dets = [Detection(box=d.box, pose=d.pose, appearance=rng.standard_normal(3),
                          crop=rng.standard_normal((3, 2, 3)))
                for d in (one_detection(10.0 + t), one_detection(50.0 + t))]
        frames.append(SequenceFrame(index=t, image_size=(128, 256), detections=dets,
                                    identities=[0, 1]))
    return SequenceFile(sequence_id="arrays", fps=25.0, frames=frames)


ARRAY_FIELDS = ("appearance", "crop")


def test_save_load_save_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_sequence(array_sequence(), p1)
    save_sequence(load_sequence(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_list_form_version_1_file_loads_like_its_packed_twin(tmp_path):
    packed = tmp_path / "packed.json"
    save_sequence(array_sequence(), packed)
    doc = json.loads(packed.read_text())
    assert doc["schema_version"] == 2
    doc["schema_version"] = 1
    for fr in doc["frames"]:
        for det in fr["detections"]:
            for name in ARRAY_FIELDS:
                raw = base64.b64decode(det[name]["f64le"])
                det[name] = np.frombuffer(raw, "<f8").reshape(det[name]["shape"]).tolist()
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(doc))
    for fa, fb in zip(load_sequence(packed).frames, load_sequence(listed).frames):
        for da, db in zip(fa.detections, fb.detections):
            for name in ARRAY_FIELDS:
                a, b = getattr(da, name), getattr(db, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_minimal_single_frame_file(tmp_path):
    path = tmp_path / "m.json"
    doc = {"schema_version": 1, "frames": [
        {"index": 0, "image_size": [64, 64],
         "detections": [one_detection().to_dict()]}]}
    path.write_text(json.dumps(doc))
    seq = load_sequence(path)
    assert len(seq.frames) == 1
    assert seq.frames[0].identities == [None]


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed JSON"):
        load_sequence(path)


@pytest.mark.parametrize("frames, message", [
    ({"0": {}}, "top-level frames list"),
    ([{"image_size": [64, 64]}], "frame 0 in the frames list needs an index"),
    (["frame"], "frame 0 in the frames list needs an index"),
])
def test_malformed_frames_list(tmp_path, frames, message):
    path = tmp_path / "frames.json"
    path.write_text(json.dumps({"schema_version": 1, "frames": frames}))
    with pytest.raises(ValueError, match=message):
        load_sequence(path)


def two_detection_frame(**fields):
    """A one-frame schema-2 document whose frame has two detections and
    the given fields on top."""
    frame = {"index": 0, "image_size": [64, 64],
             "detections": [one_detection(10.0).to_dict(), one_detection(40.0).to_dict()]}
    frame.update(fields)
    return {"schema_version": 2, "frames": [frame]}


INT_MSG = "expected an integer, got"
DUP_MSG = "frame 0: duplicates must be distinct indices of the frame's 2 detections, got"


# int() would round 2.7 down, parse "3" and read true as 1
@pytest.mark.parametrize("fields, message", [
    ({"index": 2.7}, f"frame 0 in the frames list: index: {INT_MSG} 2.7"),
    ({"index": "3"}, f"frame 0 in the frames list: index: {INT_MSG} '3'"),
    ({"index": True}, f"frame 0 in the frames list: index: {INT_MSG} True"),
    ({"image_size": ["64", 64]}, f"frame 0: image_size: {INT_MSG} '64'"),
    ({"image_size": [64, 63.5]}, f"frame 0: image_size: {INT_MSG} 63.5"),
    ({"duplicates": [99]}, f"{DUP_MSG} [99]"),
    ({"duplicates": [-1]}, f"{DUP_MSG} [-1]"),
    ({"duplicates": [2]}, f"{DUP_MSG} [2]"),
    ({"duplicates": ["1"]}, f"{DUP_MSG} ['1']"),
    ({"duplicates": [1.0]}, f"{DUP_MSG} [1.0]"),
    ({"duplicates": [True]}, f"{DUP_MSG} [True]"),
    ({"duplicates": [0, 0]}, f"{DUP_MSG} [0, 0]"),
], ids=["index_fraction", "index_string", "index_bool", "image_size_string",
        "image_size_fraction", "duplicate_past_detections", "duplicate_negative",
        "duplicate_one_past_detections", "duplicate_string", "duplicate_float",
        "duplicate_bool", "duplicate_twice"])
def test_frame_integers_must_be_json_integers(tmp_path, fields, message):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(two_detection_frame(**fields)))
    with pytest.raises(ValueError) as e:
        load_sequence(path)
    assert str(e.value) == message


def test_every_detection_of_a_frame_may_be_a_duplicate(tmp_path):
    path = tmp_path / "dups.json"
    path.write_text(json.dumps(two_detection_frame(index=5, duplicates=[1, 0])))
    frame = load_sequence(path).frames[0]
    assert (frame.index, frame.duplicates) == (5, (1, 0))


def test_non_monotone_frames(tmp_path):
    path = tmp_path / "order.json"
    doc = {"schema_version": 1, "frames": [
        {"index": 1, "image_size": [64, 64], "detections": []},
        {"index": 0, "image_size": [64, 64], "detections": []}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="non-monotone frame index"):
        load_sequence(path)


def test_inconsistent_keypoint_count(tmp_path):
    path = tmp_path / "k.json"
    doc = {"schema_version": 1, "frames": [
        {"index": 0, "image_size": [64, 64],
         "detections": [one_detection(k=4).to_dict()]},
        {"index": 1, "image_size": [64, 64],
         "detections": [one_detection(k=5).to_dict()]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="inconsistent keypoint count"):
        load_sequence(path)


def test_non_monotone_frame_index_names_the_frame(tmp_path):
    path = tmp_path / "mono.json"
    doc = {"schema_version": 1, "frames": [
        {"index": i, "image_size": [64, 64], "detections": []} for i in (0, 1, 1)]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as e:
        load_sequence(path)
    assert str(e.value) == "frame 2 in the frames list: non-monotone frame index, 1 after 1"


def test_inconsistent_keypoint_count_names_the_detection_and_both_counts(tmp_path):
    path = tmp_path / "kp.json"
    frames = [[one_detection(k=8), one_detection(k=8)] for _ in range(3)]
    frames[2][1] = one_detection(k=4)
    doc = {"schema_version": 1, "frames": [
        {"index": i, "image_size": [64, 64], "detections": [d.to_dict() for d in dets]}
        for i, dets in enumerate(frames)]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as e:
        load_sequence(path)
    assert str(e.value) == ("frame 2, detection 1: inconsistent keypoint count, "
                            "4 where earlier poses have 8")


def test_unknown_fields_warn_but_parse(tmp_path):
    path = tmp_path / "extra.json"
    det = one_detection().to_dict()
    det["confidence_source"] = "detector-x"
    doc = {"schema_version": 1, "camera": "cam0", "frames": [
        {"index": 0, "image_size": [64, 64], "weather": "rain",
         "detections": [det]}]}
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seq = load_sequence(path)
    messages = " ".join(str(w.message) for w in caught)
    assert "camera" in messages and "weather" in messages
    assert "confidence_source" in messages
    assert len(seq.frames[0].detections) == 1


def test_unknown_schema_version(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"schema_version": 99, "frames": []}))
    with pytest.raises(ValueError, match="schema version"):
        load_sequence(path)


# ---------------------------------------------------------------------------
# results JSONL

def test_result_dict_round_trip():
    res = FrameResult(assignments=[(0, 5), (2, 1)], duplicates=[1],
                      new_tracks=[(3, 7)], closed_tracks=[4])
    idx, back = result_from_dict(result_to_dict(9, res))
    assert idx == 9
    assert back.assignments == [(0, 5), (2, 1)]
    assert back.duplicates == [1]
    assert back.new_tracks == [(3, 7)]
    assert back.closed_tracks == [4]


def test_results_jsonl_round_trip(tmp_path):
    path = tmp_path / "r.jsonl"
    rows = [(0, FrameResult(new_tracks=[(0, 0)])),
            (1, FrameResult(assignments=[(0, 0)], duplicates=[1]))]
    write_results_jsonl(rows, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    back = read_results_jsonl(path)
    assert back[1][1].duplicates == [1]
    assert back[0][1].new_tracks == [(0, 0)]


# ---------------------------------------------------------------------------
# loss CSV

def test_loss_csv_layout(tmp_path):
    path = tmp_path / "loss.csv"
    rows = [LossRow(iteration=0, match=1.5, enc=[0.2, 0.3], dec=[0.1, 0.4], total=2.5, lr=1e-4),
            LossRow(iteration=1, match=1.0, enc=[0.1, 0.2], dec=[0.1, 0.1], total=1.5, lr=2e-4)]
    write_loss_csv(rows, path)
    with open(path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["iteration", "match", "enc0", "enc1", "dec0", "dec1", "total", "lr"]
    assert float(parsed[1][1]) == 1.5
    assert float(parsed[2][-2]) == 1.5
    assert float(parsed[2][-1]) == 2e-4
    assert len(parsed) == 3
