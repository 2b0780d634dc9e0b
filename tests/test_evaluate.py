"""Evaluation metrics, including an independent recount oracle."""
import numpy as np
import pytest

from dstrack.config import EngineConfig
from dstrack.datatypes import Box, Detection, Pose
from dstrack.evaluate import check_results, evaluate
from dstrack.sequence_io import SequenceFile, SequenceFrame
from dstrack.tracker import FrameResult


def det_at(x, y, size=20.0):
    k = 3
    coords = np.column_stack([np.full(k, x + 5), np.linspace(y + 2, y + size - 2, k)])
    pose = Pose(coords=coords, conf=np.ones(k), visible=np.ones(k, bool))
    return Detection(box=Box(x, y, x + size, y + size), pose=pose)


def gt_two_identities(n_frames=5):
    frames = []
    for t in range(n_frames):
        frames.append(SequenceFrame(
            index=t, image_size=(128, 256),
            detections=[det_at(10.0 + 2 * t, 10.0), det_at(100.0 - 2 * t, 60.0)],
            identities=[7, 8]))
    return SequenceFile(sequence_id="eval", fps=30.0, frames=frames)


def perfect_results(n_frames=5):
    out = [(0, FrameResult(new_tracks=[(0, 0), (1, 1)]))]
    for t in range(1, n_frames):
        out.append((t, FrameResult(assignments=[(0, 0), (1, 1)])))
    return out


def test_perfect_tracking():
    gt = gt_two_identities()
    rep = evaluate(perfect_results(), gt)
    assert rep.id_switches == 0
    assert rep.association_accuracy == 1.0
    assert rep.mota_lite == 1.0
    assert rep.misses == 0 and rep.false_positives == 0
    assert rep.total_gt == 10
    assert all(p == 1.0 for p in rep.precision)
    assert all(r == 1.0 for r in rep.recall)


def test_fresh_id_every_frame_counts_f_minus_1_switches():
    n = 6
    gt = gt_two_identities(n)
    results = [(0, FrameResult(new_tracks=[(0, 0), (1, 100)]))]
    for t in range(1, n):
        # identity 7 keeps track 0; identity 8 gets a brand-new id each frame
        results.append((t, FrameResult(assignments=[(0, 0)],
                                       new_tracks=[(1, 100 + t)])))
    rep = evaluate(results, gt)
    assert rep.id_switches == n - 1 == len(rep.switches)
    want = [{"frame": t, "identity": 8, "from_track": 99 + t, "to_track": 100 + t}
            for t in range(1, n)]
    assert rep.switches == want
    assert rep.to_dict()["switches"] == want


def test_rename_invariance():
    gt = gt_two_identities()
    base = perfect_results()
    renamed = []
    mapping = {0: 31, 1: 17}
    for idx, res in base:
        renamed.append((idx, FrameResult(
            assignments=[(d, mapping[t]) for d, t in res.assignments],
            new_tracks=[(d, mapping[t]) for d, t in res.new_tracks])))
    a = evaluate(base, gt)
    b = evaluate(renamed, gt)
    assert a.to_dict() == b.to_dict()


def test_length_mismatch():
    gt = gt_two_identities(5)
    with pytest.raises(ValueError, match="frame count"):
        evaluate(perfect_results(4), gt)


def test_length_mismatch_names_both_counts():
    with pytest.raises(ValueError) as e:
        evaluate(perfect_results(1), gt_two_identities(3))
    assert str(e.value) == "frame count mismatch: results cover 1 frames, ground truth 3"


def test_check_results_wants_record_k_to_partition_frame_k():
    gt = gt_two_identities(4)
    check_results(perfect_results(4), gt)
    renumbered = [(3 - k, res) for k, res in perfect_results(4)]
    with pytest.raises(ValueError) as e:
        check_results(renumbered, gt)
    assert str(e.value) == "record 0 names frame 3, expected frame 0"
    # frame 1 leaves detection 1 out: evaluate() scores it as a miss,
    # check_results() refuses it
    partial = [(0, FrameResult(new_tracks=[(0, 0), (1, 1)])),
               (1, FrameResult(assignments=[(0, 0)]))]
    assert evaluate(partial, gt_two_identities(2)).misses == 1
    with pytest.raises(ValueError) as e:
        check_results(partial, gt_two_identities(2))
    assert str(e.value) == ("frame 1: detection 1 is missing from assignments, "
                            "duplicates and new_tracks")


@pytest.mark.parametrize("res, fault", [
    (FrameResult(assignments=[(0, 4)], duplicates=[2], new_tracks=[(1, 5)]), None),
    (FrameResult(assignments=[(0, 4)], duplicates=[2], new_tracks=[(3, 5)]),
     "detection index 3 is out of range, the frame has 3 detections"),
    (FrameResult(assignments=[(0, 4)], duplicates=[0, 2], new_tracks=[(1, 5)]),
     "detection 0 is listed 2 times in assignments, duplicates and new_tracks"),
    (FrameResult(assignments=[(0, 4)], new_tracks=[(1, 5)]),
     "detection 2 is missing from assignments, duplicates and new_tracks"),
])
def test_partition_fault_names_the_first_fault(res, fault):
    assert res.partition_fault(3) == fault
    assert res.detection_partition(3) is (fault is None)


def test_miss_and_false_positive_accounting():
    gt = gt_two_identities(2)
    # frame 0: only identity 7 claimed; frame 1: extra claim on a det that
    # does not overlap any gt (the tracker "hallucinates" via duplicate det)
    frames = gt.frames
    frames[1] = SequenceFrame(
        index=1, image_size=(128, 256),
        detections=list(frames[1].detections) + [det_at(200.0, 100.0)],
        identities=list(frames[1].identities) + [None])
    results = [(0, FrameResult(new_tracks=[(0, 0)])),
               (1, FrameResult(assignments=[(0, 0), (1, 1)], new_tracks=[(2, 2)]))]
    rep = evaluate(results, gt)
    assert rep.misses == 1              # identity 8 unclaimed in frame 0
    assert rep.false_positives == 1     # the far-away claim in frame 1
    assert rep.total_gt == 4
    assert rep.mota_lite == pytest.approx(1.0 - 2 / 4)
    assert rep.precision[1] == pytest.approx(2 / 3)
    assert rep.recall[0] == pytest.approx(1 / 2)


def test_duplicate_detections_not_counted_as_gt():
    gt = gt_two_identities(2)
    dup = det_at(11.0, 10.0)
    gt.frames[1] = SequenceFrame(
        index=1, image_size=(128, 256),
        detections=list(gt.frames[1].detections) + [dup],
        identities=list(gt.frames[1].identities) + [7],
        duplicates=(2,))
    results = [(0, FrameResult(new_tracks=[(0, 0), (1, 1)])),
               (1, FrameResult(assignments=[(0, 0), (1, 1)], duplicates=[2]))]
    rep = evaluate(results, gt)
    assert rep.total_gt == 4
    assert rep.misses == 0 and rep.false_positives == 0
    assert rep.mota_lite == 1.0


def test_interrupted_identity_no_switch_when_id_stable():
    # identity matched on frames 0, 2 (gap at 1) keeps the same track id
    gt = gt_two_identities(3)
    results = [(0, FrameResult(new_tracks=[(0, 0), (1, 1)])),
               (1, FrameResult(assignments=[(0, 0)])),
               (2, FrameResult(assignments=[(0, 0), (1, 1)]))]
    rep = evaluate(results, gt)
    assert rep.id_switches == 0
    assert rep.misses == 1


# ---------------------------------------------------------------------------
# independent recount oracle

def recount_oracle(results, gt):
    """Metric recount with plain dict loops, structured differently from the
    implementation: per-frame greedy matching on identical boxes."""
    ident_tracks = {}
    misses = fps = total = 0
    for (_, res), fr in zip(results, gt.frames):
        claims = dict(res.assignments + res.new_tracks)  # det idx -> track id
        gt_idents = {i: ident for i, ident in enumerate(fr.identities)
                     if ident is not None and i not in fr.duplicates}
        total += len(gt_idents)
        for i, ident in gt_idents.items():
            if i in claims:  # boxes coincide in this construction
                ident_tracks.setdefault(ident, []).append(claims[i])
            else:
                misses += 1
        fps += len([i for i in claims if i not in gt_idents])
    switches = sum(sum(1 for a, b in zip(seq, seq[1:]) if a != b)
                   for seq in ident_tracks.values())
    agree = matched = 0
    for seq in ident_tracks.values():
        counts = {}
        for t in seq:
            counts[t] = counts.get(t, 0) + 1
        best = max(sorted(counts), key=lambda k: counts[k])
        agree += counts[best]
        matched += len(seq)
    acc = agree / matched if matched else (1.0 if total == 0 else 0.0)
    mota = 1.0 - (misses + fps + switches) / total if total else 1.0
    return switches, acc, mota, misses, fps


@pytest.mark.parametrize("seed", range(10))
def test_random_cases_match_recount_oracle(seed):
    rng = np.random.default_rng(seed)
    n_frames, n_ident = 8, 3
    frames, results = [], []
    track_ids = {}
    next_id = 0
    for t in range(n_frames):
        dets, idents = [], []
        assignments, new_tracks = [], []
        for ident in range(n_ident):
            if rng.uniform() < 0.2:
                continue  # missed by detector / absent
            dets.append(det_at(40.0 * ident + float(t), 30.0 * ident))
            idents.append(ident)
            di = len(dets) - 1
            if rng.uniform() < 0.25 or ident not in track_ids:
                track_ids[ident] = next_id
                new_tracks.append((di, next_id))
                next_id += 1
            elif rng.uniform() < 0.85:
                assignments.append((di, track_ids[ident]))
            # else: tracker missed it this frame
        frames.append(SequenceFrame(index=t, image_size=(128, 256),
                                    detections=dets, identities=idents))
        results.append((t, FrameResult(assignments=assignments,
                                       new_tracks=new_tracks)))
    gt = SequenceFile(sequence_id="rand", fps=30.0, frames=frames)
    rep = evaluate(results, gt)
    switches, acc, mota, misses, fps = recount_oracle(results, gt)
    assert rep.id_switches == switches
    assert rep.association_accuracy == pytest.approx(acc)
    assert rep.mota_lite == pytest.approx(mota)
    assert rep.misses == misses
    assert rep.false_positives == fps
