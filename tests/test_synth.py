"""Scenario generator properties."""
import numpy as np
import pytest

from dstrack.config import EngineConfig
from dstrack.sequence_io import SequenceFile, load_sequence, save_sequence
from dstrack.synth import SCENARIOS, synth_sequence
from small_config import SMALL as CFG
from test_geometry import iou


def crossing_frame(seq: SequenceFile) -> int:
    """Frame where the two crossing boxes are closest."""
    gaps = []
    for fr in seq.frames:
        c = [0.5 * (d.box.x_min + d.box.x_max) for d in fr.detections[:2]]
        gaps.append(abs(c[0] - c[1]))
    return int(np.argmin(gaps))


def occlusion_window(seq: SequenceFile, ident: int = 1):
    """[start, end) frame range where `ident` is absent."""
    absent = [fr.index for fr in seq.frames if ident not in fr.identities]
    return (absent[0], absent[-1] + 1) if absent else (0, 0)


def test_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        synth_sequence("teleport", seed=0, cfg=CFG)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_deterministic_under_seed(scenario, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_sequence(synth_sequence(scenario, seed=11, cfg=CFG), p1)
    save_sequence(synth_sequence(scenario, seed=11, cfg=CFG), p2)
    assert p1.read_bytes() == p2.read_bytes()
    save_sequence(synth_sequence(scenario, seed=12, cfg=CFG), p2)
    assert p1.read_bytes() != p2.read_bytes()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_output_passes_file_validation(scenario, tmp_path):
    path = tmp_path / "s.json"
    save_sequence(synth_sequence(scenario, seed=0, cfg=CFG), path)
    seq = load_sequence(path)
    assert len(seq.frames) > 0
    assert seq.frames[0].detections[0].pose.keypoint_count == CFG.keypoint_count


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_one_frame_sequence(scenario):
    seq = synth_sequence(scenario, n_frames=1, seed=0, cfg=CFG)
    assert [fr.index for fr in seq.frames] == [0]
    assert seq.frames[0].detections


def test_crossing_boxes_swap_with_high_iou():
    seq = synth_sequence("crossing", seed=0, cfg=CFG)
    k = crossing_frame(seq)
    assert 0 < k < len(seq.frames) - 1
    prev, cur = seq.frames[k - 1], seq.frames[k]
    assert iou(cur.detections[0].box, prev.detections[1].box) > 0.5
    assert iou(cur.detections[1].box, prev.detections[0].box) > 0.5
    # identities really swap sides over the sequence
    first, last = seq.frames[0], seq.frames[-1]
    x0 = [0.5 * (d.box.x_min + d.box.x_max) for d in first.detections]
    x1 = [0.5 * (d.box.x_min + d.box.x_max) for d in last.detections]
    assert (x0[0] - x0[1]) * (x1[0] - x1[1]) < 0


def test_occlusion_gap_exact():
    seq = synth_sequence("occlusion", seed=3, cfg=CFG, gap=10)
    start, end = occlusion_window(seq, ident=1)
    assert end - start == 10
    for fr in seq.frames:
        if start <= fr.index < end:
            assert 1 not in fr.identities
        else:
            assert 1 in fr.identities
        assert 0 in fr.identities


def test_occlusion_reappears_displaced():
    seq = synth_sequence("occlusion", seed=3, cfg=CFG, gap=10)
    start, end = occlusion_window(seq, ident=1)
    def box_of(fr):
        return fr.detections[fr.identities.index(1)].box
    before = box_of(seq.frames[start - 1])
    after = next(box_of(fr) for fr in seq.frames if fr.index == end)
    assert iou(before, after) == 0.0


def test_duplicates_flags_and_identity():
    seq = synth_sequence("duplicates", seed=1, cfg=CFG, duplicate_prob=0.6)
    flagged = 0
    for fr in seq.frames:
        assert not (fr.index == 0 and fr.duplicates)
        for idx in fr.duplicates:
            flagged += 1
            assert 0 <= idx < len(fr.detections)
            ident = fr.identities[idx]
            others = [fr.identities[i] for i in range(len(fr.detections)) if i != idx]
            assert ident in others  # inherits an existing identity
    assert flagged > 0


def test_duplicate_box_is_jittered_copy():
    seq = synth_sequence("duplicates", seed=1, cfg=CFG, duplicate_prob=1.0)
    fr = next(fr for fr in seq.frames if fr.duplicates)
    idx = fr.duplicates[0]
    ident = fr.identities[idx]
    src = fr.detections[fr.identities.index(ident)]
    dup = fr.detections[idx]
    assert iou(src.box, dup.box) > 0.5
    assert dup.box != src.box


def test_crowd_eight_identities_overlap():
    seq = synth_sequence("crowd", seed=0, cfg=CFG)
    for fr in seq.frames:
        assert sorted(fr.identities) == list(range(8))
        overlaps = 0
        for i in range(8):
            for j in range(i + 1, 8):
                if iou(fr.detections[i].box, fr.detections[j].box) > 0:
                    overlaps += 1
        assert overlaps >= 3


def test_separation_controls_appearance_clusters():
    wide = synth_sequence("crowd", seed=0, cfg=CFG, separation=6.0)
    none = synth_sequence("crowd", seed=0, cfg=CFG, separation=0.0)

    def gap_ratio(seq):
        """Smallest cross-identity distance over largest within-identity
        distance; > 1 means clusters are separable."""
        by_ident = {}
        for fr in seq.frames:
            for det, ident in zip(fr.detections, fr.identities):
                by_ident.setdefault(ident, []).append(det.appearance)
        centers = {k: np.mean(v, axis=0) for k, v in by_ident.items()}
        within = max(np.linalg.norm(a - centers[k], axis=-1).max()
                     for k, v in by_ident.items() for a in [np.array(v)])
        cross = min(np.linalg.norm(centers[i] - centers[j])
                    for i in centers for j in centers if i < j)
        return cross / within
    assert gap_ratio(wide) > 2.0
    assert gap_ratio(none) < 1.0


def test_appearance_dimension_follows_config():
    seq = synth_sequence("crossing", seed=0, cfg=CFG)
    det = seq.frames[0].detections[0]
    assert det.appearance.shape == (CFG.d,)


def test_more_identities_than_dims_still_works():
    tiny = EngineConfig(d=4, d_e=4, keypoint_count=8, oks_kappas=(0.08,) * 8,
                        ffn_hidden=8)
    seq = synth_sequence("crowd", seed=0, cfg=tiny)
    assert len(seq.frames[0].detections) == 8
