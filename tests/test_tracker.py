"""Assignment, duplicate filtering, and track lifecycle."""
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dstrack.config import EngineConfig
from dstrack.datatypes import Box, Detection, Pose
from dstrack.evaluate import evaluate
from dstrack.heuristics import build_heuristic_model
from dstrack.synth import SCENARIOS, synth_sequence
from dstrack.tracker import (
    FrameResult,
    TrackerState,
    assign_and_filter,
    hungarian,
    run_sequence,
    step,
)
from dstrack.transformer import TrackingModel
from small_config import SMALL


def brute_force_assignment(cost: np.ndarray):
    """Exhaustive minimum-cost matching; reference for hungarian."""
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n == 0 or m == 0:
        return 0.0
    if n > m:
        return brute_force_assignment(cost.T)
    best = np.inf
    for perm in itertools.permutations(range(m), n):
        total = sum(cost[i, perm[i]] for i in range(n))
        best = min(best, total)
    return best


def tiny_cfg(**kw):
    base = dict(d=8, d_e=8, keypoint_count=4, oks_kappas=(0.1,) * 4,
                ffn_hidden=16, crop_height=16, crop_width=8, tau_age=3)
    base.update(kw)
    return EngineConfig(**base)


def make_detection(x, y, rng, k=4, size=20.0, d=8, appearance=None):
    coords = np.column_stack([
        np.clip(rng.normal(x + size / 2, 2.0, k), x, x + size),
        np.clip(rng.normal(y + size / 2, 2.0, k), y, y + size),
    ])
    return Detection(
        box=Box(x, y, x + size, y + size),
        pose=Pose(coords=coords, conf=np.ones(k), visible=np.ones(k, bool)),
        appearance=rng.standard_normal(d) if appearance is None else appearance,
    )


# ---------------------------------------------------------------------------
# hungarian

def test_hungarian_diagonal():
    cost = np.ones((3, 3)) - np.eye(3)
    pairs = hungarian(cost)
    assert sorted(pairs) == [(0, 0), (1, 1), (2, 2)]


def test_hungarian_single():
    assert hungarian(np.array([[3.0]])) == [(0, 0)]
    assert hungarian(np.zeros((0, 0))) == []


@pytest.mark.parametrize("seed", range(10))
def test_hungarian_matches_brute_force_square(seed):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0, 10, size=(5, 5))
    total = sum(cost[i, j] for i, j in hungarian(cost))
    assert total == pytest.approx(brute_force_assignment(cost), abs=1e-9)


@pytest.mark.parametrize("shape", [(2, 5), (5, 2), (1, 4), (4, 1), (3, 3)])
def test_hungarian_matches_brute_force_rectangular(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    cost = rng.uniform(0, 10, size=shape)
    pairs = hungarian(cost)
    assert len(pairs) == min(shape)
    total = sum(cost[i, j] for i, j in pairs)
    assert total == pytest.approx(brute_force_assignment(cost), abs=1e-9)


# ---------------------------------------------------------------------------
# assign_and_filter

def M(rows):
    """Rows given as track probabilities; null column appended to normalize."""
    rows = np.asarray(rows, dtype=np.float64)
    null = 1.0 - rows.sum(axis=1, keepdims=True)
    return np.concatenate([rows, null], axis=1)


def test_assign_identity_block():
    m = M([[0.9, 0.02], [0.03, 0.9]])
    matched, dup, new = assign_and_filter(m, tau_dup=0.4)
    assert sorted(matched) == [(0, 0), (1, 1)]
    assert dup == [] and new == []


def test_two_detections_one_track_higher_wins():
    # both claim the same single track, higher probability becomes the match
    m = M([[0.90], [0.92]])
    matched, dup, new = assign_and_filter(m, tau_dup=0.4)
    assert matched == [(1, 0)]
    assert dup == [0]
    assert new == []


def test_null_dominated_detection_is_new():
    m = M([[0.03]])  # null prob 0.97 dominates
    matched, dup, new = assign_and_filter(m, tau_dup=0.4)
    assert matched == [] and dup == [] and new == [0]


def test_no_tracks_everything_new():
    m = np.ones((3, 1))
    matched, dup, new = assign_and_filter(m, tau_dup=0.4)
    assert matched == [] and dup == [] and new == [0, 1, 2]


def test_tau_dup_one_never_marks_duplicates():
    m = M([[0.99], [0.99]])
    _, dup, new = assign_and_filter(m, tau_dup=1.0)
    assert dup == []
    assert new == [0] or new == [1]


def test_tau_dup_zero_marks_any_positive_overlap():
    m = M([[0.6, 0.1], [0.55, 0.05], [0.001, 0.0009]])
    matched, dup, new = assign_and_filter(m, tau_dup=0.0)
    # det 0 matches track 0; det 1 loses but has positive prob on a matched
    # track; det 2's probabilities are tiny but still > 0
    assert (0, 0) in matched
    assert 1 in dup and 2 in dup
    assert new == []


def test_duplicates_only_against_matched_tracks():
    # track 1 receives no match; det 1 is over-threshold only on track 1,
    # so it must open a new track instead of being suppressed
    m = M([[0.70, 0.01], [0.02, 0.10]])
    matched, dup, new = assign_and_filter(m, tau_dup=0.05)
    assert matched == [(0, 0)]
    assert dup == [] and new == [1]


def test_partition_property_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_det = rng.integers(0, 6)
        n_track = rng.integers(0, 6)
        raw = rng.uniform(size=(n_det, n_track + 1)) + 1e-6
        m = raw / raw.sum(axis=1, keepdims=True)
        matched, dup, new = assign_and_filter(m, tau_dup=float(rng.uniform()))
        seen = sorted([i for i, _ in matched] + dup + new)
        assert seen == list(range(n_det))
        tracks_used = [j for _, j in matched]
        assert len(tracks_used) == len(set(tracks_used))


@st.composite
def row_stochastic(draw):
    """A D x (T+1) row-stochastic matrix with strictly positive entries."""
    n_det = draw(st.integers(0, 6))
    n_track = draw(st.integers(0, 5))
    raw = draw(arrays(np.float64, (n_det, n_track + 1), elements=st.floats(1e-6, 1.0)))
    return raw / raw.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(row_stochastic(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_tau_dup_moves_only_unmatched_detections(m, tau_a, tau_b):
    # the matching ignores tau_dup; raising it can only turn duplicates
    # into new tracks, never the other way round
    lo, hi = sorted((tau_a, tau_b))
    matched_lo, dup_lo, new_lo = assign_and_filter(m, tau_dup=lo)
    matched_hi, dup_hi, new_hi = assign_and_filter(m, tau_dup=hi)
    assert matched_lo == matched_hi
    assert set(dup_hi) <= set(dup_lo)
    assert set(new_lo) <= set(new_hi)
    assert sorted([i for i, _ in matched_hi] + dup_hi + new_hi) == list(range(len(m)))


# ---------------------------------------------------------------------------
# step lifecycle

def test_first_frame_creates_distinct_tracks():
    model = TrackingModel(tiny_cfg(), seed=0)
    rng = np.random.default_rng(1)
    dets = [make_detection(40 * i, 0, rng) for i in range(3)]
    result, state, _ = step(TrackerState(), dets, model)
    assert result.assignments == [] and result.duplicates == []
    assert len(result.new_tracks) == 3
    ids = [tid for _, tid in result.new_tracks]
    assert len(set(ids)) == 3
    assert len(state.tracks) == 3
    assert result.detection_partition(3)


def test_empty_frame_ages_everyone():
    model = TrackingModel(tiny_cfg(), seed=0)
    rng = np.random.default_rng(2)
    dets = [make_detection(0, 0, rng), make_detection(50, 0, rng)]
    _, state, _ = step(TrackerState(), dets, model)
    result, state2, _ = step(state, [], model)
    assert result.assignments == [] and result.new_tracks == []
    assert all(t.frames_since_match == 1 for t in state2.tracks)


def test_wrong_keypoint_count_is_refused_on_its_frame():
    # the OKS kappas are per keypoint of the config; a 5-keypoint pose at an
    # 8-keypoint config is refused on arrival, not one frame later
    model = TrackingModel(SMALL, seed=0)
    det = make_detection(0, 0, np.random.default_rng(12), k=5, d=SMALL.d)
    with pytest.raises(ValueError, match="detection 0: pose has 5 keypoints"):
        step(TrackerState(), [det], model)


def test_closure_exactly_after_tau_age():
    cfg = tiny_cfg(tau_age=3)
    model = TrackingModel(cfg, seed=0)
    rng = np.random.default_rng(3)
    _, state, _ = step(TrackerState(), [make_detection(0, 0, rng)], model)
    tid = state.tracks[0].id
    for age in (1, 2, 3):
        result, state, _ = step(state, [], model)
        assert result.closed_tracks == []
        assert state.tracks[0].frames_since_match == age
    result, state, _ = step(state, [], model)  # age would reach 4 > 3
    assert result.closed_tracks == [tid]
    assert state.tracks == []


def test_ids_never_reused():
    model = TrackingModel(tiny_cfg(tau_age=0), seed=0)
    rng = np.random.default_rng(4)
    seen = set()
    state = TrackerState()
    for _ in range(5):
        dets = [make_detection(200 * i, 0, rng) for i in range(2)]
        result, state, _ = step(state, dets, model)
        for _, tid in result.new_tracks:
            assert tid not in seen
            seen.add(tid)
        _, state, _ = step(state, [], model)  # tau_age=0: ages out every track


def test_matched_track_adopts_detection_geometry():
    cfg = tiny_cfg()
    model = TrackingModel(cfg, seed=0)
    rng = np.random.default_rng(5)
    appearance = rng.standard_normal(8)
    det0 = make_detection(0, 0, rng, appearance=appearance)
    _, state, _ = step(TrackerState(), [det0], model)
    det1 = make_detection(3, 1, rng, appearance=appearance)
    result, state2, _ = step(state, [det1], model)
    if result.assignments:
        track = state2.tracks[0]
        assert track.last_box == det1.box
        assert (track.last_pose.coords == det1.pose.coords).all()
        assert track.frames_since_match == 0


def test_step_rejects_wrong_embedding_width():
    model = TrackingModel(tiny_cfg(), seed=0)
    rng = np.random.default_rng(6)
    det = make_detection(0, 0, rng, appearance=rng.standard_normal(5))
    with pytest.raises(ValueError, match="appearance embedding has length 5"):
        step(TrackerState(), [det], model)
    det = make_detection(0, 0, rng, appearance=rng.standard_normal((1, 8)))
    with pytest.raises(ValueError, match=r"appearance embedding has shape \(1, 8\)"):
        step(TrackerState(), [det], model)


def test_step_requires_appearance_or_backbone():
    model = TrackingModel(tiny_cfg(), seed=0)
    rng = np.random.default_rng(7)
    det = Detection(
        box=Box(0, 0, 20, 20),
        pose=Pose(coords=rng.uniform(0, 20, (4, 2)), conf=np.ones(4),
                  visible=np.ones(4, bool)),
    )
    with pytest.raises(RuntimeError, match="no backbone is configured"):
        step(TrackerState(), [det], model)


def test_step_names_the_detection_without_appearance_or_crop():
    # with a backbone, the fault is the detection, not the configuration
    cfg = tiny_cfg()
    model = TrackingModel(cfg, seed=0, with_backbone=True)
    rng = np.random.default_rng(9)
    pose = Pose(coords=rng.uniform(0, 20, (4, 2)), conf=np.ones(4), visible=np.ones(4, bool))
    dets = [Detection(box=Box(0, 0, 20, 40), pose=pose, crop=rng.uniform(size=(3, 16, 8))),
            Detection(box=Box(30, 0, 50, 40), pose=pose)]
    with pytest.raises(ValueError, match="detection 1: has neither an appearance "
                                         "vector nor a crop"):
        step(TrackerState(), dets, model)


def test_step_with_backbone_crops():
    cfg = tiny_cfg()
    model = TrackingModel(cfg, seed=0, with_backbone=True)
    rng = np.random.default_rng(8)
    det = Detection(
        box=Box(0, 0, 20, 40),
        pose=Pose(coords=rng.uniform(0, 20, (4, 2)), conf=np.ones(4),
                  visible=np.ones(4, bool)),
        crop=rng.uniform(size=(3, 16, 8)),
    )
    result, state, _ = step(TrackerState(), [det], model)
    assert len(state.tracks) == 1
    assert np.isfinite(state.tracks[0].embedding).all()


# ---------------------------------------------------------------------------
# detection-order equivariance of a whole step()

@functools.lru_cache(maxsize=None)
def small_heuristic_model():
    return build_heuristic_model(SMALL)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SCENARIOS), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_step_is_equivariant_in_detection_order(scenario, seed, perm_seed):
    # tracking every frame's detections in a shuffled order moves each
    # decision with its detection; only the ids handed to new tracks of the
    # same frame may trade places
    model = small_heuristic_model()
    frames = synth_sequence(scenario, seed=seed, cfg=SMALL).detection_frames()
    rng = np.random.default_rng(perm_seed)
    state, shuffled = TrackerState(), TrackerState()
    to_plain = {}  # shuffled-run track id -> plain-run track id
    for dets in frames:
        perm = [int(k) for k in rng.permutation(len(dets))]
        res, state, _ = step(state, dets, model)
        got, shuffled, _ = step(shuffled, [dets[k] for k in perm], model)

        plain_new = dict(res.new_tracks)
        assert sorted(perm[i] for i, _ in got.new_tracks) == sorted(plain_new)
        assert sorted(t for _, t in got.new_tracks) == sorted(plain_new.values())
        to_plain.update((t, plain_new[perm[i]]) for i, t in got.new_tracks)
        assert (sorted((perm[i], to_plain[t]) for i, t in got.assignments)
                == sorted(res.assignments))
        assert sorted(perm[i] for i in got.duplicates) == sorted(res.duplicates)
        assert sorted(to_plain[t] for t in got.closed_tracks) == sorted(res.closed_tracks)

        plain_tracks = {t.id: t for t in state.tracks}
        assert sorted(to_plain[t.id] for t in shuffled.tracks) == sorted(plain_tracks)
        for t in shuffled.tracks:
            twin = plain_tracks[to_plain[t.id]]
            assert (t.last_box, t.frames_since_match) == (twin.last_box, twin.frames_since_match)
            np.testing.assert_allclose(t.embedding, twin.embedding, rtol=1e-9, atol=1e-12)


def _hide_half_the_joints(seq, ident):
    """seq with identity `ident`'s first K/2 keypoints hidden (not visible,
    confidence 0) on every odd frame."""
    frames = []
    for fr in seq.frames:
        dets = list(fr.detections)
        for i, who in enumerate(fr.identities):
            if fr.index % 2 and who == ident:
                pose = dets[i].pose
                hidden = np.arange(pose.keypoint_count) < pose.keypoint_count // 2
                dets[i] = dataclasses.replace(dets[i], pose=Pose(
                    pose.coords, np.where(hidden, 0.0, pose.conf), pose.visible & ~hidden))
        frames.append(dataclasses.replace(fr, detections=dets))
    return dataclasses.replace(seq, frames=frames)


@pytest.mark.parametrize("scenario", ["crossing", "crowd"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_when_visible_joint_count_differs_between_frames(scenario, seed):
    # appearance is pure noise at separation 0, so geometry carries every
    # match, across frames where one person shows K or K/2 keypoints
    seq = _hide_half_the_joints(
        synth_sequence(scenario, seed=seed, cfg=SMALL, separation=0.0), ident=1)
    shown = {int(det.pose.visibility_mask().sum())
             for fr in seq.frames for det, who in zip(fr.detections, fr.identities) if who == 1}
    assert shown == {SMALL.keypoint_count, SMALL.keypoint_count // 2}
    results = [(i, r) for i, r, _ in run_sequence(seq.detection_frames(),
                                                  small_heuristic_model())]
    report = evaluate(results, seq)
    assert report.id_switches == 0
    assert report.mota_lite == 1.0


# ---------------------------------------------------------------------------
# short randomized fuzz (the long version lives in the acceptance suite)

def test_fuzz_partition_and_lifecycle_invariants():
    cfg = tiny_cfg(tau_age=2)
    model = TrackingModel(cfg, seed=0)
    rng = np.random.default_rng(9)
    state = TrackerState()
    issued = set()
    for frame in range(60):
        n = int(rng.integers(0, 5))
        dets = [make_detection(float(rng.uniform(0, 300)), float(rng.uniform(0, 300)), rng)
                for _ in range(n)]
        result, state, _ = step(state, dets, model)
        assert result.detection_partition(n)
        for _, tid in result.new_tracks:
            assert tid not in issued
            issued.add(tid)
        for t in state.tracks:
            assert t.frames_since_match <= cfg.tau_age
            assert np.isfinite(t.embedding).all()
        matched_per_frame = [tid for _, tid in result.assignments]
        assert len(matched_per_frame) == len(set(matched_per_frame))
