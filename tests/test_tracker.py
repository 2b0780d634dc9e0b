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
from dstrack.datatypes import Box, Detection, Pose, Track
from dstrack.evaluate import evaluate
from dstrack.heuristics import build_heuristic_model
from dstrack.synth import SCENARIOS, synth_sequence
from dstrack.tracker import (
    FORBIDDEN_COST,
    LOG_EPS,
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


def _scipy_pairs(cost):
    optimize = pytest.importorskip("scipy.optimize")
    rows, cols = optimize.linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


def _cost_of_kind(kind, shape, rng):
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "integer_ties":
        return rng.integers(0, 3, size=shape).astype(np.float64)
    if kind == "forbidden_mix":
        cost = -np.log(rng.uniform(size=shape) + LOG_EPS)
        cost[rng.uniform(size=shape) < 0.5] = FORBIDDEN_COST
        return cost
    if kind == "decimal_ties":
        # tenths are inexact in binary, so equal sums tie only up to
        # rounding, and the pairs depend on the order of the float operations
        cost = np.round(rng.uniform(size=shape), 1)
        cost[rng.uniform(size=shape) < 0.3] = FORBIDDEN_COST
        return cost
    return np.full(shape, float(rng.integers(-2, 3)))


@pytest.mark.parametrize("kind", ["gaussian", "integer_ties", "forbidden_mix",
                                  "decimal_ties", "constant"])
def test_hungarian_returns_scipys_pairs(kind):
    # the same pairs, not only the same total: ties are broken as scipy does
    rng = np.random.default_rng(len(kind))
    for shape in itertools.product(range(1, 9), repeat=2):
        for _ in range(64):
            cost = _cost_of_kind(kind, shape, rng)
            assert hungarian(cost) == _scipy_pairs(cost), (shape, cost)


def test_hungarian_returns_scipys_pairs_on_a_crowd_frame():
    # 16 detections, 17 tracks: each detection is allowed only near its own
    # track, as in a crowd frame after the null-column rule
    rng = np.random.default_rng(16)
    cost = np.full((16, 17), FORBIDDEN_COST)
    for i in range(16):
        near = [j for j in (i - 1, i, i + 1) if 0 <= j < 17 and rng.uniform() < 0.8]
        cost[i, near] = -np.log(rng.uniform(0.05, 1.0, size=len(near)))
    for c in (cost, cost.T):
        assert hungarian(c) == _scipy_pairs(c)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_hungarian_refuses_nan_and_minus_inf(bad):
    for shape in [(3, 3), (2, 4), (4, 2)]:
        cost = np.ones(shape)
        cost[1, 1] = bad
        with pytest.raises(ValueError, match="NaN or -inf"):
            hungarian(cost)


@pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
def test_hungarian_refuses_a_row_of_plus_inf(shape):
    cost = np.ones(shape)
    cost[1] = np.inf
    with pytest.raises(ValueError, match="infeasible"):
        hungarian(cost)


def test_hungarian_takes_plus_inf_a_finite_assignment_avoids():
    cost = np.array([[np.inf, 1.0, 5.0], [2.0, np.inf, np.inf], [np.inf, 3.0, np.inf]])
    assert hungarian(cost) == [(0, 2), (1, 0), (2, 1)]


# ---------------------------------------------------------------------------
# assign_and_filter

def M(rows):
    """Rows given as track probabilities; null column appended to normalize."""
    rows = np.asarray(rows, dtype=np.float64)
    null = 1.0 - rows.sum(axis=1, keepdims=True)
    return np.concatenate([rows, null], axis=1)


def test_assign_identity_block():
    m = M([[0.9, 0.02], [0.03, 0.9]])
    matched, dup, new = assign_and_filter(m)
    assert sorted(matched) == [(0, 0), (1, 1)]
    assert dup == [] and new == []


def test_two_detections_one_track_higher_wins():
    # both claim the same single track, higher probability becomes the match
    m = M([[0.90], [0.92]])
    matched, dup, new = assign_and_filter(m)
    assert matched == [(1, 0)]
    assert dup == [0]
    assert new == []


def test_null_dominated_detection_is_new():
    m = M([[0.03]])  # null prob 0.97 dominates
    matched, dup, new = assign_and_filter(m)
    assert matched == [] and dup == [] and new == [0]


def test_no_tracks_everything_new():
    m = np.ones((3, 1))
    matched, dup, new = assign_and_filter(m)
    assert matched == [] and dup == [] and new == [0, 1, 2]


def test_loser_above_its_null_is_a_duplicate():
    # det 1 loses track 0 to det 0 and puts 0.35 on it against a null of
    # 0.30; no other track beats its null, so it is a duplicate
    m = M([[0.90, 0.03, 0.02], [0.35, 0.20, 0.15]])
    matched, dup, new = assign_and_filter(m)
    assert matched == [(0, 0)]
    assert dup == [1] and new == []


def test_loser_below_its_null_is_new():
    # det 1 loses track 0 to det 0 and puts 0.45 on it against a null of
    # 0.50, so it opens a new track
    m = M([[0.90, 0.05], [0.45, 0.05]])
    matched, dup, new = assign_and_filter(m)
    assert matched == [(0, 0)]
    assert dup == [] and new == [1]


def test_duplicate_needs_a_track_above_its_null():
    m = M([[0.6, 0.1], [0.55, 0.05], [0.001, 0.0009]])
    matched, dup, new = assign_and_filter(m)
    # det 0 matches track 0; det 1 loses it but beats its null (0.4) there;
    # det 2's probabilities are positive but far below its null (0.998)
    assert matched == [(0, 0)]
    assert dup == [1] and new == [2]


def test_duplicates_only_against_matched_tracks():
    # track 1 receives no match; det 1 beats its null on no track, so it
    # must open a new track instead of being suppressed
    m = M([[0.70, 0.01], [0.02, 0.10]])
    matched, dup, new = assign_and_filter(m)
    assert matched == [(0, 0)]
    assert dup == [] and new == [1]


def test_partition_property_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_det = rng.integers(0, 6)
        n_track = rng.integers(0, 6)
        raw = rng.uniform(size=(n_det, n_track + 1)) + 1e-6
        m = raw / raw.sum(axis=1, keepdims=True)
        matched, dup, new = assign_and_filter(m)
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
@given(row_stochastic())
def test_null_column_decides_assignment_and_duplicates(m):
    matched, dup, new = assign_and_filter(m)
    n_track = m.shape[1] - 1
    allowed = m[:, :n_track] > m[:, n_track:]
    assert sorted([i for i, _ in matched] + dup + new) == list(range(len(m)))
    assert all(allowed[i, j] for i, j in matched)
    unmatched = sorted(dup + new)
    assert dup == [i for i in unmatched if allowed[i].any()]
    # maximal on the allowed pairs: a duplicate's allowed tracks are all taken
    free = set(range(n_track)) - {j for _, j in matched}
    assert not any(allowed[i, j] for i in unmatched for j in free)


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


def test_lifecycle_on_frames_with_detections():
    # two tracks lose their match while a far-away person is tracked: each
    # keeps its confidence-blended row of updated_tracks and its geometry,
    # ages by one frame, and closes at exactly tau_age
    cfg = dataclasses.replace(SMALL, tau_age=3)
    model = build_heuristic_model(cfg)
    # gate 0.5 towards a shifted head output, so a blended row is not the
    # track's own embedding
    model.store["conf.b"].data[...] = 0.0
    model.store["track_head.b2"].data[...] += 0.1
    rng = np.random.default_rng(21)
    k, d = cfg.keypoint_count, cfg.d
    look = np.eye(d)  # orthogonal appearances: only geometry could pair them
    _, state, _ = step(TrackerState(), [make_detection(0, 0, rng, k, appearance=look[0]),
                                        make_detection(0, 60, rng, k, appearance=look[1])],
                       model)
    lost = [t.id for t in state.tracks]
    far = [[make_detection(500 + f, 500, rng, k, appearance=look[2])] for f in range(4)]
    for age in (1, 2, 3):
        result, nxt, fwd = step(state, far[age - 1], model)
        assert result.closed_tracks == []
        assert (result.new_tracks, result.assignments) == (
            ([(0, 2)], []) if age == 1 else ([], [(0, 2)]))
        for pos, old in enumerate(state.tracks):
            if old.id in lost:
                row, t = next((r, u) for r, u in enumerate(nxt.tracks) if u.id == old.id)
                assert t.frames_since_match == age
                assert np.array_equal(nxt.embeddings[row], fwd.updated_tracks.data[pos])
                assert not np.allclose(nxt.embeddings[row], state.embeddings[pos])
                assert t.last_box == old.last_box and t.last_pose is old.last_pose
        state = nxt
    result, state, _ = step(state, far[3], model)
    assert result.assignments == [(0, 2)] and result.closed_tracks == lost
    assert [t.id for t in state.tracks] == [2]


@pytest.mark.parametrize("frame", ["far_detection", "empty"])
def test_step_closes_in_track_order_and_sorts_by_id(frame):
    # a hand-built state out of id order: closed ids follow the tracks'
    # order, and the tracks come back sorted by id
    cfg = dataclasses.replace(SMALL, tau_age=2)
    model = build_heuristic_model(cfg)
    rng = np.random.default_rng(22)
    k, look = cfg.keypoint_count, np.eye(cfg.d)

    def track(tid, x, age):
        det = make_detection(x, 0, rng, k, appearance=look[tid])
        return Track(id=tid, last_pose=det.pose, last_box=det.box, frames_since_match=age)

    state = TrackerState([track(7, 0, 2), track(5, 100, 0), track(3, 200, 1),
                          track(1, 300, 2)], next_id=9, embeddings=look[[7, 5, 3, 1]])
    far = make_detection(600, 600, rng, k, appearance=look[9])
    dets = [far] if frame == "far_detection" else []
    result, nxt, fwd = step(state, dets, model)
    assert result.closed_tracks == [7, 1]
    assert result.new_tracks == ([(0, 9)] if dets else [])
    assert [t.id for t in nxt.tracks] == ([3, 5, 9] if dets else [3, 5])
    assert [t.frames_since_match for t in nxt.tracks[:2]] == [2, 1]
    # the embedding rows move with their tracks, from positions 2 and 1
    kept = fwd.updated_tracks.data[[2, 1]] if dets else look[[3, 5]]
    assert np.array_equal(nxt.embeddings[:2], kept)


def test_state_refuses_reused_ids_and_embeddings_without_a_row_per_track():
    rng = np.random.default_rng(23)

    def track(tid):
        det = make_detection(100 * tid, 0, rng)
        return Track(id=tid, last_pose=det.pose, last_box=det.box)

    refusals = [
        (dict(tracks=[track(0)], next_id=0, embeddings=np.zeros((1, 8))),
         "next_id 0 must exceed every track id, got track id 0"),
        (dict(tracks=[track(3), track(3)], next_id=4, embeddings=np.zeros((2, 8))),
         "track id 3 is repeated"),
        (dict(tracks=[track(0)], next_id=1), r"one row per track: 1 tracks, shape \(0, 0\)"),
        (dict(tracks=[track(0)], next_id=1, embeddings=np.zeros(8)), "one row per track"),
        (dict(tracks=[track(0), track(1)], next_id=2, embeddings=np.zeros((1, 8))),
         "one row per track"),
        (dict(tracks=[track(0)], next_id=1, embeddings=[[0.0, np.nan]]), "must be finite"),
    ]
    for fields, message in refusals:
        with pytest.raises(ValueError, match=message) as err:
            TrackerState(**fields)
        assert "\n" not in str(err.value)
    # a valid state holds its own read-only copy of the matrix
    look = np.ones((1, 8))
    state = TrackerState([track(0)], next_id=1, embeddings=look)
    look[0, 0] = 5.0
    assert state.embeddings[0, 0] == 1.0 and not state.embeddings.flags.writeable


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
    assert state.embeddings.shape == (1, cfg.d) and np.isfinite(state.embeddings).all()


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

        plain_tracks = {t.id: (t, row) for row, t in enumerate(state.tracks)}
        assert sorted(to_plain[t.id] for t in shuffled.tracks) == sorted(plain_tracks)
        for row, t in enumerate(shuffled.tracks):
            twin, twin_row = plain_tracks[to_plain[t.id]]
            assert (t.last_box, t.frames_since_match) == (twin.last_box, twin.frames_since_match)
            np.testing.assert_allclose(shuffled.embeddings[row], state.embeddings[twin_row],
                                       rtol=1e-9, atol=1e-12)


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
        assert len(state.embeddings) == len(state.tracks)
        assert np.isfinite(state.embeddings).all()
        for t in state.tracks:
            assert t.frames_since_match <= cfg.tau_age
        matched_per_frame = [tid for _, tid in result.assignments]
        assert len(matched_per_frame) == len(set(matched_per_frame))
