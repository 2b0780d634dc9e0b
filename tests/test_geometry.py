"""IoU / OKS / edge features, checked against scalar hand evaluations; the
broadcast grids are checked against the scalar references pair by pair.

`iou` and `oks_triplet` are those references, each scoring one pair;
test_synth and test_training import them from here."""
import numpy as np
import pytest

from dstrack.config import EngineConfig
from dstrack.datatypes import Box, Detection, Pose, Track
from dstrack.geometry import edge_features, iou_grid, oks_grid


def iou(a: Box, b: Box) -> float:
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def oks_triplet(p: Pose, q: Pose, scale_box: Box, kappas: np.ndarray) -> np.ndarray:
    """Three keypoint-similarity readings of the same pose pair.

    Per keypoint the kernel is exp(-d^2 / (2 s k^2)) with s the scale-box
    area.  Component 0 averages over jointly visible keypoints (0 if there
    are none), component 1 over p's visible set, component 2 over q's; in
    the one-sided variants a keypoint whose partner is missing contributes 0.
    """
    if p.keypoint_count != q.keypoint_count:
        raise ValueError("poses must share the same keypoint count")
    kappas = np.asarray(kappas, dtype=np.float64)
    if kappas.shape != (p.keypoint_count,):
        raise ValueError("kappa count must match keypoint count")
    vp = p.visibility_mask()
    vq = q.visibility_mask()
    both = vp & vq
    d2 = ((p.coords - q.coords) ** 2).sum(axis=1)
    s = scale_box.area
    g = np.exp(-d2 / (2.0 * s * kappas**2))

    def one_sided(mask):
        if not mask.any():
            return 0.0
        return float((g * both)[mask].sum() / mask.sum())

    shared = float(g[both].mean()) if both.any() else 0.0
    return np.array([shared, one_sided(vp), one_sided(vq)])


def pose_at(coords, conf=None, visible=None):
    coords = np.asarray(coords, dtype=np.float64)
    k = coords.shape[0]
    return Pose(
        coords=coords,
        conf=np.ones(k) if conf is None else conf,
        visible=np.ones(k, bool) if visible is None else visible,
    )


def random_pose(rng, k=5, span=50.0):
    return Pose(
        coords=rng.uniform(0, span, size=(k, 2)),
        conf=rng.uniform(0, 1, size=k),
        visible=rng.integers(0, 2, size=k).astype(bool),
    )


# ---------------------------------------------------------------------------
# iou

def test_iou_identical_and_disjoint():
    a = Box(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Box(20, 20, 30, 30)) == 0.0
    assert iou(a, Box(10, 0, 20, 10)) == 0.0  # touching edges share no area


def test_iou_half_shifted_unit_square():
    a = Box(0, 0, 1, 1)
    b = Box(0.5, 0, 1.5, 1)
    assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_iou_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)

    def rand_box():
        x = np.sort(rng.uniform(0, 100, 2))
        y = np.sort(rng.uniform(0, 100, 2))
        return Box(x[0], y[0], x[1] + 1.0, y[1] + 1.0)

    a, b = rand_box(), rand_box()
    assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-12)
    assert 0.0 <= iou(a, b) <= 1.0


# ---------------------------------------------------------------------------
# oks triplet

KAPPAS3 = np.array([0.1, 0.2, 0.08])


def test_oks_identical_poses():
    p = pose_at([[1, 1], [5, 5], [9, 2]])
    np.testing.assert_allclose(
        oks_triplet(p, p, Box(0, 0, 10, 10), KAPPAS3), [1.0, 1.0, 1.0]
    )


def test_oks_disjoint_visibility():
    p = pose_at([[1, 1], [5, 5], [9, 2]], conf=np.zeros(3), visible=[True, False, False])
    q = pose_at([[1, 1], [5, 5], [9, 2]], conf=np.zeros(3), visible=[False, True, True])
    np.testing.assert_allclose(
        oks_triplet(p, q, Box(0, 0, 10, 10), KAPPAS3), [0.0, 0.0, 0.0]
    )


def test_oks_hand_evaluation_single_shared_keypoint():
    # keypoint 0 shared at distance 3; keypoint 1 only in p; keypoint 2 only in q
    box = Box(0, 0, 10, 10)  # s = 100
    p = pose_at([[0, 0], [4, 4], [7, 7]], conf=np.zeros(3), visible=[True, True, False])
    q = pose_at([[3, 0], [4, 4], [7, 7]], conf=np.zeros(3), visible=[True, False, True])
    g0 = np.exp(-9.0 / (2.0 * 100.0 * 0.1**2))
    got = oks_triplet(p, q, box, KAPPAS3)
    np.testing.assert_allclose(got, [g0, g0 / 2.0, g0 / 2.0], rtol=1e-12)


def test_oks_distance_sigma_value():
    # single keypoint, d^2 = 2 s k^2 -> kernel exp(-1) is not what we want;
    # pick d^2 = s k^2 so the kernel is exp(-1/2)
    box = Box(0, 0, 10, 10)
    k = np.array([0.1])
    d = np.sqrt(100.0 * 0.01)  # = 1.0
    p = pose_at([[0.0, 0.0]])
    q = pose_at([[d, 0.0]])
    np.testing.assert_allclose(
        oks_triplet(p, q, box, k)[0], np.exp(-0.5), rtol=1e-12
    )


@pytest.mark.parametrize("seed", range(8))
def test_oks_swap_property(seed):
    rng = np.random.default_rng(seed)
    p, q = random_pose(rng), random_pose(rng)
    box = Box(0, 0, 60, 60)
    kap = rng.uniform(0.05, 0.2, size=5)
    a = oks_triplet(p, q, box, kap)
    b = oks_triplet(q, p, box, kap)
    assert a[0] == pytest.approx(b[0], abs=1e-12)
    assert a[1] == pytest.approx(b[2], abs=1e-12)
    assert a[2] == pytest.approx(b[1], abs=1e-12)
    assert (a >= 0).all() and (a <= 1).all()


def test_oks_monotone_in_shared_keypoint_distance():
    box = Box(0, 0, 20, 20)
    kap = np.array([0.1, 0.1])
    base = pose_at([[5, 5], [10, 10]])
    prev = None
    for shift in [0.0, 1.0, 2.0, 4.0, 8.0]:
        q = pose_at([[5 + shift, 5], [10, 10]])
        val = oks_triplet(base, q, box, kap)
        if prev is not None:
            assert (val <= prev + 1e-12).all()
        prev = val


def test_oks_mismatched_k_raises():
    with pytest.raises(ValueError, match="keypoint count"):
        oks_triplet(pose_at([[0, 0]]), pose_at([[0, 0], [1, 1]]), Box(0, 0, 1, 1), KAPPAS3)


# ---------------------------------------------------------------------------
# edge features

def cfg_k5():
    return EngineConfig(d=8, keypoint_count=5, oks_kappas=(0.1,) * 5)


def test_edge_features_empty():
    assert edge_features([], [], cfg_k5()).shape == (0, 0, 4)
    det = Detection(box=Box(0, 0, 5, 5), pose=pose_at(np.ones((5, 2))))
    assert edge_features([], [det], cfg_k5()).shape == (0, 1, 4)


def test_edge_features_self_similarity():
    cfg = cfg_k5()
    rng = np.random.default_rng(0)
    dets = [
        Detection(box=Box(i * 20, 0, i * 20 + 10, 15), pose=random_pose(rng))
        for i in range(3)
    ]
    tracks = [
        Track(id=i, last_pose=d.pose, last_box=d.box)
        for i, d in enumerate(dets)
    ]
    feats = edge_features(tracks, dets, cfg)
    for i in range(3):
        np.testing.assert_allclose(feats[i, i], np.ones(4), atol=1e-12)


def hidden_pose(rng, k=5):
    """A pose with no visible keypoint (flag off, confidence under the floor)."""
    return Pose(coords=rng.uniform(0, 50, size=(k, 2)), conf=np.zeros(k),
                visible=np.zeros(k, bool))


def patchy_pose(rng, k=5):
    """A pose with about a quarter of its keypoints hidden."""
    return Pose(coords=rng.uniform(0, 50, size=(k, 2)), conf=rng.uniform(0, 0.1, size=k),
                visible=rng.integers(0, 2, size=k).astype(bool))


def oracle_boxes(rng, n_tracks, n_dets):
    """Random boxes, with detections 0-2 made identical to, touching, and
    disjoint from track 0's box where the grid has room."""
    def rand_box():
        x0, y0 = rng.uniform(0, 40, 2)
        return Box(x0, y0, x0 + rng.uniform(5, 30), y0 + rng.uniform(5, 30))

    track_boxes = [rand_box() for _ in range(n_tracks)]
    det_boxes = [rand_box() for _ in range(n_dets)]
    if n_tracks and n_dets >= 3:
        b = track_boxes[0]
        det_boxes[0] = b
        det_boxes[1] = Box(b.x_max, b.y_min, b.x_max + 7.0, b.y_max)
        det_boxes[2] = b.shifted(500.0, 500.0)
    return track_boxes, det_boxes


@pytest.mark.parametrize("seed, n_tracks, n_dets, k", [
    (0, 2, 3, 5), (1, 2, 3, 5), (2, 2, 3, 5), (3, 2, 3, 5), (4, 2, 3, 5),
    (5, 6, 7, 5), (6, 6, 7, 17), (7, 7, 6, 17), (8, 6, 7, 9),
    (9, 0, 4, 5), (10, 4, 0, 5), (11, 1, 1, 17),
], ids=["0", "1", "2", "3", "4", "6x7-k5", "6x7-k17", "7x6-k17", "6x7-k9",
        "no_tracks", "no_dets", "1x1-k17"])
def test_edge_features_match_pairwise_oracle(seed, n_tracks, n_dets, k):
    rng = np.random.default_rng(seed)
    cfg = EngineConfig(d=8, keypoint_count=k,
                       oks_kappas=tuple(rng.uniform(0.05, 0.2, size=k)))
    track_boxes, det_boxes = oracle_boxes(rng, n_tracks, n_dets)
    make = [random_pose, patchy_pose]
    track_poses = [make[j % 2](rng, k) for j in range(n_tracks)]
    det_poses = [make[i % 2](rng, k) for i in range(n_dets)]
    # a pose with nothing visible on the track side, and on the detection side
    if n_tracks > 2:
        track_poses[2] = hidden_pose(rng, k)
    if n_dets > 3:
        det_poses[3] = hidden_pose(rng, k)
    tracks = [Track(id=j, last_pose=p, last_box=b)
              for j, (p, b) in enumerate(zip(track_poses, track_boxes))]
    dets = [Detection(box=b, pose=p) for b, p in zip(det_boxes, det_poses)]
    feats = edge_features(tracks, dets, cfg)
    assert feats.shape == (n_tracks, n_dets, 4)
    kap = np.asarray(cfg.oks_kappas)
    for j, t in enumerate(tracks):
        for i, d in enumerate(dets):
            expect = np.concatenate([[iou(t.last_box, d.box)],
                                     oks_triplet(t.last_pose, d.pose, t.last_box, kap)])
            np.testing.assert_allclose(feats[j, i], expect, rtol=1e-12, atol=0)
    assert (feats >= 0).all() and (feats <= 1).all()
    if n_tracks and n_dets >= 3:
        assert feats[0, 0, 0] == 1.0 and feats[0, 1, 0] == 0.0 and feats[0, 2, 0] == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_grids_bit_identical_when_every_keypoint_is_visible(seed):
    # with no hidden keypoint the grid sums the same values in the same
    # order as the scalar reference, so tracking on fully visible poses
    # does not depend on which of the two computed its features
    rng = np.random.default_rng(seed)
    k = 15
    kap = rng.uniform(0.03, 0.2, size=k)
    boxes_a, boxes_b = oracle_boxes(rng, 5, 6)
    poses_a = [pose_at(rng.uniform(0, 60, (k, 2))) for _ in range(5)]
    poses_b = [pose_at(rng.uniform(0, 60, (k, 2))) for _ in range(6)]
    ious = iou_grid(boxes_a, boxes_b)
    oks = oks_grid(poses_a, poses_b, [b.area for b in boxes_a], kap)
    for a in range(5):
        for b in range(6):
            assert ious[a, b] == iou(boxes_a[a], boxes_b[b])
            assert np.array_equal(oks[a, b], oks_triplet(poses_a[a], poses_b[b],
                                                          boxes_a[a], kap))


@pytest.mark.parametrize("track_k, det_k, kappa_k", [(5, 4, 5), (4, 4, 5)],
                         ids=["keypoint_count", "kappa_count"])
def test_edge_features_raise_like_oks_triplet(track_k, det_k, kappa_k):
    rng = np.random.default_rng(0)
    cfg = EngineConfig(d=8, keypoint_count=kappa_k, oks_kappas=(0.1,) * kappa_k)
    box = Box(0, 0, 10, 10)
    track = Track(id=0, last_pose=random_pose(rng, k=track_k), last_box=box)
    det = Detection(box=box, pose=random_pose(rng, k=det_k))
    with pytest.raises(ValueError) as scalar:
        oks_triplet(track.last_pose, det.pose, box, np.asarray(cfg.oks_kappas))
    with pytest.raises(ValueError) as grid:
        edge_features([track], [det], cfg)
    assert str(grid.value) == str(scalar.value)
