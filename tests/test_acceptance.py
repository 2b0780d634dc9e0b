"""Release checklist: one test per acceptance criterion.

Every test prints exactly one summary line (visible under pytest -s) and
asserts the stated thresholds, so a verbose run doubles as a report.
"""
import dataclasses
import itertools
import time

import numpy as np

from dstrack import nn, tracker
from dstrack.datatypes import Box, Detection, Pose, Track
from dstrack.evaluate import evaluate
from dstrack.geometry import edge_features
from dstrack.gradsuite import run_suite, suite_passed
from dstrack.heuristics import build_heuristic_model
from dstrack.synth import synth_sequence
from dstrack.tracker import hungarian, run_sequence, step, TrackerState
from dstrack.training import labeled_frames, loss_attn, train_toy
from dstrack.transformer import dual_source, TrackingModel
from small_config import SMALL


def _line(n, label, ok, detail):
    print(f"criterion {n} {label}: {detail}: {'PASS' if ok else 'FAIL'}")


def track_seq(seq, model):
    return [(i, r) for i, r, _ in run_sequence(seq.detection_frames(), model)]


def crowd(seed):
    return synth_sequence("crowd", seed=seed, cfg=SMALL)


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    outcomes = run_suite(seeds=5, base_seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(o.max_rel_error for o in outcomes)
    n_checks = len({o.name for o in outcomes})
    ok = suite_passed(outcomes) and elapsed < 60.0
    _line(1, "gradient suite",
          ok, f"{n_checks} checks x 5 seeds, worst rel err "
              f"{worst:.2e}, {elapsed:.1f}s")
    assert suite_passed(outcomes), [o.name for o in outcomes if not o.ok()]
    assert elapsed < 60.0, elapsed


def test_criterion_2_gate_endpoints_and_loss_constant():
    # op level, five random instances per endpoint, bitwise
    for seed in range(5):
        rng = np.random.default_rng(seed)
        e_t = nn.Tensor(rng.standard_normal((3, 4)))
        e_d = nn.Tensor(rng.standard_normal((2, 4)))
        o_edge = nn.Tensor(rng.standard_normal((3, 2)))
        ws = [nn.Tensor(rng.standard_normal((4, 4))) for _ in range(2)]
        b1 = dual_source(e_t, e_d, o_edge, 1.0, *ws)
        assert (b1.fused.data == b1.s_appear.data).all()
        b0 = dual_source(e_t, e_d, o_edge, 0.0, *ws)
        assert (b0.fused.data == b0.s_edge.data).all()

    # model level: every decoder stage and the matching layer of a full
    # frame pass
    cfg = dataclasses.replace(SMALL, d=8, d_e=8, ffn_hidden=16)
    rng = np.random.default_rng(42)
    e_t = rng.standard_normal((3, cfg.d))
    raw = rng.uniform(size=(3, 4, 4))
    e_d = rng.standard_normal((4, cfg.d))

    def forward_at(alpha):
        # the weights do not depend on alpha, only the blend does
        model = TrackingModel(dataclasses.replace(cfg, alpha=alpha), seed=1)
        return model.forward_frame(e_t, raw, e_d)
    fwd1 = forward_at(1.0)
    fwd0 = forward_at(0.0)
    appear_exact = all((b.fused.data == b.s_appear.data).all()
                       for b in fwd1.bundles + [fwd1.match])
    edge_exact = all((b.fused.data == b.s_edge.data).all()
                     for b in fwd0.bundles + [fwd0.match])

    # row-stochastic with the null column, at an interior alpha
    fwd = forward_at(0.3)
    rows = [b.fused.data for b in fwd.bundles] + [fwd.match.fused.data]
    rows += [a.data for a in fwd.enc_attn]
    sum_err = max(float(np.abs(r.sum(axis=1) - 1.0).max()) for r in rows)

    dup = float(loss_attn(nn.Tensor(np.array([[0.3, 0.4, 0.3]])), [[0, 1]]).data)
    dup_err = abs(dup - (-np.log(0.7)))

    ok = appear_exact and edge_exact and sum_err <= 1e-6 and dup_err <= 1e-9
    _line(2, "gate endpoints",
          ok, f"endpoints bitwise, row sum err {sum_err:.1e}, "
              f"two-duplicate loss err {dup_err:.1e}")
    assert appear_exact and edge_exact
    assert sum_err <= 1e-6
    assert dup_err <= 1e-9


def _brute_assignment_cost(cost):
    n = cost.shape[0]
    return min(sum(cost[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def _naive_conv3x3(x, w, b):
    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    out = np.zeros((n, c_out, h, wd))
    for s in range(n):
        for o in range(c_out):
            for y in range(h):
                for xx in range(wd):
                    acc = b[o]
                    for c in range(c_in):
                        for ky in range(3):
                            for kx in range(3):
                                yy, xc = y + ky - 1, xx + kx - 1
                                if 0 <= yy < h and 0 <= xc < wd:
                                    acc += x[s, c, yy, xc] * w[o, c, ky, kx]
                    out[s, o, y, xx] = acc
    return out


def test_criterion_3_infrastructure_oracles():
    # assignment solver vs exhaustive enumeration
    hung_err = 0.0
    for n in (6, 7):
        for seed in range(20):
            cost = np.random.default_rng(100 * n + seed).uniform(size=(n, n))
            got = sum(cost[i, j] for i, j in hungarian(cost))
            hung_err = max(hung_err, abs(got - _brute_assignment_cost(cost)))

    # edge features vs an inline re-derivation from raw coordinates
    rng = np.random.default_rng(5)
    k = SMALL.keypoint_count
    kap = np.asarray(SMALL.oks_kappas)

    def rand_pose():
        return Pose(coords=rng.uniform(0, 200, size=(k, 2)),
                    conf=rng.uniform(size=k),
                    visible=rng.uniform(size=k) > 0.3)

    def rand_box():
        x0, y0 = rng.uniform(0, 150, size=2)
        return Box(x0, y0, x0 + rng.uniform(20, 80), y0 + rng.uniform(20, 80))

    tracks = [Track(id=j, last_pose=rand_pose(), last_box=rand_box()) for j in range(3)]
    dets = [Detection(box=rand_box(), pose=rand_pose()) for _ in range(4)]
    got = edge_features(tracks, dets, SMALL)
    geo_err = 0.0
    for j, tr in enumerate(tracks):
        a = tr.last_box
        for i, de in enumerate(dets):
            bb = de.box
            ix = min(a.x_max, bb.x_max) - max(a.x_min, bb.x_min)
            iy = min(a.y_max, bb.y_max) - max(a.y_min, bb.y_min)
            inter = max(ix, 0.0) * max(iy, 0.0)
            ref_iou = inter / (a.area + bb.area - inter) if inter > 0 else 0.0
            p, q = tr.last_pose, de.pose
            vp = p.visible | (p.conf > 0.05)
            vq = q.visible | (q.conf > 0.05)
            both = vp & vq
            d2 = ((p.coords - q.coords) ** 2).sum(axis=1)
            g = np.exp(-d2 / (2.0 * a.area * kap**2))
            shared = g[both].mean() if both.any() else 0.0
            over_p = (g * both)[vp].sum() / vp.sum() if vp.any() else 0.0
            over_q = (g * both)[vq].sum() / vq.sum() if vq.any() else 0.0
            ref = np.array([ref_iou, shared, over_p, over_q])
            geo_err = max(geo_err, float(np.abs(got[j, i] - ref).max()))

    # convolution vs seven nested loops
    x = rng.standard_normal((2, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    conv_err = float(np.abs(
        nn.conv3x3(x, w, b).data - _naive_conv3x3(x, w, b)).max())

    ok = hung_err <= 1e-9 and geo_err <= 1e-6 and conv_err <= 1e-6
    _line(3, "infrastructure oracles",
          ok, f"assignment err {hung_err:.1e}, edge feature err {geo_err:.1e}, "
              f"conv err {conv_err:.1e}")
    assert hung_err <= 1e-9
    assert geo_err <= 1e-6
    assert conv_err <= 1e-6


def test_criterion_4_tracking_scenarios():
    model = build_heuristic_model(SMALL, seed=0)
    assert SMALL.alpha == 0.3
    times, parts = [], []

    def model_at(alpha):
        # build_heuristic_model does not read alpha: same weights, other blend
        return build_heuristic_model(dataclasses.replace(SMALL, alpha=alpha), seed=0)

    # occlusion: appearance carries identity across the gap, geometry alone
    # spawns a replacement track
    t0 = time.perf_counter()
    occ = synth_sequence("occlusion", seed=0, cfg=SMALL)
    rep = evaluate(track_seq(occ, model), occ)
    res0 = track_seq(occ, model_at(0.0))
    born_geo = sum(len(r.new_tracks) for _, r in res0)
    times.append(time.perf_counter() - t0)
    parts.append(rep.id_switches == 0 and born_geo >= 3)

    # crossing: geometry blend survives the cross, pure appearance with
    # overlapping clusters does not
    t0 = time.perf_counter()
    cross = synth_sequence("crossing", seed=0, cfg=SMALL)
    rep_blend = evaluate(track_seq(cross, model), cross)
    cross_flat = synth_sequence("crossing", seed=0, cfg=SMALL, separation=0.0)
    rep_app = evaluate(track_seq(cross_flat, model_at(1.0)), cross_flat)
    times.append(time.perf_counter() - t0)
    parts.append(rep_blend.id_switches == 0 and rep_app.id_switches >= 1)

    # duplicates: the null column removes injected copies; with every
    # duplicate moved into new_tracks they become spurious tracks
    t0 = time.perf_counter()
    dup_seq = synth_sequence("duplicates", seed=0, cfg=SMALL)
    injected = sum(len(f.duplicates) for f in dup_seq.frames)
    res_on = track_seq(dup_seq, model)
    removed = sum(len(r.duplicates) for _, r in res_on)
    born_on = sum(len(r.new_tracks) for _, r in res_on)
    rep_on = evaluate(res_on, dup_seq)
    keep = tracker.assign_and_filter

    def no_removal(match):
        matched, duplicates, new = keep(match)
        return matched, [], sorted(duplicates + new)
    tracker.assign_and_filter = no_removal
    try:
        res_off = track_seq(dup_seq, model)
    finally:
        tracker.assign_and_filter = keep
    removed_off = sum(len(r.duplicates) for _, r in res_off)
    born_off = sum(len(r.new_tracks) for _, r in res_off)
    rep_off = evaluate(res_off, dup_seq)
    times.append(time.perf_counter() - t0)
    parts.append(injected > 0 and removed == injected and born_on == 2
                 and rep_on.false_positives == 0 and rep_on.id_switches == 0
                 and removed_off == 0 and born_off > 2
                 and rep_off.false_positives > 0)

    ok = all(parts) and max(times) < 10.0
    _line(4, "tracking scenarios",
          ok, f"occlusion/crossing/duplicates "
              f"{['ok' if p else 'BAD' for p in parts]}, "
              f"slowest {max(times):.2f}s")
    assert parts[0], "occlusion contrast failed"
    assert parts[1], "crossing contrast failed"
    assert parts[2], "duplicates contrast failed"
    assert max(times) < 10.0, times


def test_criterion_5_training_progress():
    # three seeds trained on two crowd sequences, scored on a third
    train = [labeled_frames(crowd(0)), labeled_frames(crowd(1))]
    held = crowd(99)
    drops, accs = [], []
    for seed in (0, 1, 2):
        model, curve = train_toy(train, SMALL, seed=seed, n_iters=200)
        totals = [row.total for row in curve]
        drops.append(1.0 - np.mean(totals[-10:]) / np.mean(totals[:10]))
        accs.append(evaluate(track_seq(held, model), held).association_accuracy)
    ok = min(drops) >= 0.5 and min(accs) >= 0.95
    _line(5, "training progress",
          ok, f"loss drop {min(drops):.1%}..{max(drops):.1%}, "
              f"held-out accuracy {min(accs):.3f}..{max(accs):.3f}")
    assert min(drops) >= 0.5, drops
    assert min(accs) >= 0.95, accs


def test_criterion_6_lifecycle_fuzz():
    cfg = dataclasses.replace(SMALL, tau_age=5)
    model = build_heuristic_model(cfg, seed=0)
    rng = np.random.default_rng(7)
    k, d = cfg.keypoint_count, cfg.d

    def fresh_det():
        x0 = rng.uniform(0, 400)
        y0 = rng.uniform(0, 300)
        box = Box(x0, y0, x0 + 40.0, y0 + 80.0)
        coords = np.stack([rng.uniform(x0, x0 + 40.0, size=k),
                           rng.uniform(y0, y0 + 80.0, size=k)], axis=1)
        pose = Pose(coords=coords, conf=rng.uniform(size=k),
                    visible=rng.uniform(size=k) > 0.2)
        return Detection(box=box, pose=pose,
                         appearance=rng.standard_normal(d))

    def drift(det):
        dx, dy = rng.normal(0.0, 2.0, size=2)
        return Detection(box=det.box.shifted(dx, dy),
                         pose=det.pose.shifted(dx, dy),
                         appearance=det.appearance
                         + rng.normal(0.0, 0.1, size=d))

    state = TrackerState()
    issued = set()
    streak = {}
    prev_dets = []
    n_match = n_dup = n_new = n_closed = 0
    for _ in range(1000):
        dets = []
        if rng.uniform() > 0.05:  # occasional empty frame
            dets = [drift(p) for p in prev_dets if rng.uniform() < 0.7]
            if dets and rng.uniform() < 0.25:
                dets.append(drift(dets[rng.integers(len(dets))]))
            for _ in range(rng.poisson(0.8)):
                dets.append(fresh_det())
        prev_dets = dets

        pre_ids = [t.id for t in state.tracks]
        pre_embed = state.embeddings if state.tracks else np.zeros((0, d))
        res, state, fwd = step(state, dets, model)

        assert res.detection_partition(len(dets))
        seen = sorted([i for i, _ in res.assignments] + list(res.duplicates)
                      + [i for i, _ in res.new_tracks])
        assert seen == list(range(len(dets)))

        for _, tid in res.new_tracks:
            assert tid not in issued, "track id reused"
            issued.add(tid)

        matched_ids = {tid for _, tid in res.assignments}
        assert matched_ids <= set(pre_ids)
        expected_closed = set()
        for tid in pre_ids:
            if tid in matched_ids:
                streak[tid] = 0
            else:
                streak[tid] += 1
                if streak[tid] > cfg.tau_age:
                    expected_closed.add(tid)
        assert set(res.closed_tracks) == expected_closed, "aging drifted"
        for tid in expected_closed:
            del streak[tid]
        for _, tid in res.new_tracks:
            streak[tid] = 0
        assert {t.id for t in state.tracks} == set(streak)
        for t in state.tracks:
            assert t.frames_since_match == streak[t.id] <= cfg.tau_age

        if fwd is not None and len(pre_ids):
            g = fwd.update_gate
            assert (g >= 0.0).all() and (g <= 1.0).all()
            recon = ((1.0 - g)[:, None] * pre_embed
                     + g[:, None] * fwd.head_out.data)
            np.testing.assert_allclose(fwd.updated_tracks.data, recon,
                                       rtol=0.0, atol=1e-10)

        n_match += len(res.assignments)
        n_dup += len(res.duplicates)
        n_new += len(res.new_tracks)
        n_closed += len(res.closed_tracks)

    covered = min(n_match, n_dup, n_new, n_closed) > 0
    _line(6, "lifecycle fuzz",
          covered, f"1000 frames, {n_match} matches, {n_dup} duplicates, "
                   f"{n_new} births, {n_closed} closures, 0 violations")
    assert covered, (n_match, n_dup, n_new, n_closed)

