import base64
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dstrack
from dstrack import nn
from dstrack.cli import main
from dstrack.transformer import TrackingModel
from small_config import SMALL

SMALL_CFG = dataclasses.asdict(SMALL)


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SMALL_CFG))
    return str(p)


def run(argv):
    return main(argv)


def test_synth_track_eval_pipeline(tmp_path, cfg_path, capsys):
    seq = tmp_path / "seq.json"
    res = tmp_path / "res.jsonl"
    report = tmp_path / "report.json"
    assert run(["synth", "--scenario", "crossing", "--seed", "0",
                "--config", cfg_path, "--out", str(seq)]) == 0
    assert run(["track", str(seq), "--config", cfg_path, "--out", str(res)]) == 0
    assert run(["eval", str(res), str(seq), "--out", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["id_switches"] == 0
    assert data["association_accuracy"] == 1.0


def test_track_stdout_is_jsonl(tmp_path, cfg_path, capsys):
    seq = tmp_path / "seq.json"
    run(["synth", "--scenario", "crowd", "--seed", "1", "--frames", "4",
         "--config", cfg_path, "--out", str(seq)])
    capsys.readouterr()
    assert run(["track", str(seq), "--config", cfg_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert "assignments" in first and first["frame"] == 0


def test_track_rerun_byte_identical(tmp_path, cfg_path):
    seq = tmp_path / "seq.json"
    run(["synth", "--scenario", "duplicates", "--seed", "3", "--frames", "12",
         "--config", cfg_path, "--out", str(seq)])
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run(["track", str(seq), "--config", cfg_path, "--out", str(a)])
    run(["track", str(seq), "--config", cfg_path, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_synth_seed_changes_output(tmp_path, cfg_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["synth", "--scenario", "crowd", "--seed", "0", "--frames", "6",
         "--config", cfg_path, "--out", str(a)])
    run(["synth", "--scenario", "crowd", "--seed", "1", "--frames", "6",
         "--config", cfg_path, "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_environment_supplies_no_config(tmp_path, monkeypatch):
    # settings come only from the defaults and --config: a config file
    # named in the environment is not read, so its bad alpha does not count
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SMALL_CFG, alpha=1.5)))
    monkeypatch.setenv("DSTRACK_CONFIG", str(bad))
    assert run(["synth", "--scenario", "crowd", "--frames", "2",
                "--out", str(tmp_path / "seq.json")]) == 0


def test_alpha_out_of_range_is_usage_error(tmp_path, cfg_path, capsys):
    seq = tmp_path / "seq.json"
    run(["synth", "--scenario", "crowd", "--seed", "0", "--frames", "2",
         "--config", cfg_path, "--out", str(seq)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SMALL_CFG, alpha=1.5)))
    code = run(["track", str(seq), "--config", str(bad)])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_unknown_config_field_is_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(SMALL_CFG, learning_rate=0.1)))
    code = run(["synth", "--scenario", "crowd", "--frames", "2",
                "--config", str(p), "--out", str(p) + ".out"])
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("edge_update_mode", "features"),
                                          ("heatmap_kernel_width", 10)])
def test_settings_of_older_versions_are_unknown_fields(tmp_path, capsys, field, value):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({field: value}))
    code = run(["synth", "--scenario", "crowd", "--frames", "2",
                "--config", str(p), "--out", str(p) + ".out"])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: unknown config fields ['{field}']\n"


def test_detection_heatmaps_are_ignored_with_a_warning(tmp_path, cfg_path):
    # the backbone renders its heatmaps from the pose, whatever the file holds
    seq = short_sequence(tmp_path, cfg_path, crops=True)
    plain, res = tmp_path / "plain.jsonl", tmp_path / "res.jsonl"
    assert run(["track", str(seq), "--config", cfg_path, "--out", str(plain)]) == 0
    doc = json.loads(seq.read_text())
    k, h, w = SMALL.keypoint_count, SMALL.crop_height, SMALL.crop_width
    heats = np.random.default_rng(0).uniform(size=(k, h, w)).tolist()
    doc["frames"][1]["detections"][0]["heatmaps"] = heats
    seq.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match=r"ignoring unknown field\(s\) \['heatmaps'\] "
                                         "in frame 1, detection 0"):
        assert run(["track", str(seq), "--config", cfg_path, "--out", str(res)]) == 0
    assert res.read_bytes() == plain.read_bytes()


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_input_is_runtime_error(tmp_path, cfg_path, capsys):
    code = run(["track", str(tmp_path / "nope.json"), "--config", cfg_path])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def tracks_opened(results_path):
    return sum(len(json.loads(line)["new_tracks"])
               for line in results_path.read_text().splitlines())


def test_config_alpha_reaches_the_blend(tmp_path, cfg_path, capsys):
    # occlusion: at the default alpha appearance carries both identities
    # across the gap; geometry alone (alpha 0) opens a replacement track
    assert SMALL_CFG["alpha"] == 0.3
    seq = tmp_path / "occ.json"
    assert run(["synth", "--scenario", "occlusion", "--seed", "0",
                "--config", cfg_path, "--out", str(seq)]) == 0
    blend, geometry = tmp_path / "blend.jsonl", tmp_path / "geometry.jsonl"
    report = tmp_path / "report.json"
    assert run(["track", str(seq), "--config", cfg_path, "--out", str(blend)]) == 0
    geometry_cfg = tmp_path / "alpha0.json"
    geometry_cfg.write_text(json.dumps(dict(SMALL_CFG, alpha=0.0)))
    assert run(["track", str(seq), "--config", str(geometry_cfg),
                "--out", str(geometry)]) == 0
    assert run(["eval", str(blend), str(seq), "--out", str(report)]) == 0
    capsys.readouterr()
    assert tracks_opened(blend) == 2
    assert json.loads(report.read_text())["id_switches"] == 0
    assert tracks_opened(geometry) >= 3


def test_train_writes_checkpoint_and_curve(tmp_path, cfg_path, capsys):
    seq = tmp_path / "crowd.json"
    run(["synth", "--scenario", "crowd", "--seed", "0",
         "--config", cfg_path, "--out", str(seq)])
    ckpt = tmp_path / "model.ckpt"
    curve = tmp_path / "curve.csv"
    assert run(["train", str(seq), "--config", cfg_path, "--iters", "5",
                "--out", str(ckpt), "--curve", str(curve)]) == 0
    capsys.readouterr()
    assert ckpt.stat().st_size > 0
    rows = curve.read_text().strip().splitlines()
    assert rows[0].startswith("iteration,match,")
    assert len(rows) == 6

    res = tmp_path / "res.jsonl"
    assert run(["track", str(seq), "--config", cfg_path,
                "--weights", str(ckpt), "--out", str(res)]) == 0
    assert len(res.read_text().strip().splitlines()) == 30


def test_train_lr_default_is_the_toy_rate(tmp_path, cfg_path, capsys):
    seq = tmp_path / "crowd.json"
    run(["synth", "--scenario", "crowd", "--seed", "0", "--frames", "5",
         "--config", cfg_path, "--out", str(seq)])
    curves = []
    for extra in ([], ["--lr", "0.003"]):
        curve = tmp_path / f"curve{len(curves)}.csv"
        assert run(["train", str(seq), "--config", cfg_path, "--iters", "3",
                    "--out", str(tmp_path / "m.ckpt"), "--curve", str(curve)] + extra) == 0
        curves.append(curve.read_bytes())
    capsys.readouterr()
    assert curves[0] == curves[1]


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--scenario", "crowd", "--frames", "-2"], "--frames"),
    (["synth", "--scenario", "crowd", "--frames", "0"], "--frames"),
    (["synth", "--scenario", "crowd", "--seed", "-1"], "--seed"),
    (["synth", "--scenario", "occlusion", "--gap", "-3"], "--gap"),
    (["synth", "--scenario", "duplicates", "--duplicate-prob", "7"], "--duplicate-prob"),
    (["synth", "--scenario", "duplicates", "--duplicate-prob", "nan"], "--duplicate-prob"),
    (["synth", "--scenario", "crowd", "--separation", "nan"], "--separation"),
    (["synth", "--scenario", "crowd", "--separation", "-1"], "--separation"),
    (["train", "SEQ", "--iters", "0"], "--iters"),
    (["train", "SEQ", "--iters", "-3"], "--iters"),
    (["train", "SEQ", "--lr", "nan"], "--lr"),
    (["train", "SEQ", "--lr", "inf"], "--lr"),
    (["train", "SEQ", "--lr", "-1"], "--lr"),
    (["train", "SEQ", "--lr", "0"], "--lr"),
    (["train", "SEQ", "--seed", "-1"], "--seed"),
    (["track", "SEQ", "--seed", "-1"], "--seed"),
    (["gradcheck", "--seed", "-1"], "--seed"),
    (["gradcheck", "--seeds", "0"], "--seeds"),
    (["synth", "--scenario", "crowd", "--frames", "two"], "--frames"),
])
def test_out_of_range_flag_is_usage_error(tmp_path, cfg_path, capsys, argv, flag):
    # refused where it enters: exit 2, naming the flag, writing nothing
    seq = short_sequence(tmp_path, cfg_path)
    out = tmp_path / "out"
    argv = [str(seq) if a == "SEQ" else a for a in argv]
    if argv[0] != "gradcheck":
        argv += ["--config", cfg_path, "--out", str(out)]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: " in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_crops_route_through_backbone(tmp_path, capsys):
    cfg = dict(SMALL_CFG, crop_height=16, crop_width=8)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    seq = tmp_path / "seq.json"
    res = tmp_path / "res.jsonl"
    report = tmp_path / "rep.json"
    assert run(["synth", "--scenario", "crossing", "--seed", "0", "--crops",
                "--config", str(p), "--out", str(seq)]) == 0
    raw = json.loads(seq.read_text())
    det0 = raw["frames"][0]["detections"][0]
    assert "crop" in det0 and "appearance" not in det0
    assert run(["track", str(seq), "--config", str(p),
                "--out", str(res)]) == 0
    assert run(["eval", str(res), str(seq), "--out", str(report)]) == 0
    capsys.readouterr()
    assert json.loads(report.read_text())["id_switches"] == 0


def test_train_on_crops_writes_a_backbone_checkpoint(tmp_path, capsys):
    cfg = dict(SMALL_CFG, crop_height=16, crop_width=8)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    seq = tmp_path / "seq.json"
    ckpt = tmp_path / "model.ckpt"
    res = tmp_path / "res.jsonl"
    assert run(["synth", "--scenario", "crossing", "--seed", "0", "--frames", "5",
                "--crops", "--config", str(p), "--out", str(seq)]) == 0
    assert run(["train", str(seq), "--config", str(p), "--iters", "2",
                "--out", str(ckpt)]) == 0
    assert any(k.startswith("backbone.") for k in nn.load_checkpoint(str(ckpt)))
    assert run(["track", str(seq), "--config", str(p), "--weights", str(ckpt),
                "--out", str(res)]) == 0
    capsys.readouterr()
    assert len(res.read_text().strip().splitlines()) == 5


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "gradient suite passed" in out
    assert "FAIL" not in out


def test_gradcheck_output_independent_of_hash_seed():
    src = str(Path(dstrack.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("1", "2"):
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-m", "dstrack.cli", "gradcheck", "--seeds", "1"],
                              env=env, capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert b"gradient suite passed" in outs[0]


def test_python_m_dstrack_runs_the_cli():
    src = str(Path(dstrack.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-m", "dstrack", "gradcheck", "--help"],
                          env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert b"usage: dstrack gradcheck" in proc.stdout


def test_one_and_two_blas_threads_give_the_same_bytes(tmp_path):
    # at the default config (d = 256, ffn_hidden = 1024) the feed-forward
    # matmuls are large enough for OpenBLAS to split them across threads;
    # track and train output must not depend on that split.  One process per
    # thread count runs both commands, since importing numpy dominates.
    src = str(Path(dstrack.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    seq = tmp_path / "seq.json"
    assert run(["synth", "--scenario", "crowd", "--seed", "0", "--frames", "3",
                "--out", str(seq)]) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        commands = [["track", str(seq), "--out", str(out / "res.jsonl")],
                    ["train", str(seq), "--iters", "2", "--out", str(out / "m.ckpt"),
                     "--curve", str(out / "loss.csv")]]
        script = ("import sys\nfrom dstrack.cli import main\n"
                  f"sys.exit(max(main(argv) for argv in {commands!r}))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("res.jsonl", "loss.csv", "m.ckpt")])
    assert outputs[0] == outputs[1]


def assert_one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


def short_sequence(tmp_path, cfg_path, crops=False):
    seq = tmp_path / "seq.json"
    run(["synth", "--scenario", "crowd", "--seed", "0", "--frames", "3",
         "--config", cfg_path, "--out", str(seq)] + ["--crops"] * crops)
    return seq


def _header_without_tensors(_full):
    blob = json.dumps({"version": nn.CHECKPOINT_VERSION}).encode()
    return nn.CHECKPOINT_MAGIC + struct.pack("<II", nn.CHECKPOINT_VERSION, len(blob)) + blob


def _header_with_entry(*entries):
    def damage(full):
        blob = json.dumps({"version": nn.CHECKPOINT_VERSION, "tensors": list(entries)}).encode()
        return (nn.CHECKPOINT_MAGIC + struct.pack("<II", nn.CHECKPOINT_VERSION, len(blob))
                + blob + full[-12:])
    return damage


BAD_ENTRY = "checkpoint header: tensor entry 0 needs a name and a shape of non-negative integers"


# a checkpoint starts with 4 magic bytes, then version and header length
@pytest.mark.parametrize("damage, message", [
    (lambda full: full[:4], "checkpoint header truncated"),
    (lambda full: full[:12 + 5], "checkpoint header truncated"),
    (_header_without_tensors, "checkpoint header has no tensors list"),
    (_header_with_entry({"name": "w"}), BAD_ENTRY),
    (_header_with_entry({"shape": [3]}), BAD_ENTRY),
    (_header_with_entry(["w", [3]]), BAD_ENTRY),
    (lambda full: b"not a checkpoint at all", "not a checkpoint file (bad magic)"),
    # a terabyte of float32s declared, 12 bytes present: refused before any read
    (_header_with_entry({"name": "w", "shape": [1099511627776]}),
     "checkpoint payload truncated"),
    (lambda full: full[:8] + struct.pack("<I", 0xFFFFFFFF) + full[12:],
     "checkpoint header truncated"),
    (_header_with_entry({"name": "w", "shape": [1]}, {"name": "w", "shape": [2]}),
     "checkpoint header lists tensor w twice"),
], ids=["cut_after_magic", "cut_inside_header", "header_without_tensors",
        "entry_without_shape", "entry_without_name", "entry_not_object", "garbage",
        "shape_beyond_payload", "header_length_beyond_file", "name_listed_twice"])
def test_damaged_checkpoint_is_runtime_error(tmp_path, cfg_path, capsys, damage, message):
    seq = short_sequence(tmp_path, cfg_path)
    good = tmp_path / "good.ckpt"
    nn.save_checkpoint(str(good), {"w": np.zeros(3)})
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(damage(good.read_bytes()))
    capsys.readouterr()
    assert run(["track", str(seq), "--config", cfg_path, "--weights", str(bad)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err == f"error: {bad}: {message}\n"


def test_checkpoint_with_unexpected_tensor_is_runtime_error(tmp_path, cfg_path, capsys):
    # every model tensor present plus one the model does not have, as in a
    # checkpoint written by a model with parameters since removed
    seq = short_sequence(tmp_path, cfg_path)
    state = TrackingModel(SMALL).store.state_dict()
    state["stray.w"] = np.zeros(3)
    ckpt = tmp_path / "extra.ckpt"
    nn.save_checkpoint(str(ckpt), state)
    capsys.readouterr()
    assert run(["track", str(seq), "--config", cfg_path, "--weights", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {ckpt}: ")
    assert "stray.w" in err


def test_checkpoint_with_nan_weight_is_runtime_error(tmp_path, cfg_path, capsys):
    # one NaN weight in the matching layer of a trained checkpoint makes
    # every detection of every frame open a new track, so it is refused at
    # load
    seq = tmp_path / "seq.json"
    run(["synth", "--scenario", "crossing", "--seed", "0", "--frames", "41",
         "--config", cfg_path, "--out", str(seq)])
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", str(seq), "--config", cfg_path, "--iters", "2",
                "--out", str(ckpt)]) == 0
    state = nn.load_checkpoint(str(ckpt))
    state["match.wq"][0, 0] = np.nan
    nn.save_checkpoint(str(ckpt), state)
    capsys.readouterr()
    assert run(["track", str(seq), "--config", cfg_path, "--weights", str(ckpt)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_error_line(err)
    assert err.startswith(f"error: {ckpt}: checkpoint tensor match.wq has non-finite values")


def test_checkpoint_with_ffn_hidden_wide_edge_refresh_is_runtime_error(tmp_path, cfg_path,
                                                                       capsys):
    # a checkpoint whose decoder edge refresh is ffn_hidden wide, as written
    # before d_e became the refresh width, is refused with no conversion
    seq = short_sequence(tmp_path, cfg_path)
    state = TrackingModel(SMALL).store.state_dict()
    hidden = SMALL.ffn_hidden
    for n in range(SMALL.n_decoder_stages):
        p = f"decoder.stage{n}.ffn_e"
        state[f"{p}.w1"] = np.zeros((hidden, 1))
        state[f"{p}.b1"] = np.zeros(hidden)
        state[f"{p}.w2"] = np.zeros((1, hidden))
    ckpt = tmp_path / "wide.ckpt"
    nn.save_checkpoint(str(ckpt), state)
    capsys.readouterr()
    assert run(["track", str(seq), "--config", cfg_path, "--weights", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {ckpt}: ")
    assert "decoder.stage0.ffn_e.w1" in err


@pytest.mark.parametrize("command", ["track", "train"])
def test_keypoint_count_mismatch_is_runtime_error(tmp_path, cfg_path, capsys, command):
    # an 8-keypoint sequence under a 4-keypoint config is refused at load,
    # naming the first detection and both counts, before any frame runs
    seq = tmp_path / "seq.json"
    run(["synth", "--scenario", "crossing", "--seed", "0", "--frames", "3",
         "--config", cfg_path, "--out", str(seq)])
    other = tmp_path / "k4.json"
    other.write_text(json.dumps(dict(SMALL_CFG, keypoint_count=4, oks_kappas=[0.08] * 4)))
    argv = {"track": ["track", str(seq)],
            "train": ["train", str(seq), "--iters", "1", "--out", str(tmp_path / "m.ckpt")]}
    capsys.readouterr()
    assert run(argv[command] + ["--config", str(other)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {seq}: frame 0, detection 0: pose has 8 keypoints, "
                          "config expects keypoint_count 4")


def _drop_box(doc):
    del doc["frames"][1]["detections"][2]["box"]


def _detections_not_list(doc):
    doc["frames"][0]["detections"] = {"box": None}


def _null_index(doc):
    doc["frames"][1]["index"] = None


def _short_image_size(doc):
    doc["frames"][0]["image_size"] = [1]


def _null_duplicates(doc):
    doc["frames"][1]["duplicates"] = None


def _as_list(det, name):
    """det[name], written packed, as the nested list a hand-written file holds."""
    packed = det[name]
    raw = base64.b64decode(packed["f64le"])
    return np.frombuffer(raw, dtype="<f8").reshape(packed["shape"]).tolist()


def _nan_in_crop(doc):
    det = doc["frames"][1]["detections"][0]
    det["crop"] = _as_list(det, "crop")
    det["crop"][0][0][0] = float("nan")


def _short_crop(doc):
    det = doc["frames"][1]["detections"][0]
    det["crop"] = [channel[:8] for channel in _as_list(det, "crop")]


def _drop_crop(doc):
    del doc["frames"][1]["detections"][0]["crop"]


def _short_appearance(doc):
    det = doc["frames"][2]["detections"][1]
    det["appearance"] = _as_list(det, "appearance")[:5]


def _mixed_frame(doc):
    # an appearance-only detection in a frame the backbone must embed
    det = doc["frames"][2]["detections"][1]
    del det["crop"]
    det["appearance"] = [0.5] * SMALL_CFG["d"]


def _list_identity(doc):
    doc["frames"][1]["detections"][0]["identity"] = [1]


def _list_fps(doc):
    doc["fps"] = [30]


def _ragged_appearance(doc):
    doc["frames"][1]["detections"][0]["appearance"] = [[0.5, 0.5], [0.5]]


def _packed_appearance(doc):
    return doc["frames"][1]["detections"][0]["appearance"]


def _appearance_string(doc):
    doc["frames"][1]["detections"][0]["appearance"] = "0.5"


def _packed_extra_key(doc):
    _packed_appearance(doc)["dtype"] = "float64"


def _packed_without_shape(doc):
    del _packed_appearance(doc)["shape"]


def _packed_shape_not_list(doc):
    _packed_appearance(doc)["shape"] = 16


def _packed_shape_negative(doc):
    _packed_appearance(doc)["shape"] = [-16]


def _packed_shape_float(doc):
    _packed_appearance(doc)["shape"] = [16.0]


def _packed_bytes_not_string(doc):
    _packed_appearance(doc)["f64le"] = [0.5] * 16


def _packed_bytes_not_base64(doc):
    _packed_appearance(doc)["f64le"] = "not base64!"


def _packed_bytes_short(doc):
    _packed_appearance(doc)["shape"] = [17]


def _packed_crop_bytes_short(doc):
    doc["frames"][1]["detections"][0]["crop"]["shape"] = [3, 64, 33]


CROP_DAMAGES = (_nan_in_crop, _short_crop, _drop_crop, _mixed_frame, _packed_crop_bytes_short)
NOT_PACKED = "must be a nested list or an object with exactly 'shape' and 'f64le'"
BAD_SHAPE = "shape must be a list of non-negative integers"


def damaged_sequence(tmp_path, cfg_path, damage):
    seq = short_sequence(tmp_path, cfg_path, crops=damage in CROP_DAMAGES)
    doc = json.loads(seq.read_text())
    damage(doc)
    seq.write_text(json.dumps(doc))
    return seq


@pytest.mark.parametrize("damage, message", [
    (_drop_box, "frame 1, detection 2: missing field 'box'"),
    (_detections_not_list, "frame 0: detections must be a list"),
    (_null_index, "frame 1 in the frames list: index: expected an integer, got None"),
    (_short_image_size, "frame 0: image_size must be [height, width]"),
    (_null_duplicates, "frame 1: duplicates must be a list"),
    (_nan_in_crop, "frame 1, detection 0: detection crop must be finite"),
    # the config's crop is 64x32; both are refused at load, not at frame 1
    (_short_crop, "frame 1, detection 0: crop is 8x32, "
                  "config expects crop_height x crop_width 64x32"),
    (_drop_crop, "frame 1, detection 0: has neither an appearance vector nor a crop"),
    # both are refused at load, not when frame 2 runs
    (_short_appearance, "frame 2, detection 1: appearance embedding has length 5, "
                        "config expects d 16"),
    (_mixed_frame, "frame 2, detection 1: has an appearance vector but no crop, "
                   "while detection 0 has only a crop"),
    # train and eval would hash the identity; track would not read it
    (_list_identity, "frame 1, detection 0: identity must be an integer or null, got [1]"),
    (_list_fps, "fps must be a finite number, got [30]"),
    (_ragged_appearance, "frame 1, detection 0: appearance: setting an array element "
                         "with a sequence"),
    # a packed array is {"shape": [...], "f64le": base64 float64 bytes}
    (_appearance_string, f"frame 1, detection 0: appearance {NOT_PACKED}"),
    (_packed_extra_key, f"frame 1, detection 0: appearance {NOT_PACKED}"),
    (_packed_without_shape, f"frame 1, detection 0: appearance {NOT_PACKED}"),
    (_packed_shape_not_list, f"frame 1, detection 0: appearance: {BAD_SHAPE}, got 16"),
    (_packed_shape_negative, f"frame 1, detection 0: appearance: {BAD_SHAPE}, got [-16]"),
    (_packed_shape_float, f"frame 1, detection 0: appearance: {BAD_SHAPE}, got [16.0]"),
    (_packed_bytes_not_string, "frame 1, detection 0: appearance: f64le must be a base64 string"),
    (_packed_bytes_not_base64, "frame 1, detection 0: appearance: f64le is not valid base64"),
    (_packed_bytes_short, "frame 1, detection 0: appearance: f64le holds 128 bytes, "
                          "shape [17] needs 136"),
    (_packed_crop_bytes_short, "frame 1, detection 0: crop: f64le holds 49152 bytes, "
                               "shape [3, 64, 33] needs 50688"),
])
def test_malformed_sequence_is_runtime_error(tmp_path, cfg_path, capsys, damage, message):
    seq = damaged_sequence(tmp_path, cfg_path, damage)
    capsys.readouterr()
    assert run(["track", str(seq), "--config", cfg_path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_error_line(err)
    assert err.startswith(f"error: {seq}: {message}")


def _huge_appearance(doc):
    det = doc["frames"][1]["detections"][0]
    det["appearance"] = _as_list(det, "appearance")
    det["appearance"][0] = 1e200


def _huge_box(doc):
    box = doc["frames"][1]["detections"][0]["box"]
    box["x_max"] = box["y_max"] = 1e200


@pytest.mark.parametrize("damage", [_huge_appearance, _huge_box],
                         ids=["appearance_overflows_layer_norm", "box_overflows_iou"])
def test_float_overflow_stops_track_at_its_frame(tmp_path, cfg_path, capsys, damage):
    # finite inputs that overflow inside the model stop the run at their
    # frame, exit 1, where numpy would only warn and tracking would go on
    seq = damaged_sequence(tmp_path, cfg_path, damage)
    out = tmp_path / "res.jsonl"
    capsys.readouterr()
    assert run(["track", str(seq), "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {seq}: frame 1, overflow encountered in ")
    assert not out.exists()


@pytest.mark.parametrize("damage", [_list_identity, _list_fps])
def test_train_and_eval_refuse_malformed_labels_at_load(tmp_path, cfg_path, capsys, damage):
    seq = short_sequence(tmp_path, cfg_path)
    res = tmp_path / "res.jsonl"
    assert run(["track", str(seq), "--config", cfg_path, "--out", str(res)]) == 0
    doc = json.loads(seq.read_text())
    damage(doc)
    seq.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["train", str(seq), "--config", cfg_path, "--iters", "1",
                  "--out", str(tmp_path / "m.ckpt")],
                 ["eval", str(res), str(seq)]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith(f"error: {seq}: ")


def test_train_names_the_broken_file_of_several(tmp_path, cfg_path, capsys):
    good = short_sequence(tmp_path, cfg_path)
    doc = json.loads(good.read_text())
    _drop_box(doc)
    broken = tmp_path / "b.json"
    broken.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["train", str(good), str(broken), "--config", cfg_path, "--iters", "1",
                "--out", str(tmp_path / "m.ckpt")]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {broken}: frame 1, detection 2: missing field 'box'")


def test_train_refuses_short_appearance_at_load(tmp_path, cfg_path, capsys):
    seq = damaged_sequence(tmp_path, cfg_path, _short_appearance)
    capsys.readouterr()
    assert run(["train", str(seq), "--config", cfg_path, "--iters", "1",
                "--out", str(tmp_path / "m.ckpt")]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"{seq}: frame 2, detection 1: appearance embedding has length 5" in err
    assert not (tmp_path / "m.ckpt").exists()


def _frame_1_new_tracks(pairs, **fields):
    return json.dumps(dict({"frame": 1, "assignments": [], "duplicates": [],
                            "new_tracks": pairs, "closed_tracks": []}, **fields))


PAIRS = "expected [detection index, track id], two non-negative integers"
INDEX = "expected a non-negative integer"
BUCKETS = "assignments, duplicates and new_tracks"
# frame 1's 8 detections, each opening a track: a record that partitions them
EACH_NEW = [[i, 10 + i] for i in range(8)]


@pytest.mark.parametrize("bad_line, message", [
    ('{"frame": 1, "duplicates": [], "new_tracks": [], "closed_tracks": []}',
     "results line 2: missing field 'assignments'"),
    ("[1, 2]", "results line 2: not a JSON object"),
    # each frame of the sequence has 8 detections, indices 0..7
    (_frame_1_new_tracks([[8, 0]]),
     "frame 1: detection index 8 is out of range, the frame has 8 detections"),
    (_frame_1_new_tracks([["x", 0]]), f"results line 2: new_tracks: {PAIRS}, got ['x', 0]"),
    (_frame_1_new_tracks([[-1, 0]]), f"results line 2: new_tracks: {PAIRS}, got [-1, 0]"),
    (_frame_1_new_tracks([[True, 0]]), f"results line 2: new_tracks: {PAIRS}, got [True, 0]"),
    (_frame_1_new_tracks(EACH_NEW, duplicates=["x"]),
     f"results line 2: duplicates: {INDEX}, got 'x'"),
    (_frame_1_new_tracks(EACH_NEW, closed_tracks=[-1]),
     f"results line 2: closed_tracks: {INDEX}, got -1"),
    (_frame_1_new_tracks(EACH_NEW, frame=2), "record 1 names frame 2, expected frame 1"),
    (_frame_1_new_tracks(EACH_NEW, frame="1"), f"results line 2: frame: {INDEX}, got '1'"),
    (_frame_1_new_tracks(EACH_NEW, frame=True), f"results line 2: frame: {INDEX}, got True"),
    (_frame_1_new_tracks(EACH_NEW, frame=1.9), f"results line 2: frame: {INDEX}, got 1.9"),
    (_frame_1_new_tracks(EACH_NEW + [[0, 5]]),
     f"frame 1: detection 0 is listed 2 times in {BUCKETS}"),
    (_frame_1_new_tracks(EACH_NEW, duplicates=[3]),
     f"frame 1: detection 3 is listed 2 times in {BUCKETS}"),
    (_frame_1_new_tracks(EACH_NEW[:7]), f"frame 1: detection 7 is missing from {BUCKETS}"),
], ids=["no_assignments", "not_object", "index_past_detections", "index_string",
        "index_negative", "index_bool", "duplicate_string", "closed_track_negative",
        "frame_named_elsewhere", "frame_string", "frame_bool", "frame_fraction",
        "detection_listed_twice", "duplicate_also_assigned",
        "detection_missing"])
def test_malformed_results_is_runtime_error(tmp_path, cfg_path, capsys, bad_line, message):
    seq = short_sequence(tmp_path, cfg_path)
    res = tmp_path / "res.jsonl"
    assert run(["track", str(seq), "--config", cfg_path, "--out", str(res)]) == 0
    lines = res.read_text().splitlines()
    lines[1] = bad_line
    res.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["eval", str(res), str(seq)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {res}: {message}")


def test_config_not_object_is_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("5")
    code = run(["synth", "--scenario", "crowd", "--frames", "2",
                "--config", str(p), "--out", str(p) + ".out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value, message", [
    ("d_e", -1, "edge width d_e must be positive"),
    ("d_e", 32.5, "d_e must be an integer, got 32.5"),
    ("d", True, "d must be an integer, got True"),
    ("keypoint_count", 8.5, "keypoint_count must be an integer, got 8.5"),
    ("tau_age", 1.5, "tau_age must be an integer, got 1.5"),
    ("crop_height", 64.0, "crop_height must be an integer, got 64.0"),
    ("alpha", float("nan"), "alpha must be a finite number, got nan"),
    ("tau_dup", float("inf"), "tau_dup must be a finite number, got inf"),
    ("oks_kappas", [float("nan")] + [0.08] * 7, "oks_kappas[0] must be finite, got nan"),
    ("oks_kappas", 0.1, "oks_kappas must be a list of numbers, got 0.1"),
    ("oks_kappas", "0.1", "oks_kappas must be a list of numbers, got '0.1'"),
    ("oks_kappas", ["x"] + [0.08] * 7, "oks_kappas[0] must be a number, got 'x'"),
], ids=["d_e_negative", "d_e_fraction", "d_bool", "keypoint_count_fraction",
        "tau_age_fraction", "crop_height_float", "alpha_nan", "tau_dup_inf",
        "kappa_nan",
        "kappas_number", "kappas_string", "kappa_string"])
def test_bad_config_value_is_usage_error(tmp_path, cfg_path, capsys, field, value, message):
    # refused when the config is read, before any frame runs or any file is written
    seq = short_sequence(tmp_path, cfg_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SMALL_CFG, **{field: value})))
    out = tmp_path / "out.json"
    capsys.readouterr()
    for argv in (["track", str(seq), "--config", str(bad)],
                 ["synth", "--scenario", "crowd", "--frames", "2", "--crops",
                  "--config", str(bad), "--out", str(out)]):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
    assert not out.exists()


def test_crop_sequence_with_a_checkpoint_without_backbone(tmp_path, cfg_path, capsys):
    # a checkpoint trained on appearance vectors has no backbone.* tensors,
    # so it cannot embed crops: track refuses before the first frame
    crops = short_sequence(tmp_path, cfg_path, crops=True)
    ckpt, res = tmp_path / "vec.ckpt", tmp_path / "res.jsonl"
    nn.save_checkpoint(str(ckpt), TrackingModel(SMALL).store.state_dict())
    capsys.readouterr()
    assert run(["track", str(crops), "--config", cfg_path, "--weights", str(ckpt),
                "--out", str(res)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {ckpt}: checkpoint has no backbone")
    assert str(crops) in err
    assert not res.exists()


def test_checkpoint_of_the_old_default_edge_width(tmp_path, capsys):
    # d_e once defaulted to d, so a checkpoint written then has a d_e wide
    # edge path (256 at the default d) where the config now gives 32; it
    # loads again once the config names its width
    base = {k: v for k, v in SMALL_CFG.items() if k != "d_e"}
    new_cfg, old_cfg = tmp_path / "new.json", tmp_path / "old.json"
    new_cfg.write_text(json.dumps(base))
    old_cfg.write_text(json.dumps(dict(base, d_e=256)))
    seq = short_sequence(tmp_path, str(new_cfg))
    old = TrackingModel(dataclasses.replace(SMALL, d_e=256))
    ckpt = tmp_path / "old.ckpt"
    nn.save_checkpoint(str(ckpt), old.store.state_dict())
    capsys.readouterr()
    assert run(["track", str(seq), "--config", str(new_cfg), "--weights", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {ckpt}: ")
    assert "edge_head" in err
    res = tmp_path / "res.jsonl"
    assert run(["track", str(seq), "--config", str(old_cfg), "--weights", str(ckpt),
                "--out", str(res)]) == 0
    assert len(res.read_text().strip().splitlines()) == 3
