import dataclasses
import itertools
import re
from pathlib import Path

import pytest

from dstrack.config import EngineConfig, default_kappas, validate_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_defaults_accepted():
    cfg = EngineConfig()
    assert validate_config(cfg) is cfg
    assert cfg.d == 256
    assert cfg.d_e == 32
    assert cfg.alpha == 0.3
    assert cfg.tau_dup == 0.4
    assert cfg.tau_age == 60
    assert cfg.n_encoder_stages == 2
    assert cfg.n_decoder_stages == 2
    assert cfg.ffn_hidden == 1024
    assert cfg.keypoint_count == 15
    assert len(cfg.oks_kappas) == 15


def test_validate_is_idempotent():
    cfg = validate_config(EngineConfig())
    assert validate_config(cfg) is cfg


def test_alpha_out_of_range():
    with pytest.raises(ValueError, match="alpha out of range"):
        validate_config(EngineConfig(alpha=1.3))
    with pytest.raises(ValueError, match="alpha out of range"):
        validate_config(EngineConfig(alpha=-0.01))


def test_embedding_dim_must_be_positive():
    with pytest.raises(ValueError, match="embedding dim must be positive"):
        validate_config(EngineConfig(d=0))


def test_first_violation_wins():
    # both alpha and d invalid: the alpha message comes first
    with pytest.raises(ValueError, match="alpha out of range"):
        validate_config(EngineConfig(alpha=2.0, d=0))


def test_kappa_defaults_per_skeleton():
    assert len(default_kappas(17)) == 17
    assert default_kappas(17)[0] == 0.026
    assert len(default_kappas(15)) == 15
    assert default_kappas(15)[3] == 0.079  # left shoulder keeps its value
    assert default_kappas(9) == (0.07,) * 9


def test_kappa_validation():
    with pytest.raises(ValueError, match="kappa count"):
        validate_config(EngineConfig(keypoint_count=15, oks_kappas=(0.1, 0.2)))
    bad = (0.1,) * 14 + (0.0,)
    with pytest.raises(ValueError, match="strictly positive"):
        validate_config(EngineConfig(keypoint_count=15, oks_kappas=bad))


def test_readme_config_table_lists_exactly_the_fields():
    lines = README.read_text().splitlines()
    start = lines.index("| field | default | meaning |")
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    listed = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(f.name for f in dataclasses.fields(EngineConfig))


def test_tau_and_dims():
    with pytest.raises(ValueError, match="tau_dup out of range"):
        validate_config(EngineConfig(tau_dup=1.5))
    with pytest.raises(ValueError, match="tau_age"):
        validate_config(EngineConfig(tau_age=-1))
    with pytest.raises(ValueError, match="divisible by 8"):
        validate_config(EngineConfig(crop_height=62))


def test_d_e_does_not_follow_d():
    assert EngineConfig(d=64).d_e == 32
    assert EngineConfig(d=64, d_e=8).d_e == 8
    with pytest.raises(ValueError, match="edge width d_e must be positive"):
        validate_config(EngineConfig(d_e=-1))
