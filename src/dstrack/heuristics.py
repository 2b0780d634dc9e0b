"""Hand-constructed model weights for a geometry+appearance baseline.

No training at all: the attention stack is wired so that

  * encoder and decoder leave embeddings unchanged (projections zeroed,
    residual LayerNorms are idempotent on normalized rows),
  * the edge path computes an affine, monotone readout of the raw
    [IoU, OKS x3] features: logit ~ gain * (mean(features) - floor),
  * the matching layer compares raw appearance directions at a fixed
    temperature,
  * the confidence gate stays shut, so a track keeps the appearance it was
    born with.

The GELU/LayerNorm blocks in the fixed architecture are pushed into their
linear regime (tiny LN gain, bias well inside the monotone region of GELU)
and the one remaining free linear layer is calibrated by least squares
against probes of the real forward pass.  Useful as an untrained baseline
and for scenario tests where behavior must be predictable.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf

from .config import EngineConfig
from .transformer import TrackingModel

EDGE_GAIN = 6.0          # slope of the edge logit in mean-feature units
EDGE_FLOOR = 0.05        # mean feature level at which the edge logit crosses 0
MATCH_EDGE_SCALE = 2.0   # last edge refresh gain, offsets decoder-stage damping
APPEARANCE_SCALE = 3.0   # temperature of the appearance matching logits
GATE_BIAS = -20.0        # sigmoid(-20) ~ 2e-9: embeddings never drift

_LN_EPS = 0.05           # LN gain during linearization
_LN_SHIFT = 3.0          # GELU operating point; slope there is ~1
_FFN_E_EPS = 0.01
_BIAS_SPREAD = 25.0      # dominates pre-LN variance so rows normalize affinely


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _cdf(x):
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def _gelu_val(x):
    return x * _cdf(x)


def _gelu_slope(x):
    return _cdf(x) + x * _phi(x)


def _zero(store, name):
    store[name].data[...] = 0.0


def _set(store, name, value):
    store[name].data[...] = value


def _unit_bias(rng, width):
    """Mean-zero, unit-std bias pattern; scaled up it pins the LN statistics
    so the normalized activations stay affine in the input."""
    q = rng.standard_normal(width)
    q -= q.mean()
    q /= q.std()
    return q


def _identity_head(store, prefix, d):
    """Make linear->LN->GELU->linear behave as the identity on rows that are
    already mean-0/var-1 (which encoder and decoder outputs are)."""
    slope = _gelu_slope(_LN_SHIFT)
    g0 = _gelu_val(_LN_SHIFT)
    _set(store, f"{prefix}.w1", np.eye(d))
    _zero(store, f"{prefix}.b1")
    _set(store, f"{prefix}.ln.g", np.full(d, _LN_EPS))
    _set(store, f"{prefix}.ln.b", np.full(d, _LN_SHIFT))
    _set(store, f"{prefix}.w2", np.eye(d) / (slope * _LN_EPS))
    _set(store, f"{prefix}.b2", np.full(d, -g0 / (slope * _LN_EPS)))


def _passthrough_stage(store, prefix):
    """Zero the attention delta and the FFN so the stage reduces to
    LayerNorm, which is idempotent on already-normalized rows.

    The weights of a model built with seed=None are zeros already, but
    unwritten: they read the kernel's shared zero page, which is far
    cheaper to stream than a trained model's d x d weights.  Writing the
    zeros gives each its own memory, so tracking with this model pays the
    weight traffic that a trained one does.
    """
    for name in ("wq", "wk", "wa"):
        _zero(store, f"{prefix}.{name}")
    for name in ("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"):
        _zero(store, f"{prefix}.{name}")


def _linear_ffn_e(store, prefix, scale):
    """Scalar-in, scalar-out refresh FFN_E(t) = scale * t, up to GELU
    curvature of order 1e-3."""
    hidden = store[f"{prefix}.w1"].data.shape[0]
    slope = _gelu_slope(_LN_SHIFT)
    g0 = _gelu_val(_LN_SHIFT)
    _set(store, f"{prefix}.w1", np.full((hidden, 1), _FFN_E_EPS))
    _set(store, f"{prefix}.b1", np.full(hidden, _LN_SHIFT))
    _set(store, f"{prefix}.w2", scale * (1.0 / (hidden * slope * _FFN_E_EPS)))
    _set(store, f"{prefix}.b2", scale * (-g0 / (slope * _FFN_E_EPS)))


def _probe_features(rng, n):
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * 4)).reshape(4, -1).T
    interior = rng.uniform(0.0, 1.0, size=(n, 4))
    return np.concatenate([corners, interior, np.full((1, 4), 0.5)], axis=0)


def _calibrate_edge_head(model: TrackingModel, rng):
    """Draw the two projections, linearize both LN+GELU blocks, then
    least-squares fit the output row so the edge logit is
    EDGE_GAIN * (mean(f) - EDGE_FLOOR)."""
    s = model.store
    d_e = model.cfg.d_e
    for name in ("edge_head.w1", "edge_head.w2"):  # fan-in uniform, as TrackingModel draws
        out_dim, in_dim = s[name].data.shape
        bound = 1.0 / np.sqrt(in_dim)
        _set(s, name, rng.uniform(-bound, bound, size=(out_dim, in_dim)))
    for block in ("1", "2"):
        _set(s, f"edge_head.b{block}", _BIAS_SPREAD * _unit_bias(rng, d_e))
        _set(s, f"edge_head.ln{block}.g", np.full(d_e, _LN_EPS))
        _set(s, f"edge_head.ln{block}.b", np.full(d_e, _LN_SHIFT))

    probes = _probe_features(rng, max(4 * d_e, 200))
    hidden = model.edge_head(probes).data                     # (N, d_e)
    target = EDGE_GAIN * (probes.mean(axis=1) - EDGE_FLOOR)
    design = np.concatenate([hidden, np.ones((len(probes), 1))], axis=1)
    beta, *_ = np.linalg.lstsq(design, target, rcond=None)

    _set(s, "edge_head.w3", beta[:-1])
    _set(s, "edge_head.b3", beta[-1])
    return float(np.max(np.abs(design @ beta - target)))


def build_heuristic_model(cfg: EngineConfig, seed: int = 0) -> TrackingModel:
    """A TrackingModel whose behavior follows from geometry and appearance
    directly; `model.edge_fit_residual` records the calibration error."""
    model = TrackingModel(cfg, seed=None)  # every weight is set below
    s = model.store
    rng = np.random.default_rng(seed + 0x5EED)

    for n in range(cfg.n_encoder_stages):
        _passthrough_stage(s, f"encoder.stage{n}")

    residual = _calibrate_edge_head(model, rng)

    for n in range(cfg.n_decoder_stages):
        p = f"decoder.stage{n}"
        _passthrough_stage(s, p)
        last = n + 1 == cfg.n_decoder_stages
        _linear_ffn_e(s, f"{p}.ffn_e", MATCH_EDGE_SCALE if last else 1.0)

    _identity_head(s, "track_head", cfg.d)
    _identity_head(s, "new_track_head", cfg.d)

    _set(s, "match.wq", APPEARANCE_SCALE * np.eye(cfg.d))
    _set(s, "match.wk", np.eye(cfg.d))

    _zero(s, "conf.w")
    _set(s, "conf.b", np.array([GATE_BIAS]))

    model.edge_fit_residual = residual
    return model
