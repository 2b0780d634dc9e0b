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
linear regime (tiny LN gain, bias well inside the monotone region of GELU).
Every weight is written in closed form: nothing is drawn at random and
nothing is fitted, so the model depends on the config alone.  Useful as an
untrained baseline and for scenario tests where behavior must be
predictable.
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
_EDGE_SIGNAL = 0.12      # signal/bias ratio in the edge head: its residual grows
                         # as the square, max|w3| as the inverse


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _cdf(x):
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def _gelu_val(x):
    return x * _cdf(x)


def _gelu_slope(x):
    return _cdf(x) + x * _phi(x)


def _set(store, name, value):
    store[name].data[...] = value


def _identity_head(store, prefix, d):
    """Make linear->LN->GELU->linear behave as the identity on rows that are
    already mean-0/var-1 (which encoder and decoder outputs are)."""
    slope = _gelu_slope(_LN_SHIFT)
    g0 = _gelu_val(_LN_SHIFT)
    _set(store, f"{prefix}.w1", np.eye(d))
    _set(store, f"{prefix}.b1", 0.0)
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
        _set(store, f"{prefix}.{name}", 0.0)
    for name in ("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"):
        _set(store, f"{prefix}.{name}", 0.0)


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


def _construct_edge_head(model: TrackingModel):
    """Write the edge head so that its logit is EDGE_GAIN * (mean(f) -
    EDGE_FLOOR) up to third order in t = mean(f) - 0.5.

    Over the d_e units, p = sqrt(2) cos(2 pi j / d_e) and q = sqrt(2) sin(2 pi
    j / d_e) are orthogonal, with mean 0 and mean square 1.  Each block's
    pre-LN input is a multiple of p + _EDGE_SIGNAL * t * q: p pins the LN
    statistics and q carries t.  Units j and d_e - j share p and have opposite
    q, so the even-order terms of LN+GELU cancel in the q readouts: w2, the
    projector onto q, and w3, whose gain is read from the head's own output
    at t = -0.25 and 0.25."""
    s = model.store
    d_e = model.cfg.d_e
    if d_e < 3:  # q = 0 for d_e <= 2: no unit can carry the signal
        raise ValueError(f"the heuristic edge head needs d_e >= 3, got d_e = {d_e}")
    angle = 2.0 * np.pi * np.arange(d_e) / d_e
    p, q = np.sqrt(2.0) * np.cos(angle), np.sqrt(2.0) * np.sin(angle)
    _set(s, "edge_head.w1", np.outer(_EDGE_SIGNAL * q, np.full(4, 0.25)))
    _set(s, "edge_head.b1", p - 0.5 * _EDGE_SIGNAL * q)
    _set(s, "edge_head.w2", np.outer(q, q) / d_e)
    # w2 passes q times _LN_EPS * slope * _EDGE_SIGNAL * t: the same ratio to b2
    _set(s, "edge_head.b2", _LN_EPS * _gelu_slope(_LN_SHIFT) * p)
    for block in ("1", "2"):
        _set(s, f"edge_head.ln{block}.g", np.full(d_e, _LN_EPS))
        _set(s, f"edge_head.ln{block}.b", np.full(d_e, _LN_SHIFT))
    lo, hi = model.edge_head(np.array([[0.25] * 4, [0.75] * 4])).data @ q
    _set(s, "edge_head.w3", EDGE_GAIN * 0.5 / (hi - lo) * q)
    _set(s, "edge_head.b3", EDGE_GAIN * (0.5 - EDGE_FLOOR))


def build_heuristic_model(cfg: EngineConfig, seed: int = 0) -> TrackingModel:
    """A TrackingModel whose behavior follows from geometry and appearance
    directly.  Raises ValueError for d_e < 3.

    Every weight is constructed, so `seed` changes nothing.  It stays only
    because perfbench/worker.py passes seed=0, and goes with the next change
    to the benchmark (ROADMAP item 3)."""
    model = TrackingModel(cfg, seed=None)  # every weight is set below
    s = model.store

    for n in range(cfg.n_encoder_stages):
        _passthrough_stage(s, f"encoder.stage{n}")

    _construct_edge_head(model)

    for n in range(cfg.n_decoder_stages):
        p = f"decoder.stage{n}"
        _passthrough_stage(s, p)
        last = n + 1 == cfg.n_decoder_stages
        _linear_ffn_e(s, f"{p}.ffn_e", MATCH_EDGE_SCALE if last else 1.0)

    _identity_head(s, "track_head", cfg.d)
    _identity_head(s, "new_track_head", cfg.d)

    _set(s, "match.wq", APPEARANCE_SCALE * np.eye(cfg.d))
    _set(s, "match.wk", np.eye(cfg.d))

    _set(s, "conf.w", 0.0)
    _set(s, "conf.b", np.array([GATE_BIAS]))
    return model
