"""Central finite-difference checks for every op and composite layer.

Each check builds a tiny random instance, runs grad_check (random-projection
objective, central differences) and reports the max relative error.  The
whole suite across 5 seeds is the gradient acceptance gate and also backs
the `gradcheck` CLI subcommand.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import nn
from .config import EngineConfig
from .spapde import init_spapde_params, spapde_forward, spapde_modulation
from .training import loss_attn
from .transformer import TrackingModel, aggregate, dual_source

TOL = 1e-4


@dataclass
class CheckOutcome:
    name: str
    seed: int
    max_rel_error: float

    def ok(self) -> bool:
        return self.max_rel_error <= TOL


def _t(rng, *shape, scale=1.0, requires_grad=True):
    return nn.Tensor(scale * rng.standard_normal(shape), requires_grad=requires_grad)


def _away_from(x, points):
    """Move entries that sit within 0.05 of a non-differentiable point up
    by 0.12."""
    x = x.copy()
    for p in points:
        close = np.abs(x - p) < 0.05
        x[close] += 0.12
    return x


def _tiny_model(seed):
    cfg = EngineConfig(d=6, d_e=6, keypoint_count=3, oks_kappas=(0.1,) * 3,
                       ffn_hidden=8, n_encoder_stages=1, n_decoder_stages=2,
                       crop_height=16, crop_width=8)
    return TrackingModel(cfg, seed=seed)


# --- op checks --------------------------------------------------------------

def _check_add(rng):
    a, b = _t(rng, 3, 4), _t(rng, 4)
    return lambda x, y: nn.add(x, y), [a, b]


def _check_mul(rng):
    a, b = _t(rng, 3, 4), _t(rng, 3, 1)
    return lambda x, y: nn.mul(x, y), [a, b]


def _check_matmul(rng):
    a, b = _t(rng, 3, 4), _t(rng, 4, 2)
    return lambda x, y: nn.matmul(x, y), [a, b]


def _check_linear(rng):
    x, w, b = _t(rng, 2, 3, 4), _t(rng, 5, 4), _t(rng, 5)
    return lambda *i: nn.linear(*i), [x, w, b]


def _check_relu(rng):
    x = nn.Tensor(_away_from(rng.standard_normal((3, 4)), [0.0]), requires_grad=True)
    return lambda v: nn.relu(v), [x]


def _check_gelu(rng):
    return lambda v: nn.gelu(v), [_t(rng, 3, 4, scale=2.0)]


def _check_sigmoid(rng):
    return lambda v: nn.sigmoid(v), [_t(rng, 3, 4, scale=2.0)]


def _check_log(rng):
    x = nn.Tensor(rng.uniform(0.2, 3.0, (3, 4)), requires_grad=True)
    return lambda v: nn.log(v), [x]


def _check_sqrt(rng):
    x = nn.Tensor(rng.uniform(0.2, 3.0, (3, 4)), requires_grad=True)
    return lambda v: nn.sqrt(v), [x]


def _check_reciprocal(rng):
    x = nn.Tensor(rng.uniform(0.3, 2.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
                  requires_grad=True)
    return lambda v: nn.reciprocal(v), [x]


def _check_clip(rng):
    raw = _away_from(rng.uniform(-2.0, 2.0, (4, 4)), [-0.8, 0.8])
    x = nn.Tensor(raw, requires_grad=True)
    return lambda v: nn.clip(v, -0.8, 0.8), [x]


def _check_reduce_sum(rng):
    return lambda v: nn.reduce_sum(v, axis=1), [_t(rng, 3, 4)]


def _check_reduce_mean(rng):
    return lambda v: nn.reduce_mean(v, axis=0, keepdims=True), [_t(rng, 3, 4)]


def _check_reduce_max(rng):
    base = rng.standard_normal((3, 5))
    base += np.arange(15).reshape(3, 5) * 1e-3  # unique maxima
    return lambda v: nn.reduce_max(v, axis=1), [nn.Tensor(base, requires_grad=True)]


def _check_reshape_transpose(rng):
    x = _t(rng, 2, 3, 4)
    return lambda v: nn.transpose(nn.reshape(v, (6, 4))), [x]


def _check_take(rng):
    x = _t(rng, 4, 5)
    key = (np.array([0, 2, 2, 3]), np.array([1, 0, 4, 2]))
    return lambda v: nn.take(v, key), [x]


def _check_concat_stack(rng):
    a, b = _t(rng, 2, 3), _t(rng, 2, 3)
    return lambda x, y: nn.stack([nn.reduce_sum(nn.concat([x, y], axis=0), axis=1),
                                  nn.reduce_sum(nn.concat([y, x], axis=0), axis=1)],
                                 axis=0), [a, b]


def _check_softmax_null(rng):
    return lambda v: nn.softmax_null(v), [_t(rng, 3, 4, scale=2.0)]


def _check_layer_norm(rng):
    x, g, b = _t(rng, 3, 6, scale=2.0), _t(rng, 6), _t(rng, 6)
    return lambda *i: nn.layer_norm(*i), [x, g, b]


def _check_ffn(rng):
    x = _t(rng, 3, 4)
    w1, b1, w2, b2 = _t(rng, 6, 4), _t(rng, 6), _t(rng, 4, 6), _t(rng, 4)
    return lambda *i: nn.ffn(*i), [x, w1, b1, w2, b2]


def _check_conv3x3(rng):
    x = _t(rng, 2, 2, 5, 4)
    w, b = _t(rng, 3, 2, 3, 3), _t(rng, 3)
    return lambda *i: nn.conv3x3(*i), [x, w, b]


def _check_avg_pool2(rng):
    return lambda v: nn.avg_pool2(v), [_t(rng, 1, 2, 4, 6)]


# --- composite checks -------------------------------------------------------

def _check_dual_source_attention(rng):
    model = _tiny_model(int(rng.integers(1 << 31)))
    s = model.store
    e_t, e_d, o_edge = _t(rng, 2, 6), _t(rng, 3, 6), _t(rng, 2, 3)
    p = "decoder.stage0"
    params = [s[f"{p}.wq"], s[f"{p}.wk"], s[f"{p}.wa"]]

    def run(et, ed, oe, wq, wk, wa):
        bundle = dual_source(et, ed, oe, 0.3, wq, wk)
        return nn.concat([nn.reshape(aggregate(bundle.fused, ed, wa), (12,)),
                          nn.reshape(bundle.fused, (8,))], axis=0)
    return run, [e_t, e_d, o_edge] + params


def _check_decoder_layer(rng):
    model = _tiny_model(int(rng.integers(1 << 31)))
    e_t, e_d, o_edge = _t(rng, 2, 6), _t(rng, 3, 6), _t(rng, 2, 3)
    s = model.store
    extra = [s["decoder.stage0.ffn_e.w1"], s["decoder.stage0.ffn_e.w2"],
             s["decoder.stage0.ffn_e.b2"], s["decoder.stage0.ffn.w1"],
             s["decoder.stage0.ln1.g"]]

    def run(et, oe, ed, *_params):
        out_t, out_e, _ = model.decoder_layer(et, oe, ed, stage=0)
        return nn.concat([nn.reshape(out_t, (12,)), nn.reshape(out_e, (6,))], axis=0)
    return run, [e_t, o_edge, e_d] + extra


def _check_matching_layer(rng):
    model = _tiny_model(int(rng.integers(1 << 31)))
    e_t, e_d, o_edge = _t(rng, 2, 6), _t(rng, 3, 6), _t(rng, 2, 3)
    s = model.store
    params = [s["match.wq"], s["match.wk"]]

    def run(et, ed, oe, *_params):
        return model.matching_layer(et, ed, oe).fused
    return run, [e_t, e_d, o_edge] + params


def _check_encoder_stage(rng):
    model = _tiny_model(int(rng.integers(1 << 31)))
    e_d = _t(rng, 3, 6)
    s = model.store
    params = [s["encoder.stage0.wq"], s["encoder.stage0.wa"],
              s["encoder.stage0.ffn.w2"]]

    def run(ed, *_params):
        out, attn = model.encoder_forward(ed)
        return nn.concat([nn.reshape(out, (18,)), nn.reshape(attn[0], (12,))], axis=0)
    return run, [e_d] + params


def _check_forward_frame(rng):
    model = _tiny_model(int(rng.integers(1 << 31)))
    e_t, raw_edge, e_d = _t(rng, 2, 6), \
        nn.Tensor(rng.uniform(0, 1, (2, 3, 4)), requires_grad=True), _t(rng, 3, 6)

    def run(et, edge, ed):
        fwd = model.forward_frame(et, edge, ed)
        return nn.concat([nn.reshape(fwd.match.fused, (9,)),
                          nn.reshape(fwd.updated_tracks, (12,))], axis=0)
    return run, [e_t, raw_edge, e_d]


def _check_spapde_stack(rng):
    """Heatmap-conditioned normalization: features and heatmaps in, modulated
    features out, differentiated through the modulation convs as well."""
    store = nn.ParamStore()
    init_spapde_params(store, "sp", in_channels=3, feat_channels=2,
                       rng=np.random.default_rng(int(rng.integers(1 << 31))))
    f = _t(rng, 2, 2, 6, 4)
    heat = nn.Tensor(rng.uniform(0, 1, (2, 3, 6, 4)), requires_grad=True)
    params = [store["sp.shared.w"], store["sp.gamma.w"], store["sp.beta.w"],
              store["sp.gamma.b"]]

    def run(fv, hv, *_params):
        gamma, beta = spapde_modulation(hv, store, "sp")
        return spapde_forward(fv, gamma, beta)
    return run, [f, heat] + params


def _check_loss_attn(rng):
    logits = _t(rng, 2, 4, scale=1.5)

    def run(lg):
        return loss_attn(nn.softmax_null(lg), [[0, 3], []])
    return run, [logits]


CHECKS: List = [
    ("op add", _check_add),
    ("op mul", _check_mul),
    ("op matmul", _check_matmul),
    ("op linear", _check_linear),
    ("op relu", _check_relu),
    ("op gelu", _check_gelu),
    ("op sigmoid", _check_sigmoid),
    ("op log", _check_log),
    ("op sqrt", _check_sqrt),
    ("op reciprocal", _check_reciprocal),
    ("op clip", _check_clip),
    ("op reduce_sum", _check_reduce_sum),
    ("op reduce_mean", _check_reduce_mean),
    ("op reduce_max", _check_reduce_max),
    ("op reshape+transpose", _check_reshape_transpose),
    ("op take", _check_take),
    ("op concat+stack", _check_concat_stack),
    ("op softmax_null", _check_softmax_null),
    ("op layer_norm", _check_layer_norm),
    ("op ffn", _check_ffn),
    ("op conv3x3", _check_conv3x3),
    ("op avg_pool2", _check_avg_pool2),
    ("composite dual_source_attention", _check_dual_source_attention),
    ("composite decoder_layer", _check_decoder_layer),
    ("composite matching_layer", _check_matching_layer),
    ("composite encoder_stage", _check_encoder_stage),
    ("composite forward_frame", _check_forward_frame),
    ("composite spapde_stack", _check_spapde_stack),
    ("loss attn", _check_loss_attn),
]


def run_suite(seeds: int = 5, base_seed: int = 0) -> List[CheckOutcome]:
    outcomes = []
    for name, builder in CHECKS:
        for k in range(seeds):
            # crc32, not hash(): str hashes change with every interpreter run
            rng = np.random.default_rng(base_seed + 1000 * k + zlib.crc32(name.encode()) % 997)
            fn, inputs = builder(rng)
            err = nn.grad_check(fn, inputs, rng=np.random.default_rng(base_seed + k))
            outcomes.append(CheckOutcome(name=name, seed=k, max_rel_error=err))
    return outcomes


def suite_passed(outcomes: List[CheckOutcome]) -> bool:
    """True when at least one check ran and every check passed."""
    return bool(outcomes) and all(o.ok() for o in outcomes)


def format_outcomes(outcomes: List[CheckOutcome]) -> List[str]:
    lines = []
    by_name = {}
    for o in outcomes:
        by_name.setdefault(o.name, []).append(o)
    for name, group in by_name.items():
        worst = max(o.max_rel_error for o in group)
        status = "ok" if all(o.ok() for o in group) else "FAIL"
        lines.append(f"{name}: max_rel={worst:.3e} {status}")
    return lines
