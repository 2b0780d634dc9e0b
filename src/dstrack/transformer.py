"""Dual-source attention transformer.

`dual_source` attends queries over keys through two parallel channels: an
appearance channel (dot-product attention on embeddings) and a pose channel
(per-pair geometry logits).  Both are normalized with an extra null column
so a row can place mass on "nothing matches me", and the alpha gate blends
the two row-stochastic matrices:

    A = alpha * S_appearance + (1 - alpha) * S_geometry

Decoder stages run it track-major, the matching layer detection-major.

Every edge output layer (the edge head's `w3`, each decoder stage's
`ffn_e.w2`) is a single row, so only T x D geometry-logit matrices pass
between layers.

All attention projection matrices (query, key, aggregation) are
bias-free; feed-forward blocks and heads carry biases.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import nn
from .config import EngineConfig


@dataclass
class AttentionBundle:
    """Everything one dual-source attention produced, Q queries by K keys."""

    o_appear: nn.Tensor   # Q x K raw appearance logits
    o_edge: nn.Tensor     # Q x K raw geometry logits
    s_appear: nn.Tensor   # Q x (K+1) row-stochastic
    s_edge: nn.Tensor     # Q x (K+1) row-stochastic
    fused: nn.Tensor      # Q x (K+1) alpha-gated blend


@dataclass
class FrameForward:
    """Intermediates of one frame's model pass, kept for losses and update."""

    enc_out: nn.Tensor                 # D x d encoded detections
    enc_attn: List[nn.Tensor]          # per encoder stage, D x (D+1)
    bundles: List[AttentionBundle]     # per decoder stage, track-major
    head_out: nn.Tensor                # T x d, track embedding head output
    updated_tracks: nn.Tensor          # T x d, confidence-blended embeddings
    update_gate: np.ndarray            # T blend weights
    match: AttentionBundle             # detection-major; .fused is D x (T+1)


def fuse(alpha: float, a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    """The alpha gate; written once so every code path shares the exact
    floating-point evaluation order."""
    return nn.add(nn.mul(a, alpha), nn.mul(b, 1.0 - alpha))


def attention_logits(a, b, wq, wk) -> nn.Tensor:
    """Scaled dot-product logits of rows of `a` (queries) against rows of
    `b` (keys): (a wq^T)(b wk^T)^T / sqrt(d_k)."""
    q = nn.linear(a, wq)
    k = nn.linear(b, wk)
    return nn.mul(nn.linear(q, k), 1.0 / np.sqrt(q.data.shape[-1]))


def dual_source(queries, keys, o_edge, alpha, wq, wk) -> AttentionBundle:
    """Attention of queries (Q x d) over keys (K x d); o_edge: Q x K
    geometry logits."""
    o_appear = attention_logits(queries, keys, wq, wk)          # Q x K
    o_edge = nn.as_tensor(o_edge)
    s_appear = nn.softmax_null(o_appear)
    s_edge = nn.softmax_null(o_edge)
    return AttentionBundle(o_appear, o_edge, s_appear, s_edge, fuse(alpha, s_appear, s_edge))


def aggregate(probs, values, wa) -> nn.Tensor:
    """The attention update: the value rows weighted by `probs` with its
    null column dropped, projected by wa."""
    weights = nn.take(probs, (slice(None), slice(0, probs.data.shape[1] - 1)))
    return nn.linear(nn.matmul(weights, values), wa)


class TrackingModel:
    """Parameter container plus every forward pass of the association engine."""

    def __init__(self, cfg: EngineConfig, seed: Optional[int] = 0,
                 with_backbone: bool = False):
        """Fan-in weights are drawn from `seed`; with seed=None they start as
        zeros, for a caller that overwrites them (a checkpoint, the
        heuristic model) and so need not pay for the draw."""
        self.cfg = cfg
        self.store = nn.ParamStore()
        rng = None if seed is None else np.random.default_rng(seed)
        self._init_params(rng, with_backbone)

    # -- parameters --------------------------------------------------------

    def _init_params(self, rng, with_backbone):
        cfg = self.cfg
        d, d_e, hidden = cfg.d, cfg.d_e, cfg.ffn_hidden
        s = self.store

        def ffn_params(prefix, width, inner=hidden):
            s.create(f"{prefix}.w1", (inner, width), rng)
            s.create(f"{prefix}.b1", (inner,), rng, init="zeros")
            s.create(f"{prefix}.w2", (width, inner), rng)
            s.create(f"{prefix}.b2", (width,), rng, init="zeros")

        def ln_params(prefix, width):
            s.create(f"{prefix}.g", (width,), rng, init="ones")
            s.create(f"{prefix}.b", (width,), rng, init="zeros")

        for n in range(cfg.n_encoder_stages):
            p = f"encoder.stage{n}"
            s.create(f"{p}.wq", (d, d), rng)
            s.create(f"{p}.wk", (d, d), rng)
            s.create(f"{p}.wa", (d, d), rng)
            ffn_params(f"{p}.ffn", d)
            ln_params(f"{p}.ln1", d)
            ln_params(f"{p}.ln2", d)

        # edge head: 4 geometry features -> d_e, two LN+GELU blocks, one output row
        s.create("edge_head.w1", (d_e, 4), rng)
        s.create("edge_head.b1", (d_e,), rng, init="zeros")
        ln_params("edge_head.ln1", d_e)
        s.create("edge_head.w2", (d_e, d_e), rng)
        s.create("edge_head.b2", (d_e,), rng, init="zeros")
        ln_params("edge_head.ln2", d_e)
        s.create("edge_head.w3", (1, d_e), rng)
        s.create("edge_head.b3", (1,), rng, init="zeros")

        for n in range(cfg.n_decoder_stages):
            p = f"decoder.stage{n}"
            s.create(f"{p}.wq", (d, d), rng)
            s.create(f"{p}.wk", (d, d), rng)
            s.create(f"{p}.wa", (d, d), rng)
            ffn_params(f"{p}.ffn", d)
            ln_params(f"{p}.ln1", d)
            ln_params(f"{p}.ln2", d)
            # per-pair edge refresh: scalar fused logit -> d_e -> scalar logit
            ffn_params(f"{p}.ffn_e", 1, d_e)

        for head in ("track_head", "new_track_head"):
            s.create(f"{head}.w1", (d, d), rng)
            s.create(f"{head}.b1", (d,), rng, init="zeros")
            ln_params(f"{head}.ln", d)
            s.create(f"{head}.w2", (d, d), rng)
            s.create(f"{head}.b2", (d,), rng, init="zeros")

        # matching layer: own projections, no output linear after the gate
        s.create("match.wq", (d, d), rng)
        s.create("match.wk", (d, d), rng)

        # confidence gate over per-stage attention maxima
        s.create("conf.w", (cfg.n_decoder_stages,), rng)
        s.create("conf.b", (1,), rng, init="zeros")

        if with_backbone:
            from .spapde import init_backbone_params

            init_backbone_params(s, cfg, rng)

    # -- building blocks ---------------------------------------------------

    def _ffn(self, x, prefix):
        s = self.store
        return nn.ffn(x, s[f"{prefix}.w1"], s[f"{prefix}.b1"],
                      s[f"{prefix}.w2"], s[f"{prefix}.b2"])

    def _ln(self, x, prefix):
        s = self.store
        return nn.layer_norm(x, s[f"{prefix}.g"], s[f"{prefix}.b"])

    def _residual(self, x, delta, prefix):
        """The post-norm stage block: LN(x + delta), then LN(x + FFN(x))."""
        x = self._ln(nn.add(x, delta), f"{prefix}.ln1")
        return self._ln(nn.add(x, self._ffn(x, f"{prefix}.ffn")), f"{prefix}.ln2")

    def edge_head(self, raw) -> nn.Tensor:
        """Per-pair geometry MLP, 4 -> d_e, shared across all pairs, up to its
        output row edge_head.w3/b3 (applied by `forward_frame`)."""
        s = self.store
        x = nn.as_tensor(raw)
        x = nn.gelu(self._ln(nn.linear(x, s["edge_head.w1"], s["edge_head.b1"]), "edge_head.ln1"))
        return nn.gelu(self._ln(nn.linear(x, s["edge_head.w2"], s["edge_head.b2"]), "edge_head.ln2"))

    def encoder_forward(self, e_d0):
        """Self-attention stack over detections; no positional encoding.

        Returns (encoded detections, per-stage attention matrices D x (D+1)).
        """
        x = nn.as_tensor(e_d0)
        attn = []
        s = self.store
        for n in range(self.cfg.n_encoder_stages):
            p = f"encoder.stage{n}"
            probs = nn.softmax_null(attention_logits(x, x, s[f"{p}.wq"], s[f"{p}.wk"]))
            attn.append(probs)                                   # D x (D+1)
            x = self._residual(x, aggregate(probs, x, s[f"{p}.wa"]), p)
        return x, attn

    def decoder_layer(self, e_t, o_edge, e_d, stage: int):
        """One decoder stage: returns (new e_t, new o_edge, bundle); the new
        T x D logits are the edge refresh read by the next stage."""
        s, alpha = self.store, self.cfg.alpha
        p = f"decoder.stage{stage}"
        bundle = dual_source(e_t, e_d, o_edge, alpha, s[f"{p}.wq"], s[f"{p}.wk"])
        x = self._residual(e_t, aggregate(bundle.fused, e_d, s[f"{p}.wa"]), p)

        t_count, d_count = bundle.o_appear.data.shape
        scalar = nn.reshape(fuse(alpha, bundle.o_appear, bundle.o_edge), (t_count, d_count, 1))
        new_edge = self._ffn(scalar, f"{p}.ffn_e")
        return x, nn.reshape(new_edge, (t_count, d_count)), bundle

    def decoder_forward(self, e_t, o_edge, e_d):
        bundles = []
        for stage in range(self.cfg.n_decoder_stages):
            e_t, o_edge, bundle = self.decoder_layer(e_t, o_edge, e_d, stage)
            bundles.append(bundle)
        return e_t, o_edge, bundles

    def _head(self, x, prefix):
        s = self.store
        h = nn.gelu(self._ln(nn.linear(x, s[f"{prefix}.w1"], s[f"{prefix}.b1"]), f"{prefix}.ln"))
        return nn.linear(h, s[f"{prefix}.w2"], s[f"{prefix}.b2"])

    def track_head(self, x) -> nn.Tensor:
        return self._head(x, "track_head")

    def new_track_head(self, x) -> nn.Tensor:
        return self._head(x, "new_track_head")

    def confidence_update(self, bundles, e_t_old, e_t_head):
        """Blend old and proposed embeddings per track, gated by how
        confidently the decoder attended to any detection.

        Returns (blended T x d tensor, gate values as a plain array).
        """
        t_count = e_t_old.data.shape[0]
        if t_count == 0:
            return nn.as_tensor(e_t_old), np.zeros(0)
        maxima = []
        for bundle in bundles:
            d_count = bundle.fused.data.shape[1] - 1
            if d_count == 0:
                maxima.append(nn.Tensor(np.zeros(t_count)))
            else:
                det_cols = nn.take(bundle.fused, (slice(None), slice(0, d_count)))
                maxima.append(nn.reduce_max(det_cols, axis=1))
        stacked = nn.stack(maxima, axis=1)                       # T x n_stages
        gate = nn.sigmoid(nn.linear(stacked, nn.reshape(self.store["conf.w"], (1, -1)),
                                    self.store["conf.b"]))       # T x 1
        keep = nn.add(nn.mul(gate, -1.0), 1.0)
        blended = nn.add(nn.mul(keep, e_t_old), nn.mul(gate, e_t_head))
        return blended, gate.data[:, 0].copy()

    def matching_layer(self, e_t, e_d, o_edge) -> AttentionBundle:
        """The dual-source attention read detection-major: `.fused` is the
        D x (T+1) assignment matrix, its last column the no-track
        probability.  o_edge: T x D geometry logits.  No linear layer after
        the gate."""
        s = self.store
        return dual_source(e_d, e_t, nn.transpose(o_edge), self.cfg.alpha,
                           s["match.wq"], s["match.wk"])

    def forward_frame(self, e_t_old, raw_edge, e_d0) -> FrameForward:
        """Full per-frame pass, from raw detection embeddings and geometry
        features to the assignment matrix.

        e_t_old: T x d track embeddings from the previous frame;
        raw_edge: T x D x 4 geometry features; e_d0: D x d detection
        appearance embeddings.
        """
        e_t_old = nn.as_tensor(e_t_old)
        enc_out, enc_attn = self.encoder_forward(e_d0)
        s = self.store
        raw_edge = nn.as_tensor(raw_edge)
        o_edge = nn.linear(self.edge_head(raw_edge), s["edge_head.w3"], s["edge_head.b3"])
        o_edge = nn.reshape(o_edge, raw_edge.data.shape[:-1])
        dec_out, o_edge, bundles = self.decoder_forward(e_t_old, o_edge, enc_out)
        head_out = self.track_head(dec_out)
        updated, gate = self.confidence_update(bundles, e_t_old, head_out)
        match = self.matching_layer(updated, enc_out, o_edge)
        return FrameForward(
            enc_out=enc_out, enc_attn=enc_attn, bundles=bundles, head_out=head_out,
            updated_tracks=updated, update_gate=gate, match=match,
        )
