"""Minimal differentiable numeric core.

Dense layers, normalization, activations, a null-column softmax and a 3x3
convolution, each with an explicit backward pass recorded on a small reverse
tape.  The computation graphs in this engine are tiny and fixed, so there is
no general autodiff machinery: every op wires its own gradient closure.

All arithmetic runs in float64; checkpoints store float32 payloads.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """Array value plus an optional gradient slot and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = None
        if not requires_grad:
            for p in self._parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad

    def accumulate(self, g):
        if self.grad is None:
            # a copy laid out like data, as zeros_like + g was: a gradient
            # kept in g's own order (F for a transposed g) would round
            # differently in a later matmul or row sum
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def backward(self, grad=None):
        """Reverse sweep from this node through its recorded tape."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        order = _topo_order(self)
        self.accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"


def _topo_order(root: Tensor):
    """Post-order of the nodes that need a gradient: a depth-first walk that
    visits each node's parents last to first.  The order fixes how gradients
    are summed.  Nodes without requires_grad have no such parents, so
    skipping them leaves the order of the rest unchanged."""
    if not root.requires_grad:
        return []
    order, seen = [], {root}
    stack = [(root, reversed(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if p.requires_grad and p not in seen:
                seen.add(p)
                stack.append((p, reversed(p._parents)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    out._backward = backward
    return out


def linear(x, w, b=None) -> Tensor:
    """y = x @ w.T (+ b) with w laid out (out_features, in_features)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.shape[-1] != w.data.shape[-1]:
        raise ValueError(
            f"linear: inner dims disagree, x has {x.data.shape[-1]}, w expects {w.data.shape[-1]}"
        )
    y = x.data @ w.data.T
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        y = y + b.data
        parents = (x, w, b)
    out = Tensor(y, parents=parents)

    def backward(g):
        if x.requires_grad:
            x.accumulate(g @ w.data)
        if w.requires_grad:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.data.reshape(-1, x.data.shape[-1])
            w.accumulate(g2.T @ x2)
        if b is not None and b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * (x.data > 0.0))

    out._backward = backward
    return out


def gelu(x) -> Tensor:
    """Exact (erf-based) GELU, not the tanh approximation."""
    x = as_tensor(x)
    z = x.data
    t = 1.0 + erf(z / _SQRT2)
    out = Tensor(0.5 * z * t, parents=(x,))

    def backward(g):
        if x.requires_grad:
            cdf = 0.5 * t
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
            x.accumulate(g * (cdf + z * pdf))

    out._backward = backward
    return out


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(s, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * s * (1.0 - s))

    out._backward = backward
    return out


def log(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.log(x.data), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate(g / x.data)

    out._backward = backward
    return out


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    r = np.sqrt(x.data)
    out = Tensor(r, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * 0.5 / r)

    out._backward = backward
    return out


def reciprocal(x) -> Tensor:
    x = as_tensor(x)
    inv = 1.0 / x.data
    out = Tensor(inv, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate(-g * inv * inv)

    out._backward = backward
    return out


def clip(x, lo, hi) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only inside the interval."""
    x = as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * ((x.data >= lo) & (x.data <= hi)))

    out._backward = backward
    return out


def reduce_sum(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims), parents=(x,))

    def backward(g):
        if not x.requires_grad:
            return
        if axis is None:
            x.accumulate(np.full_like(x.data, float(g)))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        x.accumulate(np.broadcast_to(g, x.data.shape).copy())

    out._backward = backward
    return out


def reduce_mean(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        n = x.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([x.data.shape[a] for a in axes]))
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reduce_max(x, axis) -> Tensor:
    """Max along one axis; gradient routes to the first argmax."""
    x = as_tensor(x)
    m = x.data.max(axis=axis)
    out = Tensor(m, parents=(x,))

    def backward(g):
        if not x.requires_grad:
            return
        idx = x.data.argmax(axis=axis)
        gx = np.zeros_like(x.data)
        np.put_along_axis(
            gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis
        )
        x.accumulate(gx)

    out._backward = backward
    return out


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate(g.reshape(x.data.shape))

    out._backward = backward
    return out


def transpose(x) -> Tensor:
    """Reverse the axes; of a matrix, its transpose."""
    x = as_tensor(x)
    out = Tensor(np.transpose(x.data), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate(np.transpose(g))

    out._backward = backward
    return out


def take(x, key) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data[key], parents=(x,))

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, key, g)
            x.accumulate(gx)

    out._backward = backward
    return out


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + n)
                t.accumulate(g[tuple(sl)])
            offset += n

    out._backward = backward
    return out


def stack(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors], axis=axis), parents=tuple(tensors))

    def backward(g):
        parts = np.moveaxis(g, axis, 0)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t.accumulate(part.reshape(t.data.shape))

    out._backward = backward
    return out


def softmax_null(logits) -> Tensor:
    """Append one zero logit per row, then row-wise softmax.

    Input is an R x C matrix of finite logits (C may be 0); output is
    R x (C+1) and row-stochastic.  The appended last column is the
    probability of matching nothing.
    """
    x = as_tensor(logits)
    if x.data.ndim != 2:
        raise ValueError("softmax_null expects a 2-d logit matrix")
    rows, cols = x.data.shape
    z = np.concatenate([x.data, np.zeros((rows, 1))], axis=1)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    out = Tensor(probs, parents=(x,))

    def backward(g):
        if not x.requires_grad or cols == 0:
            return
        dot = (g * probs).sum(axis=1, keepdims=True)
        dz = probs * (g - dot)
        x.accumulate(dz[:, :cols])

    out._backward = backward
    return out


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last dim to zero mean / unit variance, then scale
    by gain and shift by bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.data.shape[-1]
    if n < 2:
        raise ValueError("layer_norm needs at least 2 features in the last dim")
    # the operations np.mean and np.var run, with the input centred once
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data, parents=(x, gain, bias))

    def backward(g):
        gy = g * gain.data
        if x.requires_grad:
            m1 = gy.sum(axis=-1, keepdims=True) / n
            m2 = (gy * xhat).sum(axis=-1, keepdims=True) / n
            x.accumulate(inv * (gy - m1 - xhat * m2))
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.data.shape))

    out._backward = backward
    return out


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """Position-wise feed-forward block: linear -> GELU -> linear."""
    return linear(gelu(linear(x, w1, b1)), w2, b2)


def _patch_cols(xd):
    """(N, C, H, W) -> (N, C*9, H*W): each pixel's zero-padded 3x3 patch,
    ordered like a flattened (C, 3, 3) kernel."""
    n, c, h, wd_ = xd.shape
    hw = h * wd_
    # each channel flattened between a zero row and one more zero at either
    # end, so tap (dy, dx) is one slice of h*w elements from dy*w + dx: a
    # long run that numpy copies fast.  Where the patch leaves the image on
    # the left (dx = 0) or right (dx = 2), the slice wraps into the next or
    # previous row, so those columns are zeroed after the copy.
    xp = np.zeros((n, c, hw + 2 * wd_ + 2), dtype=xd.dtype)
    xp[:, :, wd_ + 1:wd_ + 1 + hw] = xd.reshape(n, c, hw)
    cols = np.empty((n, c, 3, 3, h, wd_), dtype=xd.dtype)
    for dy in range(3):
        for dx in range(3):
            start = dy * wd_ + dx
            cols[:, :, dy, dx] = xp[:, :, start:start + hw].reshape(n, c, h, wd_)
        cols[:, :, dy, 0, :, 0] = 0.0
        cols[:, :, dy, 2, :, -1] = 0.0
    return cols.reshape(n, c * 9, hw)


def _correlate3x3(xd, w):
    """Same-padded 3x3 cross-correlation of (N, C_in, H, W) with a
    (C_out, C_in, 3, 3) kernel as one matmul over the patch columns."""
    n, _, h, wd_ = xd.shape
    y = w.reshape(w.shape[0], -1) @ _patch_cols(xd)
    return y.reshape(n, w.shape[0], h, wd_)


def conv3x3(x, w, b) -> Tensor:
    """Same-padded stride-1 3x3 cross-correlation.

    x: (N, C_in, H, W); w: (C_out, C_in, 3, 3); b: (C_out,).
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 4:
        raise ValueError("conv3x3 expects a 4-d (N, C, H, W) input")
    if x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"conv3x3: input has {x.data.shape[1]} channels, kernel expects {w.data.shape[1]}"
        )
    y = _correlate3x3(x.data, w.data) + b.data[None, :, None, None]
    out = Tensor(y, parents=(x, w, b))

    # the closure keeps only x, w and b: every conv of a frame stays on the
    # tape until backward, so holding the padded input or its patch columns
    # here would hold them all at once
    def backward(g):
        if x.requires_grad:
            # adjoint of a same-padded correlation: correlate with the kernel
            # flipped in space and transposed in channels
            x.accumulate(_correlate3x3(g, w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))
        if w.requires_grad:
            n, c_out = g.shape[:2]
            gw = g.reshape(n, c_out, -1) @ _patch_cols(x.data).transpose(0, 2, 1)
            w.accumulate(gw.sum(axis=0).reshape(w.data.shape))
        if b.requires_grad:
            b.accumulate(g.sum(axis=(0, 2, 3)))

    out._backward = backward
    return out


def avg_pool2(x) -> Tensor:
    """2x2 average pooling with stride 2 of (N, C, H, W); H and W must be even."""
    x = as_tensor(x)
    xd = x.data
    _, _, h, w = xd.shape
    if h % 2 or w % 2:
        raise ValueError("avg_pool2 needs even spatial dims")
    x00, x01 = xd[..., 0::2, 0::2], xd[..., 0::2, 1::2]
    x10, x11 = xd[..., 1::2, 0::2], xd[..., 1::2, 1::2]
    # the sums that reshape(N, C, H/2, 2, W/2, 2).mean(axis=(3, 5)) makes,
    # bit for bit, without its slow reduction over two size-2 axes: numpy
    # adds each block row by row from 0.0 (so four -0.0 give 0.0), except
    # at W = 2, where it merges the two axes and adds the four in one run
    s = x00 + x01 + x10 + x11 if w == 2 else (x00 + x01) + (x10 + x11)
    out = Tensor((s + 0.0) / 4, parents=(x,))

    def backward(g):
        if x.requires_grad:
            q = g * 0.25
            gx = np.empty_like(xd)
            gx[..., 0::2, 0::2] = q
            gx[..., 0::2, 1::2] = q
            gx[..., 1::2, 0::2] = q
            gx[..., 1::2, 1::2] = q
            x.accumulate(gx)

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# parameter store and checkpoints

class ParamStore:
    """Named parameter tensors with gradient slots.

    Every learned tensor in the engine lives here exactly once, which keeps
    checkpointing and optimizer state straightforward.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def create(self, name: str, shape, rng: np.random.Generator, init="fan_in") -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name: {name}")
        shape = tuple(shape)
        if init == "fan_in":
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
            bound = 1.0 / np.sqrt(max(fan_in, 1))
            data = rng.uniform(-bound, bound, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            raise ValueError(f"unknown init kind: {init!r}")
        t = Tensor(data, requires_grad=True)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def items(self):
        return self._tensors.items()

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._tensors.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        missing = set(self._tensors) - set(state)
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {sorted(missing)[:5]}")
        unexpected = set(state) - set(self._tensors)
        if unexpected:
            raise ValueError(f"checkpoint has unexpected parameters: {sorted(unexpected)[:5]}")
        for name, t in self._tensors.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"checkpoint shape mismatch for {name}: {arr.shape} vs {t.data.shape}"
                )
            t.data = arr


CHECKPOINT_MAGIC = b"NTC1"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, named: dict[str, np.ndarray]):
    """Named-tensor container: versioned header + row-major float32 payloads."""
    header = {
        "version": CHECKPOINT_VERSION,
        "tensors": [{"name": k, "shape": list(np.asarray(v).shape)} for k, v in named.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for v in named.values():
            f.write(np.ascontiguousarray(v, dtype=np.float32).tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The named tensors of a save_checkpoint file.  Each declared length is
    checked against the bytes left in the file before it is read."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file (bad magic)")
        fixed = f.read(8)
        if len(fixed) != 8:
            raise ValueError("checkpoint header truncated")
        version, hlen = struct.unpack("<II", fixed)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if hlen > size - f.tell():
            raise ValueError("checkpoint header truncated")
        blob = f.read(hlen)
        header = json.loads(blob.decode("utf-8"))
        if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
            raise ValueError("checkpoint header has no tensors list")
        out = {}
        for n, entry in enumerate(header["tensors"]):
            name = entry.get("name") if isinstance(entry, dict) else None
            shape = entry.get("shape") if isinstance(entry, dict) else None
            if not (isinstance(name, str) and isinstance(shape, list)
                    and all(isinstance(k, int) and k >= 0 for k in shape)):
                raise ValueError(f"checkpoint header: tensor entry {n} needs a name "
                                 "and a shape of non-negative integers")
            if name in out:
                raise ValueError(f"checkpoint header lists tensor {name} twice")
            count = math.prod(shape)
            if 4 * count > size - f.tell():
                raise ValueError("checkpoint payload truncated")
            raw = f.read(4 * count)
            arr = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint tensor {name} has non-finite values")
            out[name] = arr
    return out


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(fn, inputs, rng=None) -> float:
    """Max relative error between analytic gradients of fn(*inputs) and
    central differences.

    fn maps Tensors to one Tensor (any shape); the check contracts the output
    with a fixed random weighting so flat directions (e.g. row-stochastic
    outputs) still exercise every input component.
    """
    rng = rng or np.random.default_rng(0)
    probe_weights = None

    def objective() -> float:
        nonlocal probe_weights
        out = fn(*inputs)
        if probe_weights is None:
            probe_weights = rng.standard_normal(out.data.shape)
        return float((out.data * probe_weights).sum()), out

    base, out = objective()
    for t in inputs:
        t.grad = None
    out.backward(probe_weights)

    h = 1e-5  # central-difference step
    max_err = 0.0
    for t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus, _ = objective()
            flat[i] = orig - h
            minus, _ = objective()
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * h)
            a = analytic.reshape(-1)[i]
            denom = max(abs(a) + abs(numeric), 1e-6)
            max_err = max(max_err, abs(a - numeric) / denom)
    return max_err
