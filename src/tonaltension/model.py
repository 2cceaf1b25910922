"""Bidirectional LSTM regressor with multiplicative integration.

One recurrent layer (five units per direction) feeds a single linear
output unit. Each gate pre-activation combines the input and recurrent
projections multiplicatively:

    a = alpha * (W x) * (U h) + beta1 * (U h) + beta2 * (W x) + b

with the usual LSTM cell around it (input/forget/output gates sigmoid,
candidate tanh). The forward direction scans t = 0..T-1, the backward
direction scans the reversed sequence, and the output at step t is
v . [h_fwd_t ; h_bwd_t] + c.

Everything is float64 numpy. Gradients are exact backpropagation through
time (verified against central finite differences); the input Jacobian
band behind the sensitivity analysis runs the same reverse cell step,
batched over output steps. Training is RMSProp with one update per piece,
global-norm gradient clipping, and early stopping on a held-out slice of
the training pieces. The clip norm (GRADIENT_CLIP_NORM = 5.0) and the
held-out share (VALIDATION_FRACTION, a tenth) are fixed, not settings.
All randomness flows from explicit seeds, so identical (seed, data,
config) reproduce bit-identical parameters and logs.

The scan, its reverse and the training loop run along a row axis that
holds both directions of n independent models: row 2r is model r's
forward direction over its sequence, row 2r + 1 its backward direction
over the same sequence reversed, so each Python time step advances both
directions of every model. Per-step arrays are stacks of (1, .) row
vectors; each row's recurrent matrix-vector product is its own gemv
inside one stacked matmul and everything else is elementwise, so a row's
numbers do not depend on the other rows, and training M models together
(``train_many``) is bit-identical to training each alone. ``forward``,
``input_jacobian_band`` and ``train`` run one model, as the n = 1 case
of the same code. Each row's input projection X W^T is a GEMM of its own
unpadded inputs, so models of different input widths share the axis:
every parameter stack (``loss_and_gradient``'s input and gradient, and
``train_many``'s parameters, RMSProp state and best parameters) holds
each model flattened at the common input width, with zero W columns
past its own input_dim. A model (``ModelParams``) is its input width and
its flat parameter vector at that width, in the one layout that
``_shapes`` names; ``tensors()`` views that vector by tensor name, and
model files store the same tensors in the same order. Rows are ordered
longest sequence first (a model's two rows have one length), so a step
only advances the leading rows still inside their sequence and every sum
over time covers a row's own steps.

Each Python time step of the scan and of its reverse runs only the
recurrence, on contiguous operands; everything free of it runs as
whole-array operations over a block of steps. The scan hoists alpha P and
beta2 P over a block and lays each step's gate blocks out contiguously.
The reverse computes, before a block's steps run, everything that is a
function of the forward cache and the parameters alone: the recurrent
projections U h, the derivatives alpha p + beta1 and alpha q + beta2,
1 - tanh(c)^2 and the gate-derivative factors (``_factors``). Its steps
then carry only (dh, dc) and store each step's gate gradient da. After
the steps, the six parameter-gradient terms of the block are formed in
bulk and added to the running sums slab by slab, from the block's last
step down (``_scan_grad``). A block holds BLOCK_ROW_STEPS row-steps, so
one model's two rows take a whole piece of up to 360 steps at once, while
a stack of 45 models keeps blocks of 8 steps. Each entry still gets
the same floating-point operations in the same order as in a
step-by-step reverse, and each sum over time still runs from a row's last
step down to step 0, so the gradients (and the sensitivity band, which
reverses with the same factors) are bit-identical to it; this is what
keeps trained models, and so every output, byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SettingError, TrainingDiverged

HIDDEN = 5
RMSPROP_DECAY = 0.9
RMSPROP_EPSILON = 1e-8
GRADIENT_CLIP_NORM = 5.0  # global norm over a model's own gradient entries
VALIDATION_FRACTION = 0.1  # of the training pieces, held out for early stopping
BLOCK_ROW_STEPS = 720  # rows x steps per block of a scan: 360 steps at 2 rows, 8 at 90
GATE_ORDER = ("input", "forget", "output", "candidate")

_FILE_MAGIC = "tonaltension-model"
_FILE_VERSION = 1


class _Gates(NamedTuple):
    """Gate tensors of a stack of n scan rows, gate blocks stacked in
    GATE_ORDER along the 4H axis. Its fields name a direction's tensors
    in the parameter layout (``_shapes``)."""

    W: np.ndarray  # (n, 4H, input_dim)
    U: np.ndarray  # (n, 4H, H)
    alpha: np.ndarray  # (n, 4H), or (n, 1, 4H) in _scan_grad's gradients
    beta1: np.ndarray
    beta2: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """One model: its input width and its parameters flattened in the
    layout of ``_shapes(input_dim)``."""

    input_dim: int
    flat: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        """{tensor name: view into ``flat``}, in layout order."""
        return {name: t[0] for name, t in _split(self.flat[None], self.input_dim).items()}

    def flatten(self) -> np.ndarray:
        """``flat`` itself, not a copy."""
        return self.flat


def _shapes(input_dim: int) -> list[tuple[str, tuple[int, ...]]]:
    """The parameter layout: (tensor name, shape) in flattening order."""
    G = 4 * HIDDEN
    per_dir = {"W": (G, input_dim), "U": (G, HIDDEN)}
    named = [(f"{d}.{n}", per_dir.get(n, (G,))) for d in ("fwd", "bwd") for n in _Gates._fields]
    named.append(("out.v", (2 * HIDDEN,)))
    named.append(("out.bias", (1,)))
    return named


def _size(input_dim: int) -> int:
    """Entries of a model flattened at ``input_dim``."""
    return sum(math.prod(shape) for _, shape in _shapes(input_dim))


def _split(flat: np.ndarray, input_dim: int) -> dict[str, np.ndarray]:
    """An (n, size) stack of models, each flattened at ``input_dim`` in
    the ``_shapes`` layout, as {tensor name: (n,) + shape view}."""
    n = flat.shape[0]
    parts = {}
    pos = 0
    for name, shape in _shapes(input_dim):
        size = math.prod(shape)
        parts[name] = flat[:, pos:pos + size].reshape((n,) + shape)
        pos += size
    if pos != flat.shape[1]:
        raise ValueError(f"flat vector has {flat.shape[1]} values, expected {pos}")
    return parts


def init_model(input_dim: int, seed: int) -> ModelParams:
    """Glorot-uniform projections; alpha = 1, beta = 0.5, forget bias 1."""
    if input_dim < 0:
        raise ValueError(f"input_dim must be >= 0, got {input_dim}")
    rng = np.random.default_rng(seed)
    params = ModelParams(input_dim, np.zeros(_size(input_dim)))
    t = params.tensors()
    sw = np.sqrt(6.0 / (input_dim + HIDDEN))
    su = np.sqrt(6.0 / (HIDDEN + HIDDEN))
    for d in ("fwd", "bwd"):
        t[f"{d}.W"][:] = rng.uniform(-sw, sw, size=t[f"{d}.W"].shape)
        t[f"{d}.U"][:] = rng.uniform(-su, su, size=t[f"{d}.U"].shape)
        t[f"{d}.alpha"][:] = 1.0
        t[f"{d}.beta1"][:] = 0.5
        t[f"{d}.beta2"][:] = 0.5
        t[f"{d}.bias"][HIDDEN:2 * HIDDEN] = 1.0  # forget gate block
    sv = np.sqrt(6.0 / (2 * HIDDEN + 1))
    t["out.v"][:] = rng.uniform(-sv, sv, size=2 * HIDDEN)
    return params


# ---------------------------------------------------------------------------
# the stacked scan


def _check_sequence(params: ModelParams, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1 and params.input_dim == 0:
        xs = xs.reshape(len(xs), 0)
    if xs.ndim != 2 or xs.shape[1] != params.input_dim:
        raise ValueError(
            f"sequence shape {xs.shape} does not match input_dim {params.input_dim}")
    return xs


def _unstack(flat: np.ndarray, input_dim: int):
    """An (n, size) stack of flattened models as (dirs, v, out_bias): gate
    tensors ``dirs`` on the 2n-row axis, model r's forward in row 2r and
    its backward in row 2r + 1; v and out_bias keep one row per model."""
    n = flat.shape[0]
    parts = _split(flat, input_dim)

    def both(field):
        fwd, bwd = parts[f"fwd.{field}"], parts[f"bwd.{field}"]
        return np.stack([fwd, bwd], axis=1).reshape((2 * n,) + fwd.shape[1:])

    return _Gates(*map(both, _Gates._fields)), parts["out.v"], parts["out.bias"][:, 0]


def _spans(lengths) -> list[tuple[int, int, int]]:
    """For rows ordered longest sequence first: the (start, stop, m) spans
    of steps, in time order, over which the first m rows are inside their
    sequence."""
    spans = []
    start = 0
    for stop in sorted(set(lengths)):
        if stop > start:
            spans.append((start, stop, sum(length >= stop for length in lengths)))
            start = stop
    return spans


def _project(d: _Gates, seqs) -> np.ndarray:
    """The input projections P (T, n, 1, 4H) of n stacked rows, row r over
    its own (T_r, D_r) sequence: one GEMM of the row's unpadded inputs and
    W columns each, zero past its length."""
    P = np.zeros((max((len(xs) for xs in seqs), default=0), len(seqs), 1, d.U.shape[1]))
    for r, xs in enumerate(seqs):
        W = np.ascontiguousarray(d.W[r, :, :xs.shape[1]])
        P[:len(xs), r, 0] = xs @ W.T
    return P


def _scan(d: _Gates, seqs, spans) -> dict:
    """Scan n stacked rows, row r with its own gate tensors over its own
    sequence, rows ordered longest first; over each span of ``spans`` only
    its leading rows advance. Per-step arrays are (m, 1, .) row vectors,
    so ``h @ U^T`` is one gemv per row, the one ``U @ h`` runs for that
    row alone. Returns the input projections "P" (T, n, 1, 4H) and the
    per-step caches, zero past a row's length: the gate activations
    "gates" (T, 4, n, 1, H), with the i, f, o and g blocks on axis 1, and
    the cell and hidden states "C" and "H"
    (T + 1, n, 1, H) with the zero initial state at index 0 and step t at
    index t + 1. BPTT recomputes U h bit for bit rather than keeping it."""
    from scipy.special import expit as sigmoid  # here: synth and extract load no scipy

    P = _project(d, seqs)
    T, n, _, G = P.shape
    H = G // 4
    gates = np.zeros((T, 4, n, 1, H))  # i, f, o, g after nonlinearity
    C = np.zeros((T + 1, n, 1, H))
    Hs = np.zeros((T + 1, n, 1, H))
    h = Hs[0]
    c = C[0]
    for start, stop, m in spans:
        U_T = d.U[:m].swapaxes(1, 2)
        alpha, beta1, beta2, bias = (t[:m, None] for t in (d.alpha, d.beta1, d.beta2, d.bias))
        h, c = h[:m], c[:m]
        # each step's pre-activations a, then its gate blocks laid out
        # contiguously (a transposed copy), nonlinearities applied in place
        a, tmp = np.empty((2, m, 1, G))
        blocks = np.empty((4, m, 1, H))
        a_blocks = a.reshape(m, 1, 4, H).transpose(2, 0, 1, 3)
        ifo, (i, f, o, g) = blocks[:3], blocks
        fc, ig = np.empty((2, m, 1, H))
        step = _block_steps(m)
        for begin in range(start, stop, step):
            end = min(stop, begin + step)
            p = P[begin:end, :m]
            steps = zip(alpha * p, beta2 * p, gates[begin:end, :, :m],
                        C[begin + 1:end + 1, :m], Hs[begin + 1:end + 1, :m])
            for alpha_p, beta2_p, out, c_out, h_out in steps:
                q = h @ U_T
                # ((alpha p) q + beta1 q) + beta2 p + bias, the one order of the sums
                np.multiply(alpha_p, q, out=a)
                a += np.multiply(beta1, q, out=tmp)
                a += beta2_p
                a += bias
                np.copyto(blocks, a_blocks)
                sigmoid(ifo, out=ifo)
                np.tanh(g, out=g)
                c = np.add(np.multiply(f, c, out=fc), np.multiply(i, g, out=ig), out=c_out)
                h = np.multiply(o, np.tanh(c, out=fc), out=h_out)
                out[...] = blocks
    return {"P": P, "gates": gates, "C": C, "H": Hs}


class _Factors(NamedTuple):
    """The recurrence-free factors of reverse cell steps: functions of the
    forward cache and the parameters only, for a stack of steps with any
    leading axes. ``_cell_grad`` reads all but the last."""

    dtc: np.ndarray  # 1 - tanh(c)^2
    o: np.ndarray  # output gate
    f: np.ndarray  # forget gate
    M: np.ndarray  # [g, c_prev, tanh(c), i]
    N: np.ndarray  # [i, f, o, 1]
    K: np.ndarray  # [1 - i, 1 - f, 1 - o, 1 - g^2]
    dq_da: np.ndarray  # alpha * p + beta1
    dp_da: np.ndarray  # alpha * q + beta2


def _factors(gates, c, c_prev, p, q, alpha, beta1, beta2) -> _Factors:
    """Factors of the steps with cached activations ``gates`` (the i, f,
    o and g blocks, each shaped like ``c``), cell state ``c`` (and
    ``c_prev`` before it), input projection ``p`` and recurrent projection
    ``q``; the gate parameters broadcast against them."""
    i, f, o, g = gates
    tc = np.tanh(c)
    return _Factors(1.0 - tc * tc, o, f, np.concatenate([g, c_prev, tc, i], axis=-1),
                    np.concatenate([i, f, o, np.ones_like(c)], axis=-1),  # x * 1.0 is x exactly
                    1.0 - np.concatenate([i, f, o, g * g], axis=-1),
                    alpha * p + beta1, alpha * q + beta2)


def _cell_grad(fac, dh, dc, out=None):
    """Reverse the cell steps whose factors are ``fac``: the fields of a
    ``_Factors`` but the last (dp_da), for one step or a stack of steps.

    ``dh``/``dc`` are the gradient arriving at the hidden and cell state.
    Returns (da, dq, dc_prev), da the gradient of the gate pre-activations
    (written to ``out`` when given) and dq of the recurrent projection; the
    caller carries dq back through U. Each entry of da is
    ((dc * g) * i) * (1 - i), ((dc * c_prev) * f) * (1 - f),
    ((dh * tanh(c)) * o) * (1 - o) or ((dc * i) * 1) * (1 - g^2), by block.
    """
    dtc, o, f, M, N, K, dq_da = fac
    dc = dc + dh * o * dtc
    da = np.concatenate([dc, dc, dh, dc], axis=-1, out=out)
    da *= M
    da *= N
    da *= K
    return da, da * dq_da, dc * f


def _block_steps(m: int) -> int:
    """Steps per block of the scan and its reverse for m rows:
    BLOCK_ROW_STEPS // m, at least 1. A block's whole-array operations
    then touch a bounded amount of memory, whatever the row count."""
    return max(1, BLOCK_ROW_STEPS // m)


def _scan_grad(d: _Gates, cache: dict, seqs, dH_out: np.ndarray, spans,
               width: int) -> _Gates:
    """BPTT through n stacked rows as scanned by _scan; dH_out (T, n, 1, H)
    is the loss gradient injected at each step's hidden state. Returns the
    rows' parameter gradients; W gradients are (n, 4H, width), a narrower
    row filling only its own columns.

    The steps of a span are reversed in blocks of ``_block_steps(m)``,
    last block first. A block first computes its factors (``_factors``),
    in descending step order, then runs its steps: each does only the
    recurrence (da, dc and dh = dq U) and stores da. After the steps, the
    block's six parameter-gradient terms are formed with whole-array
    products into buffers whose slab 0 holds the running sum and slab k
    the term of the block's k-th step from its end; one
    ``np.add.reduce`` over the slabs, which adds them one by one, then
    continues each sum. So every sum over time still runs from a row's
    own last step down to step 0, as for that row alone."""
    P, gates, C, Hs = (cache[k] for k in ("P", "gates", "C", "H"))
    T, n, _, G = P.shape
    H = G // 4
    X = np.zeros((T, n, width))  # the scanned inputs, zero-padded
    for r, xs in enumerate(seqs):
        X[:len(xs), r, :xs.shape[1]] = xs
    # the W and U sums are kept transposed, (n, width, 4H) and (n, H, 4H)
    grads = _Gates(np.zeros((n, width, G)), np.zeros((n, H, G)),
                   *(np.zeros((n, 1, G)) for _ in range(4)))
    # each tensor's block buffer, allocated once for the largest block
    size = max(((min(stop - start, _block_steps(m)) + 1) * m for start, stop, m in spans),
               default=0)
    stores = [np.empty((size,) + t.shape[1:]) for t in grads]
    dh = np.zeros((0, 1, H))
    dc = np.zeros((0, 1, H))
    for start, stop, m in reversed(spans):
        # rows joining at their last step start from zero, as a scan's end does
        dh = np.concatenate([dh, np.zeros((m - len(dh), 1, H))])
        dc = np.concatenate([dc, np.zeros((m - len(dc), 1, H))])
        U = d.U[:m]
        U_T = U.swapaxes(1, 2)
        alpha, beta1, beta2 = (t[:m, None] for t in (d.alpha, d.beta1, d.beta2))
        sums = [t[:m] for t in grads]
        step = _block_steps(m)
        for end in range(stop, start, -step):
            begin = max(start, end - step)
            slabs = end - begin + 1
            # the block's steps in descending order, its last step first
            p, dH = P[begin:end, :m][::-1], dH_out[begin:end, :m][::-1]
            h_prev = np.ascontiguousarray(Hs[begin:end, :m][::-1])
            x = np.ascontiguousarray(X[begin:end, :m][::-1])
            q = h_prev @ U_T  # one gemv per row and step, as in the scan
            fac = _factors(np.moveaxis(gates[begin:end, :, :m][::-1], 1, 0),
                           C[begin + 1:end + 1, :m][::-1], C[begin:end, :m][::-1],
                           p, q, alpha, beta1, beta2)
            bufs = _Gates(*(s[:slabs * m].reshape((slabs, m) + s.shape[1:]) for s in stores))
            da = bufs.bias[1:]  # a step's bias term is its da
            for step_fac, dH_t, out in zip(zip(*fac[:-1]), dH, da):
                _, dq, dc = _cell_grad(step_fac, dh + dH_t, dc, out)
                dh = dq @ U
            dap = np.multiply(da, p, out=bufs.beta2[1:])
            np.multiply(dap, q, out=bufs.alpha[1:])
            np.multiply(da, q, out=bufs.beta1[1:])
            # outer products dp x^T and dq h_prev^T: no summed index, so only products
            np.einsum("tmg,tmw->tmwg", (da * fac.dp_da)[:, :, 0], x, out=bufs.W[1:])
            np.einsum("tmg,tmw->tmwg", (da * fac.dq_da)[:, :, 0], h_prev[:, :, 0],
                      out=bufs.U[1:])
            for acc, buf in zip(sums, bufs):
                buf[0] = acc
                np.add.reduce(buf, axis=0, out=acc)  # slab by slab, slab 0 first
    return grads._replace(W=grads.W.swapaxes(1, 2), U=grads.U.swapaxes(1, 2))


def _prediction(Hs: np.ndarray, v: np.ndarray, out_bias: np.ndarray,
                r: int, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model r's hidden states of both directions (rows 2r and 2r + 1 of
    the scan's "H" cache) in time order, and its predictions."""
    H = v.shape[1] // 2
    hf = np.ascontiguousarray(Hs[1:steps + 1, 2 * r, 0])
    hb = np.ascontiguousarray(Hs[1:steps + 1, 2 * r + 1, 0])[::-1]
    return hf, hb, hf @ v[r, :H] + hb @ v[r, H:] + out_bias[r]


def _predict_rows(flat: np.ndarray, input_dim: int, seqs) -> list[np.ndarray]:
    """Predictions of n stacked models (rows of ``flat``, flattened at
    ``input_dim``), model r on seqs[r]; models ordered longest first."""
    dirs, v, out_bias = _unstack(flat, input_dim)
    rows = [row for xs in seqs for row in (xs, xs[::-1])]
    Hs = _scan(dirs, rows, _spans([len(xs) for xs in rows]))["H"]
    return [_prediction(Hs, v, out_bias, r, len(xs))[2] for r, xs in enumerate(seqs)]


def loss_and_gradient(flat: np.ndarray, input_dim: int,
                      batch) -> tuple[np.ndarray, np.ndarray]:
    """Each stacked model's MSE on its own batch item, and its exact gradient.

    Row r of ``flat`` (n, size) is model r flattened at ``input_dim``,
    trained on batch[r] = (xs, ys); items are ordered longest first, as
    rows are in _predict_rows. Returns the (n,) MSEs and the (n, size)
    gradients in layout order; a narrower row's W gradient fills only
    its own columns. ``train_many`` takes every update step this way.
    """
    dirs, v, out_bias = _unstack(flat, input_dim)
    rows = [row for xs, _ in batch for row in (xs, xs[::-1])]
    spans = _spans([len(xs) for xs in rows])
    cache = _scan(dirs, rows, spans)
    T, n, H = cache["H"].shape[0] - 1, len(batch), v.shape[1] // 2
    dH = np.zeros((T, 2 * n, 1, H))
    mse = np.zeros(n)
    g_out = np.zeros((n, 2 * H + 1))  # out.v, out.bias
    for r, (xs, ys) in enumerate(batch):
        L = len(xs)
        hf, hb, pred = _prediction(cache["H"], v, out_bias, r, L)
        err = pred - ys
        mse[r] = err @ err / L
        dy = 2.0 * err / L
        g_out[r, :H] += hf.T @ dy
        g_out[r, H:2 * H] += hb.T @ dy
        g_out[r, 2 * H] += dy.sum()
        dH[:L, 2 * r, 0] = np.outer(dy, v[r, :H])
        dH[:L, 2 * r + 1, 0] = np.outer(dy[::-1], v[r, H:])
    grads = _scan_grad(dirs, cache, rows, dH, spans, input_dim)
    # rows 2r and 2r + 1 are model r's fwd and bwd tensors
    flat_grads = [t[k::2].reshape(n, -1) for k in (0, 1) for t in grads]
    return mse, np.concatenate(flat_grads + [g_out], axis=1)


# ---------------------------------------------------------------------------
# one model


def _band_sweep(d: _Gates, cache: dict, row: int, v: np.ndarray,
                radius: int) -> np.ndarray:
    """Exact d y_tau / d x_{tau-k} for k = 0..radius through row ``row`` of
    a scan of one model (``d`` and ``cache`` as in _scan).

    Every output step tau starts its own reverse sweep (dh = v) at once;
    sweep k processes scan step tau - k for all tau >= k together, so the
    carried (dh, dc) rows line up with cache rows 0..T-1-k and the row of
    the sweep that just reached step 0 is dropped. Returns (T, radius+1, D)
    in the row's scan order, with entry [tau, k] zero where tau - k < 0.
    """
    P, C, Hs = (cache[k][:, row, 0] for k in ("P", "C", "H"))
    W, U, alpha, beta1, beta2, _ = (t[row] for t in d)
    T = P.shape[0]
    Q = (Hs[:-1, None] @ U.T)[:, 0]  # each step's U h: one gemv each, as in the scan
    fac = _factors(np.moveaxis(cache["gates"][:, :, row, 0], 1, 0), C[1:], C[:-1], P, Q,
                   alpha, beta1, beta2)
    band = np.zeros((T, radius + 1, W.shape[1]))
    dh = np.tile(v, (T, 1))
    dc = np.zeros((T, C.shape[1]))
    for k in range(min(radius + 1, T)):
        n = T - k
        da, dq, dc = _cell_grad([t[:n] for t in fac[:-1]], dh, dc)
        band[k:, k] = (da * fac.dp_da[:n]) @ W
        dh, dc = (dq @ U)[1:], dc[1:]
    return band


def input_jacobian_band(params: ModelParams, xs, radius: int) -> np.ndarray:
    """Exact input Jacobian of the predictions within ``radius`` steps.

    Returns J of shape (T, 2*radius + 1, input_dim) with
    J[tau, k, f] = d y_tau / d x_{tau + k - radius, f}; entries whose
    input step falls off the sequence are exactly 0. Costs one scan of
    both directions plus radius + 1 batched reverse steps per direction,
    O(T * radius).
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    xs = _check_sequence(params, xs)
    dirs, v, _ = _unstack(params.flat[None], params.input_dim)
    cache = _scan(dirs, [xs, xs[::-1]], _spans([len(xs)] * 2))
    J = np.zeros((xs.shape[0], 2 * radius + 1, params.input_dim))
    # the forward scan reaches back (offsets -radius..0, k steps = offset -k);
    # the backward scan, flipped into tau order, reaches ahead (0..radius)
    J[:, radius::-1] += _band_sweep(dirs, cache, 0, v[0, :HIDDEN], radius)
    J[:, radius:] += _band_sweep(dirs, cache, 1, v[0, HIDDEN:], radius)[::-1]
    return J


def forward(params: ModelParams, xs) -> np.ndarray:
    """Predictions for one (T, input_dim) sequence."""
    return forward_many([params], [xs])[0]


def forward_many(models, seqs) -> list[np.ndarray]:
    """Predictions of models[r] on seqs[r], all from one stacked scan:
    each model flattened at the common width, rows ordered longest first,
    results in the caller's order."""
    seqs = [_check_sequence(params, xs) for params, xs in zip(models, seqs, strict=True)]
    width = max((params.input_dim for params in models), default=0)
    order = sorted(range(len(seqs)), key=lambda r: -len(seqs[r]))
    flat = np.zeros((len(order), _size(width)))
    for row, r in enumerate(order):
        flat[row, _own_entries(models[r].input_dim, width)] = models[r].flat
    preds = _predict_rows(flat, width, [seqs[r] for r in order])
    return [preds[row] for row in np.argsort(order)]


def forward_batch(params: ModelParams, xs: np.ndarray) -> np.ndarray:
    """Predictions for a (B, T, input_dim) stack of equal-length sequences."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[2] != params.input_dim:
        raise ValueError(
            f"batch shape {xs.shape} does not match input_dim {params.input_dim}")
    return np.array([forward(params, x) for x in xs]).reshape(xs.shape[:2])


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 200
    seed: int = 0
    early_stop_patience: int = 20

    def __post_init__(self):
        if self.epochs < 0:
            raise SettingError("epochs", f"must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise SettingError("learning_rate",
                               f"must be a finite number >= 0, got {self.learning_rate!r}")
        if self.early_stop_patience < 1:
            raise SettingError("early_stop_patience",
                               f"must be >= 1, got {self.early_stop_patience}")
        if self.seed < 0:
            raise SettingError("seed", f"must be >= 0, got {self.seed}")

    def header_items(self) -> list[tuple[str, str]]:
        return [
            ("train.learning_rate", repr(self.learning_rate)),
            ("train.rmsprop_decay", repr(RMSPROP_DECAY)),
            ("train.rmsprop_epsilon", repr(RMSPROP_EPSILON)),
            ("train.epochs", str(self.epochs)),
            ("train.gradient_clip_norm", repr(GRADIENT_CLIP_NORM)),
            ("train.seed", str(self.seed)),
            ("train.early_stop_patience", str(self.early_stop_patience)),
            ("train.validation_fraction", repr(VALIDATION_FRACTION)),
        ]


@dataclass(frozen=True)
class TrainLogEntry:
    epoch: int
    train_mse: float
    val_mse: float


def _check_dims(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"sequences must be 2-D (T, features), got shape {xs.shape}")
    return xs


class _Run:
    """One model's training: its pieces and their split, its RNG, early
    stopping state and log. Pieces are read from the dataset when used, so
    a dataset may compute them on demand."""

    def __init__(self, dataset, cfg: TrainConfig, seed: int):
        if not dataset:
            raise ValueError("empty training dataset")
        self.dataset = dataset
        self.lengths = []
        for i in range(len(dataset)):
            xs, ys = self.piece(i)
            if i == 0:
                self.input_dim = xs.shape[1]
            if xs.shape[1] != self.input_dim or len(ys) != len(xs):
                raise ValueError(f"dataset item {i}: sequence shape {xs.shape} with "
                                 f"{len(ys)} targets, expected input_dim {self.input_dim} "
                                 f"and one target per step")
            self.lengths.append(len(xs))
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        n = len(dataset)
        perm = self.rng.permutation(n)
        n_val = max(1, round(VALIDATION_FRACTION * n)) if n >= 2 else 0
        self.train_idx = [int(i) for i in perm[n_val:]]
        self.val_idx = [int(i) for i in perm[:n_val]] or self.train_idx
        empty = [i for i in self.train_idx if self.lengths[i] == 0]
        if cfg.epochs and empty:
            raise ValueError(f"dataset item {empty[0]} has no time steps")
        self.best_val = np.inf
        self.bad_epochs = 0
        self.stopped = False
        self.log: list[TrainLogEntry] = []
        self.error: TrainingDiverged | None = None

    def piece(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = self.dataset[i]
        return _check_dims(xs), np.asarray(ys, dtype=float).ravel()


def _own_entries(input_dim: int, width: int) -> np.ndarray:
    """Where a model's entries, flattened at its own ``input_dim``, sit in
    the same model flattened at ``width`` (W columns past input_dim are
    not its own), in layout order."""
    parts = _split(np.arange(_size(width))[None], width)
    return np.concatenate([t[0, ..., :input_dim] if name.endswith(".W") else t[0]
                           for name, t in parts.items()], axis=None)


def train(dataset, cfg: TrainConfig) -> tuple[ModelParams, list[TrainLogEntry]]:
    """RMSProp over seeded-shuffled pieces, one update per piece.

    A tenth of the pieces (at least one, when two or more exist) is held
    out for early stopping; the returned parameters are the best seen on
    that slice. A non-finite training or validation loss raises
    TrainingDiverged naming the dataset item. This is train_many on one
    model.
    """
    return train_many([dataset], cfg, [cfg.seed])[0]


def train_many(datasets, cfg: TrainConfig,
               seeds) -> list[tuple[ModelParams, list[TrainLogEntry]]]:
    """Train one model per dataset under ``cfg``, model m seeded with
    ``seeds[m]`` (``cfg.seed`` is not read), all in lockstep.

    Each model keeps its own piece order, validation split, RMSProp
    state, clipping and early stopping; at every update slot the models
    that still train and have a piece in it advance together, each on its
    own piece, in one ``loss_and_gradient`` call. Every result is
    bit-identical to ``train`` on that dataset alone with
    ``replace(cfg, seed=seeds[m])``. If models diverge, the error of the
    first of them in list order is raised (its ``model`` is that
    position), as training them one after another would.
    """
    runs = [_Run(dataset, cfg, seed) for dataset, seed in zip(datasets, seeds, strict=True)]
    if not runs:
        return []
    # row m of theta, accum and best holds model m flattened at the common
    # width; no scan reads its W columns past its own input_dim (their
    # gradients are 0, so they stay 0), and own[m] picks out the rest
    width = max(run.input_dim for run in runs)
    own = [_own_entries(run.input_dim, width) for run in runs]
    theta = np.zeros((len(runs), _size(width)))
    for m, run in enumerate(runs):
        theta[m, own[m]] = init_model(run.input_dim, seed=run.seed).flat
    accum = np.zeros_like(theta)
    best = theta.copy()
    first_error = len(runs)

    def diverged(m, what, epoch, index):
        nonlocal first_error
        runs[m].error = TrainingDiverged(what, epoch, index, model=m)
        first_error = min(first_error, m)

    active = list(range(len(runs)))
    # a diverging run overflows on its way to a non-finite loss; the
    # isfinite checks below report it, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            if not active:
                break
            orders = {m: runs[m].rng.permutation(len(runs[m].train_idx)) for m in active}
            losses = {m: [] for m in active}
            for j in range(max(len(order) for order in orders.values())):
                slot = [m for m in active if j < len(orders[m])]
                if not slot:
                    break
                items = {m: runs[m].train_idx[orders[m][j]] for m in slot}
                pieces = {m: runs[m].piece(items[m]) for m in slot}
                slot.sort(key=lambda m: -len(pieces[m][0]))
                rows = np.array(slot)
                slot_losses, grads = loss_and_gradient(theta[rows], width,
                                                       [pieces[m] for m in slot])
                for r, m in enumerate(slot):
                    loss = float(slot_losses[r])
                    if not np.isfinite(loss):
                        diverged(m, "loss", epoch, items[m])
                        continue
                    losses[m].append(loss)
                    norm = float(np.linalg.norm(grads[r, own[m]]))
                    if norm > GRADIENT_CLIP_NORM:
                        grads[r] = grads[r] * (GRADIENT_CLIP_NORM / norm)
                accum[rows] = (RMSPROP_DECAY * accum[rows]
                               + (1.0 - RMSPROP_DECAY) * grads * grads)
                theta[rows] = theta[rows] - cfg.learning_rate * grads / (
                    np.sqrt(accum[rows]) + RMSPROP_EPSILON)
                active = [m for m in active if m < first_error]

            for m, (val_mse, culprit) in _validation(theta, width, runs, active).items():
                run = runs[m]
                if not np.isfinite(val_mse):
                    diverged(m, "validation loss", epoch, culprit)
                    continue
                train_mse = float(np.mean(losses[m])) if losses[m] else val_mse
                run.log.append(TrainLogEntry(epoch, train_mse, val_mse))
                if val_mse < run.best_val:
                    run.best_val = val_mse
                    best[m] = theta[m]
                    run.bad_epochs = 0
                else:
                    run.bad_epochs += 1
                    run.stopped = run.bad_epochs >= cfg.early_stop_patience
            active = [m for m in active if m < first_error and not runs[m].stopped]

    if first_error < len(runs):
        raise runs[first_error].error
    return [(ModelParams(run.input_dim, best[m, own[m]]), run.log)
            for m, run in enumerate(runs)]


def _validation(theta, width, runs, models) -> dict[int, tuple[float, int]]:
    """Pooled MSE of each model on its validation pieces, all models
    together; per model (mse, dataset item at which the pooled error
    became non-finite, or -1)."""
    sse = {m: 0.0 for m in models}
    steps = {m: 0 for m in models}
    culprit = {m: -1 for m in models}
    for k in range(max((len(runs[m].val_idx) for m in models), default=0)):
        pieces = {m: runs[m].val_idx[k] for m in models if k < len(runs[m].val_idx)}
        rows = sorted(pieces, key=lambda m: -runs[m].lengths[pieces[m]])
        seqs = [runs[m].piece(pieces[m]) for m in rows]
        preds = _predict_rows(theta[rows], width, [xs for xs, _ in seqs])
        for m, (_, ys), pred in zip(rows, seqs, preds):
            err = pred - ys
            sse[m] += float(err @ err)
            steps[m] += len(err)
            if culprit[m] < 0 and not np.isfinite(sse[m]):
                culprit[m] = pieces[m]
    return {m: (sse[m] / steps[m] if steps[m] else 0.0, culprit[m]) for m in models}


# ---------------------------------------------------------------------------
# model files


def dumps_model(params: ModelParams, meta: dict[str, str] | None = None) -> str:
    """Versioned plain-text dump; floats use shortest round-trip repr."""
    lines = [f"{_FILE_MAGIC} v{_FILE_VERSION}",
             f"input_dim {params.input_dim}",
             f"hidden {HIDDEN}",
             f"gate_order {','.join(GATE_ORDER)}"]
    for key, value in (meta or {}).items():
        if any(c in key for c in " \t\n") or "\n" in str(value):
            raise ValueError(f"meta key/value not representable: {key!r}")
        lines.append(f"meta {key} {value}")
    for name, tensor in params.tensors().items():
        shape = "x".join(str(s) for s in tensor.shape)
        values = " ".join(repr(float(v)) for v in tensor.ravel())
        lines.append(f"tensor {name} {shape} {values}".rstrip())
    return "\n".join(lines) + "\n"


def loads_model(text: str) -> tuple[ModelParams, dict[str, str]]:
    """Parse a dumps_model text; every malformed file raises ValueError
    naming the header line or tensor at fault."""
    # leading '#' lines (manifest headers) are tolerated and skipped
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith(_FILE_MAGIC):
        raise ValueError("not a model file")
    if lines[0].split() != [_FILE_MAGIC, f"v{_FILE_VERSION}"]:
        raise ValueError(f"unsupported model file version line {lines[0]!r}, "
                         f"expected '{_FILE_MAGIC} v{_FILE_VERSION}'")
    meta: dict[str, str] = {}
    header: dict[str, str] = {_FILE_MAGIC: lines[0]}
    tensors: dict[str, tuple[str, list[str]]] = {}
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "meta":
            key, _, value = rest.partition(" ")
            if key in meta:
                raise ValueError(f"meta key {key!r} appears more than once")
            meta[key] = value
        elif kind == "tensor":
            name, _, body = rest.partition(" ")
            if name in tensors:
                raise ValueError(f"tensor {name} appears more than once")
            shape, *cells = body.split(" ")
            tensors[name] = (shape, cells)
        elif kind in header:
            raise ValueError(f"'{kind}' header line appears more than once")
        elif kind in ("input_dim", "hidden", "gate_order"):
            header[kind] = rest
        else:
            raise ValueError(f"unknown header line {line!r}")
    dims = {}
    for key in ("input_dim", "hidden"):
        if key not in header:
            raise ValueError(f"missing '{key}' header line")
        try:
            dims[key] = int(header[key])
        except ValueError:
            raise ValueError(f"'{key}' header is not an integer: {header[key]!r}") from None
        if dims[key] < 0:
            raise ValueError(f"'{key}' header is negative: {dims[key]}")
    if dims["hidden"] != HIDDEN:
        raise ValueError(f"'hidden' header is {dims['hidden']}, expected {HIDDEN}")
    input_dim = dims["input_dim"]
    if header.get("gate_order") != ",".join(GATE_ORDER):
        raise ValueError(f"gate_order header is {header.get('gate_order')!r}, "
                         f"expected {','.join(GATE_ORDER)}")
    expected = _shapes(input_dim)
    unknown = sorted(set(tensors) - {name for name, _ in expected})
    if unknown:
        raise ValueError(f"unknown tensor {unknown[0]}")
    flat = []
    for name, shape in expected:
        if name not in tensors:
            raise ValueError(f"missing tensor {name}")
        declared, cells = tensors[name]
        want = "x".join(str(s) for s in shape)
        if declared != want:
            raise ValueError(f"tensor {name} has shape {declared!r}, expected {want}")
        if len(cells) != int(np.prod(shape)):
            raise ValueError(f"tensor {name} has {len(cells)} values, "
                             f"expected {int(np.prod(shape))}")
        try:
            values = [float(v) for v in cells]
        except ValueError:
            raise ValueError(f"tensor {name} holds a non-numeric value") from None
        if not np.isfinite(values).all():
            raise ValueError(f"tensor {name} holds a non-finite parameter")
        flat.extend(values)
    return ModelParams(input_dim, np.array(flat)), meta


def load_model(path) -> tuple[ModelParams, dict[str, str]]:
    with open(path) as fh:
        text = fh.read()
    try:
        return loads_model(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
