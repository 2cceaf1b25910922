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
the training pieces. All randomness flows from explicit seeds, so
identical (seed, data, config) reproduce bit-identical parameters and
logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid

from .errors import TrainingDiverged

HIDDEN = 5
GATE_ORDER = ("input", "forget", "output", "candidate")

_FILE_MAGIC = "tonaltension-model"
_FILE_VERSION = 1


@dataclass
class DirectionParams:
    """Gate parameters for one scan direction, gate blocks stacked in
    GATE_ORDER along the first axis (4H rows)."""

    W: np.ndarray  # (4H, input_dim)
    U: np.ndarray  # (4H, H)
    alpha: np.ndarray  # (4H,)
    beta1: np.ndarray  # (4H,)
    beta2: np.ndarray  # (4H,)
    bias: np.ndarray  # (4H,)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [("W", self.W), ("U", self.U), ("alpha", self.alpha),
                ("beta1", self.beta1), ("beta2", self.beta2), ("bias", self.bias)]


@dataclass
class ModelParams:
    input_dim: int
    hidden: int
    fwd: DirectionParams
    bwd: DirectionParams
    v: np.ndarray  # (2H,)
    out_bias: float

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        named = [(f"fwd.{n}", t) for n, t in self.fwd.tensors()]
        named += [(f"bwd.{n}", t) for n, t in self.bwd.tensors()]
        named.append(("out.v", self.v))
        named.append(("out.bias", np.array([self.out_bias])))
        return named

    def flatten(self) -> np.ndarray:
        return np.concatenate([t.ravel() for _, t in self.tensors()])

    def copy(self) -> "ModelParams":
        return unflatten(self.flatten(), self.input_dim, self.hidden)

    @property
    def size(self) -> int:
        return sum(t.size for _, t in self.tensors())


def _shapes(input_dim: int, hidden: int) -> list[tuple[str, tuple[int, ...]]]:
    per_dir = [("W", (4 * hidden, input_dim)), ("U", (4 * hidden, hidden)),
               ("alpha", (4 * hidden,)), ("beta1", (4 * hidden,)),
               ("beta2", (4 * hidden,)), ("bias", (4 * hidden,))]
    named = [(f"{d}.{n}", s) for d in ("fwd", "bwd") for n, s in per_dir]
    named.append(("out.v", (2 * hidden,)))
    named.append(("out.bias", (1,)))
    return named


_DIR_FIELDS = ("W", "U", "alpha", "beta1", "beta2", "bias")


def unflatten(flat: np.ndarray, input_dim: int, hidden: int) -> ModelParams:
    """Inverse of ModelParams.flatten (exact round trip)."""
    flat = np.asarray(flat, dtype=float)
    parts = {}
    pos = 0
    for name, shape in _shapes(input_dim, hidden):
        size = int(np.prod(shape))
        parts[name] = flat[pos:pos + size].reshape(shape).copy()
        pos += size
    if pos != flat.size:
        raise ValueError(f"flat vector has {flat.size} values, expected {pos}")

    def direction(prefix):
        return DirectionParams(*(parts[f"{prefix}.{n}"] for n in _DIR_FIELDS))

    return ModelParams(input_dim, hidden,
                       direction("fwd"), direction("bwd"),
                       parts["out.v"], float(parts["out.bias"][0]))


def init_model(input_dim: int, seed: int, hidden: int = HIDDEN) -> ModelParams:
    """Glorot-uniform projections; alpha = 1, beta = 0.5, forget bias 1."""
    if input_dim < 0:
        raise ValueError(f"input_dim must be >= 0, got {input_dim}")
    rng = np.random.default_rng(seed)

    def direction() -> DirectionParams:
        sw = np.sqrt(6.0 / (input_dim + hidden))
        su = np.sqrt(6.0 / (hidden + hidden))
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0  # forget gate block
        return DirectionParams(
            W=rng.uniform(-sw, sw, size=(4 * hidden, input_dim)),
            U=rng.uniform(-su, su, size=(4 * hidden, hidden)),
            alpha=np.ones(4 * hidden),
            beta1=np.full(4 * hidden, 0.5),
            beta2=np.full(4 * hidden, 0.5),
            bias=bias,
        )

    fwd = direction()
    bwd = direction()
    sv = np.sqrt(6.0 / (2 * hidden + 1))
    return ModelParams(input_dim, hidden, fwd, bwd,
                       rng.uniform(-sv, sv, size=2 * hidden), 0.0)


# ---------------------------------------------------------------------------
# forward / backward


def _check_sequence(params: ModelParams, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1 and params.input_dim == 0:
        xs = xs.reshape(len(xs), 0)
    if xs.ndim != 2 or xs.shape[1] != params.input_dim:
        raise ValueError(
            f"sequence shape {xs.shape} does not match input_dim {params.input_dim}")
    return xs


def _scan(d: DirectionParams, xs: np.ndarray, hidden: int):
    """Run one direction over (T, D) inputs; returns the per-step cache."""
    T = xs.shape[0]
    H = hidden
    P = xs @ d.W.T  # (T, 4H)
    Q = np.empty((T, 4 * H))
    gates = np.empty((T, 4 * H))  # i, f, o, g blocks after nonlinearity
    C = np.empty((T, H))
    Hs = np.empty((T, H))
    h = np.zeros(H)
    c = np.zeros(H)
    for t in range(T):
        q = d.U @ h
        a = d.alpha * P[t] * q + d.beta1 * q + d.beta2 * P[t] + d.bias
        ifo = sigmoid(a[:3 * H])
        g = np.tanh(a[3 * H:])
        i, f, o = ifo[:H], ifo[H:2 * H], ifo[2 * H:]
        c = f * c + i * g
        h = o * np.tanh(c)
        Q[t] = q
        gates[t, :3 * H] = ifo
        gates[t, 3 * H:] = g
        C[t] = c
        Hs[t] = h
    return {"P": P, "Q": Q, "gates": gates, "C": C, "H": Hs, "xs": xs}


def _previous(rows: np.ndarray) -> np.ndarray:
    """Per-step rows shifted one step later: row t holds step t-1, row 0 zeros."""
    return np.vstack([np.zeros((1, rows.shape[1])), rows[:-1]])


def _cell_grad(d: DirectionParams, gates, c, c_prev, p, q, dh, dc):
    """Reverse one cell step on (H,) rows or (B, H) stacks of rows.

    ``gates``, ``p`` and ``q`` are the step's cached activations and
    projections, ``c``/``c_prev`` its cell state and the previous one,
    ``dh``/``dc`` the gradient arriving at its hidden and cell state.
    Returns (da, dp, dq, dh_prev, dc_prev): the gradients of the gate
    pre-activations, of the input and recurrent projections, and those
    carried to the previous step.
    """
    H = c.shape[-1]
    i = gates[..., :H]
    f = gates[..., H:2 * H]
    o = gates[..., 2 * H:3 * H]
    g = gates[..., 3 * H:]
    tc = np.tanh(c)
    do = dh * tc
    dc = dc + dh * o * (1.0 - tc * tc)
    da = np.empty(gates.shape)
    da[..., :H] = (dc * g) * i * (1.0 - i)
    da[..., H:2 * H] = (dc * c_prev) * f * (1.0 - f)
    da[..., 2 * H:3 * H] = do * o * (1.0 - o)
    da[..., 3 * H:] = (dc * i) * (1.0 - g * g)
    dp = da * (d.alpha * q + d.beta2)
    dq = da * (d.alpha * p + d.beta1)
    return da, dp, dq, dq @ d.U, dc * f


def _scan_grad(d: DirectionParams, cache: dict, dH_out: np.ndarray, hidden: int):
    """BPTT through one direction; dH_out holds the loss gradient injected
    at each scan step's hidden state."""
    P, Q, gates, C, Hs, xs = (cache[k] for k in ("P", "Q", "gates", "C", "H", "xs"))
    T = xs.shape[0]
    H = hidden
    g_W = np.zeros_like(d.W)
    g_U = np.zeros_like(d.U)
    g_alpha = np.zeros_like(d.alpha)
    g_beta1 = np.zeros_like(d.beta1)
    g_beta2 = np.zeros_like(d.beta2)
    g_bias = np.zeros_like(d.bias)
    dh_rec = np.zeros(H)
    dc_rec = np.zeros(H)
    C_prev = _previous(C)
    H_prev = _previous(Hs)
    for t in range(T - 1, -1, -1):
        da, dp, dq, dh_rec, dc_rec = _cell_grad(
            d, gates[t], C[t], C_prev[t], P[t], Q[t], dH_out[t] + dh_rec, dc_rec)
        g_alpha += da * P[t] * Q[t]
        g_beta1 += da * Q[t]
        g_beta2 += da * P[t]
        g_bias += da
        g_W += dp[:, None] * xs[t]  # np.outer without its call overhead
        g_U += dq[:, None] * H_prev[t]
    return DirectionParams(g_W, g_U, g_alpha, g_beta1, g_beta2, g_bias)


def _band_sweep(d: DirectionParams, cache: dict, v: np.ndarray, radius: int) -> np.ndarray:
    """Exact d y_tau / d x_{tau-k} for k = 0..radius through one scan.

    Every output step tau starts its own reverse sweep (dh = v) at once;
    sweep k processes scan step tau - k for all tau >= k together, so the
    carried (dh, dc) rows line up with cache rows 0..T-1-k and the row of
    the sweep that just reached step 0 is dropped. Returns (T, radius+1, D)
    with entry [tau, k] zero where tau - k < 0.
    """
    P, Q, gates, C, xs = (cache[k] for k in ("P", "Q", "gates", "C", "xs"))
    T, D = xs.shape
    C_prev = _previous(C)
    band = np.zeros((T, radius + 1, D))
    dh = np.tile(v, (T, 1))
    dc = np.zeros_like(C)
    for k in range(min(radius + 1, T)):
        n = T - k
        _, dp, _, dh, dc = _cell_grad(d, gates[:n], C[:n], C_prev[:n],
                                      P[:n], Q[:n], dh, dc)
        band[k:, k] = dp @ d.W
        dh, dc = dh[1:], dc[1:]
    return band


def input_jacobian_band(params: ModelParams, xs, radius: int) -> np.ndarray:
    """Exact input Jacobian of the predictions within ``radius`` steps.

    Returns J of shape (T, 2*radius + 1, input_dim) with
    J[tau, k, f] = d y_tau / d x_{tau + k - radius, f}; entries whose
    input step falls off the sequence are exactly 0. Costs one scan per
    direction plus radius + 1 batched reverse steps, O(T * radius).
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    xs = _check_sequence(params, xs)
    H = params.hidden
    fwd = _band_sweep(params.fwd, _scan(params.fwd, xs, H), params.v[:H], radius)
    bwd = _band_sweep(params.bwd, _scan(params.bwd, xs[::-1], H), params.v[H:], radius)
    J = np.zeros((xs.shape[0], 2 * radius + 1, params.input_dim))
    # the forward scan reaches back (offsets -radius..0, k steps = offset -k);
    # the backward scan, flipped into tau order, reaches ahead (0..radius)
    J[:, radius::-1] += fwd
    J[:, radius:] += bwd[::-1]
    return J


def forward(params: ModelParams, xs) -> np.ndarray:
    """Predictions for one (T, input_dim) sequence."""
    xs = _check_sequence(params, xs)
    T = xs.shape[0]
    if T == 0:
        return np.zeros(0)
    H = params.hidden
    hf = _scan(params.fwd, xs, H)["H"]
    hb = _scan(params.bwd, xs[::-1], H)["H"][::-1]
    return hf @ params.v[:H] + hb @ params.v[H:] + params.out_bias


def forward_batch(params: ModelParams, xs: np.ndarray) -> np.ndarray:
    """Predictions for a (B, T, input_dim) stack of equal-length sequences."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[2] != params.input_dim:
        raise ValueError(
            f"batch shape {xs.shape} does not match input_dim {params.input_dim}")
    return np.array([forward(params, x) for x in xs]).reshape(xs.shape[:2])


def loss_and_gradient(params: ModelParams, batch) -> tuple[float, np.ndarray]:
    """Mean squared error pooled over every time step in the batch, and
    its exact gradient, flattened in canonical parameter order."""
    if not batch:
        raise ValueError("empty batch")
    H = params.hidden
    sequences = []
    total_steps = 0
    for xs, ys in batch:
        xs = _check_sequence(params, xs)
        ys = np.asarray(ys, dtype=float).ravel()
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"sequence length {xs.shape[0]} != target length {ys.shape[0]}")
        sequences.append((xs, ys))
        total_steps += xs.shape[0]
    if total_steps == 0:
        raise ValueError("batch contains no time steps")

    g_fwd = _zero_direction(params)
    g_bwd = _zero_direction(params)
    g_v = np.zeros_like(params.v)
    g_out_bias = 0.0
    sse = 0.0
    for xs, ys in sequences:
        T = xs.shape[0]
        if T == 0:
            continue
        cf = _scan(params.fwd, xs, H)
        cb = _scan(params.bwd, xs[::-1], H)
        hf = cf["H"]
        hb = cb["H"][::-1]
        pred = hf @ params.v[:H] + hb @ params.v[H:] + params.out_bias
        err = pred - ys
        sse += float(err @ err)
        dy = 2.0 * err / total_steps
        g_v[:H] += hf.T @ dy
        g_v[H:] += hb.T @ dy
        g_out_bias += float(dy.sum())
        df = _scan_grad(params.fwd, cf, np.outer(dy, params.v[:H]), H)
        db = _scan_grad(params.bwd, cb, np.outer(dy[::-1], params.v[H:]), H)
        _accumulate(g_fwd, df)
        _accumulate(g_bwd, db)

    grad = ModelParams(params.input_dim, H, g_fwd, g_bwd, g_v, g_out_bias)
    return sse / total_steps, grad.flatten()


def _zero_direction(params: ModelParams) -> DirectionParams:
    return DirectionParams(*(np.zeros_like(getattr(params.fwd, f))
                             for f in _DIR_FIELDS))


def _accumulate(into: DirectionParams, delta: DirectionParams) -> None:
    into.W += delta.W
    into.U += delta.U
    into.alpha += delta.alpha
    into.beta1 += delta.beta1
    into.beta2 += delta.beta2
    into.bias += delta.bias


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    rmsprop_decay: float = 0.9
    rmsprop_epsilon: float = 1e-8
    epochs: int = 200
    gradient_clip_norm: float = 5.0
    seed: int = 0
    early_stop_patience: int = 20
    validation_fraction: float = 0.1

    def header_items(self) -> list[tuple[str, str]]:
        return [
            ("train.learning_rate", repr(self.learning_rate)),
            ("train.rmsprop_decay", repr(self.rmsprop_decay)),
            ("train.rmsprop_epsilon", repr(self.rmsprop_epsilon)),
            ("train.epochs", str(self.epochs)),
            ("train.gradient_clip_norm", repr(self.gradient_clip_norm)),
            ("train.seed", str(self.seed)),
            ("train.early_stop_patience", str(self.early_stop_patience)),
            ("train.validation_fraction", repr(self.validation_fraction)),
        ]


@dataclass(frozen=True)
class TrainLogEntry:
    epoch: int
    train_mse: float
    val_mse: float


def _pooled_mse(params: ModelParams, pieces) -> float:
    sse = 0.0
    steps = 0
    for xs, ys in pieces:
        pred = forward(params, xs)
        err = pred - np.asarray(ys, dtype=float).ravel()
        sse += float(err @ err)
        steps += len(err)
    return sse / steps if steps else 0.0


def train(dataset, cfg: TrainConfig) -> tuple[ModelParams, list[TrainLogEntry]]:
    """RMSProp over seeded-shuffled pieces, one update per piece.

    A tenth of the pieces (at least one, when two or more exist) is held
    out for early stopping; the returned parameters are the best seen on
    that slice.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    dataset = [( _check_dims(xs), np.asarray(ys, dtype=float).ravel())
               for xs, ys in dataset]
    input_dim = dataset[0][0].shape[1]
    rng = np.random.default_rng(cfg.seed)
    params = init_model(input_dim, seed=cfg.seed)

    n = len(dataset)
    perm = rng.permutation(n)
    n_val = max(1, round(cfg.validation_fraction * n)) if n >= 2 else 0
    val_pieces = [dataset[i] for i in perm[:n_val]]
    train_idx = list(perm[n_val:])
    if not val_pieces:
        val_pieces = [dataset[i] for i in train_idx]

    theta = params.flatten()
    accum = np.zeros_like(theta)
    best_val = np.inf
    best_theta = theta.copy()
    bad_epochs = 0
    log: list[TrainLogEntry] = []

    # a diverging run overflows on its way to a non-finite loss; the
    # isfinite check below reports it, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(train_idx))
            piece_losses = []
            for j in order:
                piece = dataset[train_idx[j]]
                params = unflatten(theta, input_dim, params.hidden)
                loss, grad = loss_and_gradient(params, [piece])
                if not np.isfinite(loss):
                    i = int(train_idx[j])
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, dataset item {i}", epoch, i)
                piece_losses.append(loss)
                norm = float(np.linalg.norm(grad))
                if norm > cfg.gradient_clip_norm > 0:
                    grad = grad * (cfg.gradient_clip_norm / norm)
                accum = cfg.rmsprop_decay * accum + (1.0 - cfg.rmsprop_decay) * grad * grad
                theta = theta - cfg.learning_rate * grad / (np.sqrt(accum) + cfg.rmsprop_epsilon)

            params = unflatten(theta, input_dim, params.hidden)
            val_mse = _pooled_mse(params, val_pieces)
            train_mse = float(np.mean(piece_losses)) if piece_losses else val_mse
            log.append(TrainLogEntry(epoch, train_mse, val_mse))
            if val_mse < best_val:
                best_val = val_mse
                best_theta = theta.copy()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.early_stop_patience:
                    break

    return unflatten(best_theta, input_dim, params.hidden), log


def _check_dims(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"sequences must be 2-D (T, features), got shape {xs.shape}")
    return xs


# ---------------------------------------------------------------------------
# model files


def dumps_model(params: ModelParams, meta: dict[str, str] | None = None) -> str:
    """Versioned plain-text dump; floats use shortest round-trip repr."""
    lines = [f"{_FILE_MAGIC} v{_FILE_VERSION}",
             f"input_dim {params.input_dim}",
             f"hidden {params.hidden}",
             f"gate_order {','.join(GATE_ORDER)}"]
    for key, value in (meta or {}).items():
        if any(c in key for c in " \t\n") or "\n" in str(value):
            raise ValueError(f"meta key/value not representable: {key!r}")
        lines.append(f"meta {key} {value}")
    for name, tensor in params.tensors():
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
    header: dict[str, str] = {}
    tensors: dict[str, tuple[str, list[str]]] = {}
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "meta":
            key, _, value = rest.partition(" ")
            meta[key] = value
        elif kind == "tensor":
            name, _, body = rest.partition(" ")
            if name in tensors:
                raise ValueError(f"tensor {name} appears more than once")
            shape, *cells = body.split(" ")
            tensors[name] = (shape, cells)
        else:
            header[kind] = rest
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
    input_dim, hidden = dims["input_dim"], dims["hidden"]
    if header.get("gate_order") != ",".join(GATE_ORDER):
        raise ValueError(f"gate_order header is {header.get('gate_order')!r}, "
                         f"expected {','.join(GATE_ORDER)}")
    expected = _shapes(input_dim, hidden)
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
    return unflatten(np.array(flat), input_dim, hidden), meta


def save_model(params: ModelParams, path, meta: dict[str, str] | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_model(params, meta))


def load_model(path) -> tuple[ModelParams, dict[str, str]]:
    with open(path) as fh:
        text = fh.read()
    try:
        return loads_model(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
