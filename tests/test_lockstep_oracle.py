"""Lockstep training against the one-model-at-a-time trainer it replaced.

The oracle below is the sequential trainer as it stood before training
moved onto a model axis: its own scan, BPTT and RMSProp loop, one model
and one piece at a time, and a cross-validation loop that trains each
(experiment, fold) model in turn. Its one change is the validation check:
a non-finite validation MSE now diverges (naming the piece) instead of
leaving the initial parameters in place, so both sides agree on every
error. Lockstep results must be bit-identical (``array_equal`` parameters,
equal logs and R2 tables) and raise the same first divergence.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.special import expit as sigmoid

from tonaltension import model as model_mod
from tonaltension.errors import TrainingDiverged
from tonaltension.evaluate import (Piece, columns, make_folds, r2, run_cv,
                                   standardize_stats)
from tonaltension.features import CANONICAL_ORDER, feature_names
from tonaltension.model import (GRADIENT_CLIP_NORM, HIDDEN, RMSPROP_DECAY, RMSPROP_EPSILON,
                                VALIDATION_FRACTION, ModelParams, TrainConfig, TrainLogEntry,
                                forward, forward_many, init_model, input_jacobian_band,
                                loss_and_gradient, train_many)
from tonaltension.targets import TARGET_NAMES

# ---------------------------------------------------------------------------
# oracle: one model, one sequence at a time

GATE_FIELDS = ("W", "U", "alpha", "beta1", "beta2", "bias")


def o_unpack(params):
    """Copies of the model's tensors: each direction's gate tensors as
    attributes, the output weights, and the output bias as a float."""
    t = params.tensors()
    fwd, bwd = (SimpleNamespace(**{n: t[f"{d}.{n}"].copy() for n in GATE_FIELDS})
                for d in ("fwd", "bwd"))
    return fwd, bwd, t["out.v"].copy(), float(t["out.bias"][0])


def o_scan(d, xs, H):
    T = xs.shape[0]
    P = xs @ d.W.T
    Q = np.empty((T, 4 * H))
    gates = np.empty((T, 4 * H))
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


def o_previous(rows):
    return np.vstack([np.zeros((1, rows.shape[1])), rows[:-1]])


def o_scan_grad(d, cache, dH_out, H):
    P, Q, gates, C, Hs, xs = (cache[k] for k in ("P", "Q", "gates", "C", "H", "xs"))
    g = {k: np.zeros_like(getattr(d, k)) for k in GATE_FIELDS}
    dh_rec = np.zeros(H)
    dc_rec = np.zeros(H)
    C_prev = o_previous(C)
    H_prev = o_previous(Hs)
    for t in range(xs.shape[0] - 1, -1, -1):
        i, f, o, gg = (gates[t, k * H:(k + 1) * H] for k in range(4))
        tc = np.tanh(C[t])
        dh = dH_out[t] + dh_rec
        do = dh * tc
        dc = dc_rec + dh * o * (1.0 - tc * tc)
        da = np.empty(4 * H)
        da[:H] = (dc * gg) * i * (1.0 - i)
        da[H:2 * H] = (dc * C_prev[t]) * f * (1.0 - f)
        da[2 * H:3 * H] = do * o * (1.0 - o)
        da[3 * H:] = (dc * i) * (1.0 - gg * gg)
        dp = da * (d.alpha * Q[t] + d.beta2)
        dq = da * (d.alpha * P[t] + d.beta1)
        dh_rec, dc_rec = dq @ d.U, dc * f
        g["alpha"] += da * P[t] * Q[t]
        g["beta1"] += da * Q[t]
        g["beta2"] += da * P[t]
        g["bias"] += da
        g["W"] += dp[:, None] * xs[t]
        g["U"] += dq[:, None] * H_prev[t]
    return [g[k] for k in GATE_FIELDS]


def o_forward(params, xs):
    H = HIDDEN
    fwd, bwd, v, out_bias = o_unpack(params)
    hf = o_scan(fwd, xs, H)["H"]
    hb = o_scan(bwd, xs[::-1], H)["H"][::-1]
    return hf @ v[:H] + hb @ v[H:] + out_bias


def o_loss_and_gradient(params, xs, ys):
    H = HIDDEN
    T = xs.shape[0]
    fwd, bwd, v, out_bias = o_unpack(params)
    cf = o_scan(fwd, xs, H)
    cb = o_scan(bwd, xs[::-1], H)
    hf = cf["H"]
    hb = cb["H"][::-1]
    err = hf @ v[:H] + hb @ v[H:] + out_bias - ys
    sse = 0.0 + float(err @ err)
    dy = 2.0 * err / T
    g_v = np.zeros(2 * H)
    g_v[:H] += hf.T @ dy
    g_v[H:] += hb.T @ dy
    g_out_bias = 0.0 + float(dy.sum())
    grads = o_scan_grad(fwd, cf, np.outer(dy, v[:H]), H)
    grads += o_scan_grad(bwd, cb, np.outer(dy[::-1], v[H:]), H)
    flat = np.concatenate([t.ravel() for t in grads] + [g_v, [g_out_bias]])
    return sse / T, flat


def o_train(dataset, cfg):
    dataset = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float).ravel())
               for xs, ys in dataset]
    input_dim = dataset[0][0].shape[1]
    rng = np.random.default_rng(cfg.seed)
    theta = init_model(input_dim, seed=cfg.seed).flatten()
    n = len(dataset)
    perm = rng.permutation(n)
    n_val = max(1, round(VALIDATION_FRACTION * n)) if n >= 2 else 0
    val_idx = list(perm[:n_val])
    train_idx = list(perm[n_val:])
    if not val_idx:
        val_idx = train_idx
    accum = np.zeros_like(theta)
    best_val = np.inf
    best_theta = theta.copy()
    bad_epochs = 0
    log = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(train_idx))
            piece_losses = []
            for j in order:
                xs, ys = dataset[train_idx[j]]
                loss, grad = o_loss_and_gradient(ModelParams(input_dim, theta), xs, ys)
                if not np.isfinite(loss):
                    raise TrainingDiverged("loss", epoch, int(train_idx[j]))
                piece_losses.append(loss)
                norm = float(np.linalg.norm(grad))
                if norm > GRADIENT_CLIP_NORM:
                    grad = grad * (GRADIENT_CLIP_NORM / norm)
                accum = RMSPROP_DECAY * accum + (1.0 - RMSPROP_DECAY) * grad * grad
                theta = theta - cfg.learning_rate * grad / (np.sqrt(accum) + RMSPROP_EPSILON)
            params = ModelParams(input_dim, theta)
            sse, steps = 0.0, 0
            for i in val_idx:
                xs, ys = dataset[i]
                err = o_forward(params, xs) - ys
                sse += float(err @ err)
                steps += len(err)
                if not np.isfinite(sse):  # the one change: see the module docstring
                    raise TrainingDiverged("validation loss", epoch, int(i))
            val_mse = sse / steps if steps else 0.0
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
    return ModelParams(input_dim, best_theta), log


def o_run_cv(corpus, experiments, cfg, seed, k):
    fold_ids = make_folds([p.id for p in corpus], k=k, seed=seed)
    by_id = {p.id: p for p in corpus}
    results = []
    for target, feature_set in experiments:
        names = feature_names(set(feature_set))
        t_idx = TARGET_NAMES.index(target)
        per_piece = {}
        for fold_i, test_ids in enumerate(fold_ids):
            pieces = [p for p in corpus if p.id not in set(test_ids)]
            X = [columns(p, names) for p in pieces]
            mean, std = standardize_stats(np.vstack(X))
            dataset = [((x - mean) / std, p.targets[:, t_idx]) for x, p in zip(X, pieces)]
            try:
                params, _ = o_train(dataset, replace(cfg, seed=cfg.seed + fold_i))
            except TrainingDiverged as exc:
                raise exc.located(f"piece {pieces[exc.index].id}") from None
            for pid in test_ids:
                piece = by_id[pid]
                pred = o_forward(params, (columns(piece, names) - mean) / std)
                try:
                    per_piece[pid] = r2(pred, piece.targets[:, t_idx])
                except ValueError:
                    pass
        results.append(per_piece)
    return results


# ---------------------------------------------------------------------------
# strategies

WIDTHS = (0, 3, 4, 6, 7, 9, 10, 13)
LABELS = ("", "P", "M", "T", "PM", "PT", "MT", "PMT")  # widths 0, 6, 4, 3, 10, 9, 7, 13


def train_configs(draw):
    return TrainConfig(
        learning_rate=draw(st.sampled_from([1e-3, 3e-2, 0.3])),
        epochs=draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 50)),
        early_stop_patience=draw(st.integers(1, 3)))


@st.composite
def jobs(draw):
    """Models of mixed widths and seeds on ragged datasets, under one
    config; some carry a NaN target, which diverges wherever that piece is
    trained or validated on."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    datasets, seeds = [], []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.sampled_from(WIDTHS))
        lengths = draw(st.lists(st.integers(1, 14), min_size=1, max_size=6))
        data = [(rng.normal(size=(n, width)), rng.normal(size=n)) for n in lengths]
        if draw(st.integers(0, 5)) == 0:
            data[draw(st.integers(0, len(data) - 1))][1][0] = np.nan
        datasets.append(data)
        seeds.append(draw(st.integers(0, 50)))
    return datasets, train_configs(draw), seeds


@st.composite
def corpora(draw):
    """A corpus of ragged pieces split into k folds of unequal size, some
    experiments, and sometimes a NaN in one target column of one piece."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    k = draw(st.integers(2, 4))
    lengths = draw(st.lists(st.integers(3, 12), min_size=k + 1, max_size=8))
    corpus = []
    for i, n in enumerate(lengths):
        feats = rng.normal(size=(n, len(CANONICAL_ORDER)))
        targets = rng.normal(size=(n, len(TARGET_NAMES)))
        corpus.append(Piece(f"p{i}", feats, tuple(CANONICAL_ORDER), targets))
    if draw(st.booleans()):
        targets = corpus[draw(st.integers(0, len(corpus) - 1))].targets
        targets[draw(st.integers(0, targets.shape[0] - 1)),
                draw(st.integers(0, len(TARGET_NAMES) - 1))] = np.nan
    experiments = draw(st.lists(st.tuples(st.sampled_from(TARGET_NAMES),
                                          st.sampled_from(LABELS)),
                                min_size=1, max_size=3))
    return corpus, experiments, train_configs(draw), draw(st.integers(0, 20)), k


def outcome(fn, *args):
    try:
        return fn(*args), None
    except TrainingDiverged as exc:
        return None, (str(exc), exc.epoch, exc.index)


# ---------------------------------------------------------------------------
# tests


def narrow_beside_wide():
    """Width-0 and width-3 models on one axis with a width-13 model, their
    targets scaled until every gradient exceeds the clip norm: the clip
    norm must be taken over each model's own entries, in its own order."""
    rng = np.random.default_rng(3)
    datasets = [[(rng.normal(size=(n, width)), rng.normal(size=n)) for n in (9, 12, 7, 11, 10)]
                for width in (0, 3, 13)]
    seeds = [1, 2, 3]
    for scale in (1.0, 10.0, 100.0, 1000.0):
        scaled = [[(xs, scale * ys) for xs, ys in data] for data in datasets]
        norms = [np.linalg.norm(o_loss_and_gradient(init_model(xs.shape[1], seed=seed),
                                                    xs, ys)[1])
                 for data, seed in zip(scaled, seeds) for xs, ys in data]
        if min(norms) > GRADIENT_CLIP_NORM:
            break
    # each model's first update clips, whichever piece it draws first
    assert min(norms) > GRADIENT_CLIP_NORM
    cfg = TrainConfig(learning_rate=0.3, epochs=4, early_stop_patience=3)
    return scaled, cfg, seeds


def two_piece_validation():
    """Models of 15 pieces beside one of 6: a tenth of 15 rounds to a
    validation pool of 2 (round(1.5) = 2), of 6 to 1, so the pooled
    validation runs past the end of one model's pool."""
    rng = np.random.default_rng(7)
    datasets = [[(rng.normal(size=(n, width)), rng.normal(size=n))
                 for n in rng.integers(3, 12, size=count)]
                for width, count in ((0, 15), (4, 6), (13, 15))]
    cfg = TrainConfig(learning_rate=3e-2, epochs=3, early_stop_patience=2)
    return datasets, cfg, [7, 8, 9]


def across_time_blocks():
    """45 models, as many as eval trains, so an update slot stacks 90 rows
    and the reverse scan runs in the short blocks of that row count. Pieces
    are 17-47 frames long: each span of 90 rows runs through two or more
    blocks, and rows of different lengths cross block edges at different
    steps."""
    rng = np.random.default_rng(5)
    assert 2 * model_mod._block_steps(90) < 17
    datasets = [[(rng.normal(size=(n, width)), rng.normal(size=n))
                 for n in rng.integers(17, 48, size=4)]
                for width in (0, 3, 13) * 15]
    cfg = TrainConfig(learning_rate=3e-2, epochs=3, early_stop_patience=2)
    return datasets, cfg, list(range(4, 49))


def shrinking_slots():
    """Models of widths 13, 4 and 0 with 3, 5 and 8 training pieces, the
    narrower ones on shorter pieces: each epoch's update slots shrink in
    rows (6, then 4, then 2), in length and in the widest model they hold,
    before the pooled validation and the next epoch's first slot grow them
    again. Nothing a larger slot left in the shared workspace may reach a
    smaller one."""
    rng = np.random.default_rng(9)
    datasets = [[(rng.normal(size=(n, width)), rng.normal(size=n))
                 for n in rng.integers(low, low + 6, size=count)]
                for width, count, low in ((13, 4, 30), (4, 6, 14), (0, 9, 2))]
    cfg = TrainConfig(learning_rate=3e-2, epochs=3, early_stop_patience=3)
    return datasets, cfg, [10, 11, 12]


def uneven_chunks():
    """The fewest models whose rows take blocks that the reverse's W and U
    chunks split unevenly, on pieces that run through a whole block and on
    into the next; rows of different lengths also cross block and chunk
    edges at different steps."""
    models = next(k for k in range(1, 50)
                  if model_mod._block_steps(2 * k)
                  % model_mod._block_steps(2 * k, model_mod.CHUNK_ROW_STEPS))
    block = model_mod._block_steps(2 * models)
    rng = np.random.default_rng(13)
    datasets = [[(rng.normal(size=(n, width)), rng.normal(size=n))
                 for n in rng.integers(block + 1, block + 12, size=2)]
                for width in (WIDTHS * models)[-models:]]
    cfg = TrainConfig(learning_rate=3e-2, epochs=2, early_stop_patience=2)
    return datasets, cfg, list(range(20, 20 + models))


def one_model_chunks():
    """One model on pieces of twice its W and U chunk plus one step: each
    reverse block sums those terms in three chunks, the last of one step."""
    chunk = model_mod._block_steps(2, model_mod.CHUNK_ROW_STEPS)
    assert 2 * chunk + 1 <= model_mod._block_steps(2)
    rng = np.random.default_rng(14)
    datasets = [[(rng.normal(size=(2 * chunk + 1, 6)), rng.normal(size=2 * chunk + 1))
                 for _ in range(3)]]
    cfg = TrainConfig(learning_rate=3e-2, epochs=2, early_stop_patience=2)
    return datasets, cfg, [15]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jobs())
@example(narrow_beside_wide())
@example(across_time_blocks())
@example(two_piece_validation())
@example(shrinking_slots())
@example(uneven_chunks())
@example(one_model_chunks())
def test_train_many_matches_one_by_one(case):
    datasets, cfg, seeds = case
    got, got_error = outcome(train_many, datasets, cfg, seeds)
    expected, expected_error = None, None
    for m, (data, seed) in enumerate(zip(datasets, seeds)):
        result, error = outcome(o_train, data, replace(cfg, seed=seed))
        if error is not None:
            expected_error = error
            break
        if got is not None:
            params, log = got[m]
            assert np.array_equal(params.flatten(), result[0].flatten()), f"model {m}"
            assert log == result[1], f"model {m}"
    assert got_error == expected_error


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_run_cv_matches_fold_by_fold(case):
    corpus, experiments, cfg, seed, k = case
    got, got_error = outcome(run_cv, corpus, experiments, cfg, seed, k)
    expected, expected_error = outcome(o_run_cv, corpus, experiments, cfg, seed, k)
    assert got_error == expected_error
    if got is not None:  # a NaN test piece scores NaN on both sides
        assert len(got) == len(expected)
        for result, per_piece in zip(got, expected):
            assert list(result.per_piece_r2) == list(per_piece)
            assert np.array_equal(list(result.per_piece_r2.values()),
                                  list(per_piece.values()), equal_nan=True)


ONE_MODEL_BLOCK = model_mod._block_steps(2)  # reverse steps per block of one model's rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WIDTHS), st.lists(st.integers(0, 40), min_size=1, max_size=3),
       st.integers(0, 6), st.integers(0, 2 ** 16))
@example(13, [ONE_MODEL_BLOCK - 1, ONE_MODEL_BLOCK, ONE_MODEL_BLOCK + 1], 3, 11)
@example(4, [2 * ONE_MODEL_BLOCK + 1], 1, 12)
def test_one_model_paths_match(width, lengths, radius, seed):
    rng = np.random.default_rng(seed)
    params = init_model(width, seed=seed % 100)
    params = ModelParams(width, params.flat + rng.normal(scale=0.3, size=params.flat.size))
    batch = [(rng.normal(size=(n, width)), rng.normal(size=n)) for n in lengths]
    for xs, ys in batch:
        assert np.array_equal(forward(params, xs), o_forward(params, xs))
        if len(xs):
            (loss,), (grad,) = loss_and_gradient(params.flatten()[None], width, [(xs, ys)])
            o_loss, o_grad = o_loss_and_gradient(params, xs, ys)
            assert loss == o_loss and np.array_equal(grad, o_grad)
        band = input_jacobian_band(params, xs, radius)
        assert band.shape == (len(xs), 2 * radius + 1, width)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(WIDTHS), st.integers(0, 40)),
                min_size=1, max_size=6), st.integers(0, 2 ** 16))
@example([(4, 5), (0, 9), (13, 0), (3, 35), (0, 0), (13, 12)], 7)
def test_forward_many_matches_forward(pairs, seed):
    rng = np.random.default_rng(seed)
    models, seqs = [], []
    for r, (width, length) in enumerate(pairs):
        params = init_model(width, seed=r)
        models.append(ModelParams(width,
                                  params.flat + rng.normal(scale=0.3, size=params.flat.size)))
        seqs.append(rng.normal(size=(length, width)))
    got = forward_many(models, seqs)
    assert len(got) == len(pairs)
    for params, xs, pred in zip(models, seqs, got):
        assert pred.tobytes() == forward(params, xs).tobytes()
