"""The exact Jacobian-band sensitivity against the finite differences it
replaced.

The oracle below is ``evaluate.sensitivity`` as it stood before the band:
for every feature it perturbs each time step by +-1e-4 in a batch of 2T
copies of the piece and runs the batched forward pass over the whole
sequence. Its truncation error is O(step^2), far below 1e-8 for these
models, so the exact derivative must agree to 1e-8 and count the same
positions.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit as sigmoid

from tonaltension.evaluate import sensitivity
from tonaltension.model import (HIDDEN, ModelParams, forward, init_model,
                                input_jacobian_band)


# ---------------------------------------------------------------------------
# reference oracle: central differences over batched forward passes


def direction(params, prefix):
    """A copy of one direction's gate tensors, as attributes."""
    names = ("W", "U", "alpha", "beta1", "beta2", "bias")
    return SimpleNamespace(**{n: params.tensors()[f"{prefix}.{n}"].copy() for n in names})


def oracle_forward_batch(params, xs):
    B, T, _ = xs.shape
    H = HIDDEN
    v = params.tensors()["out.v"].copy()
    out = np.full((B, T), float(params.tensors()["out.bias"][0]))
    for d, sl, flip in ((direction(params, "fwd"), slice(0, H), False),
                        (direction(params, "bwd"), slice(H, 2 * H), True)):
        seq = xs[:, ::-1, :] if flip else xs
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        hs = np.empty((B, T, H))
        for t in range(T):
            p = seq[:, t, :] @ d.W.T
            q = h @ d.U.T
            a = d.alpha * p * q + d.beta1 * q + d.beta2 * p + d.bias
            ifo = sigmoid(a[:, :3 * H])
            g = np.tanh(a[:, 3 * H:])
            c = ifo[:, H:2 * H] * c + ifo[:, :H] * g
            h = ifo[:, 2 * H:] * np.tanh(c)
            hs[:, t, :] = h
        if flip:
            hs = hs[:, ::-1, :]
        out += hs @ v[sl]
    return out


def oracle_sensitivity(params, sequences, radius, step=1e-4):
    n_features = params.input_dim
    offsets = tuple(range(-radius, radius + 1))
    acc = np.zeros((n_features, len(offsets)))
    used = 0
    skipped = 0
    for xs in sequences:
        xs = np.asarray(xs, dtype=float)
        T = xs.shape[0]
        interior = np.arange(radius, T - radius)
        if interior.size == 0:
            skipped += T
            continue
        used += interior.size
        skipped += T - interior.size
        for f in range(n_features):
            batch = np.repeat(xs[None, :, :], 2 * T, axis=0)
            rows = np.arange(T)
            batch[2 * rows, rows, f] += step
            batch[2 * rows + 1, rows, f] -= step
            ys = oracle_forward_batch(params, batch)
            dy = (ys[0::2] - ys[1::2]) / (2.0 * step)  # [perturbed s, output tau]
            for col, d in enumerate(offsets):
                acc[f, col] += dy[interior + d, interior].sum()
    if used:
        acc /= used
    return acc, offsets, used, skipped


def perturbed(input_dim, seed):
    """init_model plus N(0, 0.3) on every parameter."""
    rng = np.random.default_rng(seed)
    params = init_model(input_dim, seed=seed)
    flat = params.flat + rng.normal(scale=0.3, size=params.flat.size)
    return ModelParams(input_dim, flat)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(0, 5), radius=st.integers(0, 6), seed=st.integers(0, 2**31),
       lengths=st.lists(st.integers(0, 30), min_size=1, max_size=3))
def test_band_sensitivity_matches_finite_differences(dim, radius, seed, lengths):
    params = perturbed(dim, seed)
    rng = np.random.default_rng(seed + 1)
    sequences = [rng.normal(size=(T, dim)) for T in lengths]
    res = sensitivity(params, sequences, radius=radius)
    acc, offsets, used, skipped = oracle_sensitivity(params, sequences, radius)
    assert res.offsets == offsets
    assert res.used_positions == used
    assert res.skipped_positions == skipped
    assert res.matrix.shape == acc.shape
    assert np.max(np.abs(res.matrix - acc), initial=0.0) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(0, 5), T=st.integers(0, 30), radius=st.integers(0, 6),
       seed=st.integers(0, 2**31))
@example(dim=4, T=5, radius=0, seed=2294)  # plain central differences miss by 1.24e-8
def test_band_entries_match_finite_differences(dim, T, radius, seed):
    """Every band cell, interior or not, against a perturbed forward pass.

    Central differences at step h carry an O(h^2) truncation error that
    reaches 1e-8 on some models at h = 1e-4; Richardson extrapolation of
    steps h and h/2 cancels that term and leaves O(h^4)."""
    params = perturbed(dim, seed)
    xs = np.random.default_rng(seed + 1).normal(size=(T, dim))
    J = input_jacobian_band(params, xs, radius)
    assert J.shape == (T, 2 * radius + 1, dim)

    def central(s, f, step):
        up, down = xs.copy(), xs.copy()
        up[s, f] += step
        down[s, f] -= step
        return (forward(params, up) - forward(params, down)) / (2 * step)

    step = 1e-4
    for s in range(T):
        for f in range(dim):
            dy = (4 * central(s, f, step / 2) - central(s, f, step)) / 3
            for tau in range(max(0, s - radius), min(T, s + radius + 1)):
                assert abs(J[tau, s - tau + radius, f] - dy[tau]) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 5), T=st.integers(0, 30), radius=st.integers(0, 6),
       seed=st.integers(0, 2**31))
def test_off_sequence_entries_are_exactly_zero(dim, T, radius, seed):
    params = perturbed(dim, seed)
    xs = np.random.default_rng(seed + 1).normal(size=(T, dim))
    J = input_jacobian_band(params, xs, radius)
    tau = np.arange(T)[:, None]
    source = tau + np.arange(2 * radius + 1)[None, :] - radius
    off = (source < 0) | (source >= T)
    assert np.all(J[off] == 0.0)


# ---------------------------------------------------------------------------
# exact zeros and fixed cases


def test_zero_output_weights_give_exactly_zero_band():
    params = perturbed(4, seed=5)
    params.tensors()["out.v"][:] = 0.0
    xs = np.random.default_rng(0).normal(size=(25, 4))
    assert np.all(input_jacobian_band(params, xs, 6) == 0.0)
    res = sensitivity(params, [xs, xs[:7]], radius=3)
    assert np.all(res.matrix == 0.0)
    assert not np.signbit(res.matrix).any()


def test_long_piece_matches_oracle():
    params = perturbed(13, seed=11)
    sequences = [np.random.default_rng(k).normal(size=(120, 13)) for k in range(2)]
    res = sensitivity(params, sequences, radius=5)
    acc, _, used, skipped = oracle_sensitivity(params, sequences, 5)
    assert (res.used_positions, res.skipped_positions) == (used, skipped)
    assert np.max(np.abs(res.matrix - acc)) <= 1e-8
