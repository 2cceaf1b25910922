"""Mutual information estimation and univariate feature selection.

Continuous pairs use the Kraskov k-nearest-neighbor estimator with the
max norm:

    MI = psi(k) + psi(N) - < psi(n_x + 1) + psi(n_y + 1) >

where n_x, n_y count neighbors strictly inside the k-th joint-space
neighbor distance. Binary-valued variables switch to the
discrete/continuous variant (condition on the discrete value, take
k-neighbor distances within the class, count neighbors over the pooled
sample). Ties are broken by a deterministic seeded jitter whose stream is
derived from the variable's own content, which keeps the estimate exactly
symmetric in its arguments. Estimates are clipped at zero.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import SettingError

JITTER_AMPLITUDE = 1e-10  # times the variable's standard deviation
_DISCRETE_MAX_VALUES = 2  # binary features (b_d, b_s, b_w)


def _content_rng(values: np.ndarray, seed: int) -> np.random.Generator:
    digest = hashlib.sha256(np.ascontiguousarray(values).tobytes()).digest()
    content = int.from_bytes(digest[:8], "little")
    return np.random.default_rng((seed, content))


def _jittered(values: np.ndarray, seed: int) -> np.ndarray:
    std = float(np.std(values))
    if std == 0.0:
        return values
    rng = _content_rng(values, seed)
    return values + JITTER_AMPLITUDE * std * rng.uniform(-1.0, 1.0, size=values.shape)


def _strict_count(tree, points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Points of the cKDTree ``tree`` strictly inside each radius, the
    query point excluded."""
    counts = tree.query_ball_point(points, radii * (1.0 - 1e-12),
                                   p=np.inf, return_length=True)
    return np.asarray(counts, dtype=float) - 1.0


def _mi_continuous(x: np.ndarray, y: np.ndarray, k: int) -> float:
    from scipy.spatial import cKDTree  # here: synth and extract load no scipy
    from scipy.special import digamma

    n = x.size
    xy = np.column_stack([x, y])
    joint = cKDTree(xy)
    eps = joint.query(xy, k=[k + 1], p=np.inf)[0][:, 0]
    nx = _strict_count(cKDTree(x[:, None]), x[:, None], eps)
    ny = _strict_count(cKDTree(y[:, None]), y[:, None], eps)
    return float(digamma(k) + digamma(n)
                 - np.mean(digamma(nx + 1.0) + digamma(ny + 1.0)))


def _mi_discrete_continuous(d: np.ndarray, c: np.ndarray, k: int) -> float:
    """Conditioned variant: k-neighbor radii within each discrete class,
    neighbor counts over the full continuous sample."""
    from scipy.spatial import cKDTree
    from scipy.special import digamma

    n = d.size
    c2 = c[:, None]
    full_tree = cKDTree(c2)
    radii = np.empty(n)
    k_used = np.empty(n)
    n_class = np.empty(n)
    valid = np.ones(n, dtype=bool)
    for value in np.unique(d):
        mask = d == value
        count = int(mask.sum())
        n_class[mask] = count
        if count < 2:
            valid[mask] = False
            continue
        kc = min(k, count - 1)
        k_used[mask] = kc
        class_tree = cKDTree(c2[mask])
        radii[mask] = class_tree.query(c2[mask], k=[kc + 1], p=np.inf)[0][:, 0]
    if not valid.any():
        return 0.0
    m = _strict_count(full_tree, c2[valid], radii[valid])
    return float(digamma(n) - np.mean(digamma(n_class[valid]))
                 + np.mean(digamma(k_used[valid])) - np.mean(digamma(m + 1.0)))


def _mi_discrete_discrete(x: np.ndarray, y: np.ndarray) -> float:
    n = x.size
    mi = 0.0
    for vx in np.unique(x):
        for vy in np.unique(y):
            pxy = np.mean((x == vx) & (y == vy))
            if pxy > 0:
                px = np.mean(x == vx)
                py = np.mean(y == vy)
                mi += pxy * np.log(pxy / (px * py))
    return float(mi)


def estimate_mi(x, y, k: int = 3, seed: int = 0) -> float:
    """Mutual information between two sample vectors, in nats, >= 0."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size < 2 * k + 2:
        raise SettingError("mi_k", f"must leave 2k+2 samples: k={k} needs {2 * k + 2}, "
                                   f"the MI subset has {x.size}")
    ux, uy = np.unique(x).size, np.unique(y).size
    if ux <= 1 or uy <= 1:
        return 0.0  # a constant carries no information
    dx = ux <= _DISCRETE_MAX_VALUES
    dy = uy <= _DISCRETE_MAX_VALUES
    if dx and dy:
        mi = _mi_discrete_discrete(x, y)
    elif dx:
        mi = _mi_discrete_continuous(x, _jittered(y, seed), k)
    elif dy:
        mi = _mi_discrete_continuous(y, _jittered(x, seed), k)
    else:
        mi = _mi_continuous(_jittered(x, seed), _jittered(y, seed), k)
    return max(mi, 0.0)


@dataclass(frozen=True)
class MiTable:
    rows: tuple[str, ...]  # feature names, canonical order
    cols: tuple[str, ...]  # target names
    values: np.ndarray  # (len(rows), len(cols)), nats, clipped at 0

    def normalized(self) -> np.ndarray:
        """Each target column divided by its own maximum (left as zero for
        all-zero columns)."""
        out = np.zeros_like(self.values)
        for j in range(self.values.shape[1]):
            top = self.values[:, j].max()
            if top > 0:
                out[:, j] = self.values[:, j] / top
        return out


def subsample_pieces(piece_ids, fraction: float, seed: int) -> list:
    """Seeded random subset (at least one piece) for the selection stage."""
    ids = list(piece_ids)
    if not 0 < fraction <= 1:
        raise SettingError("fraction", f"must be in (0, 1], got {fraction!r}")
    if seed < 0:
        raise SettingError("fs_seed", f"must be >= 0, got {seed}")
    count = max(1, round(fraction * len(ids)))
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(ids), size=count, replace=False)
    return [ids[i] for i in sorted(picked)]


def mi_table(features: np.ndarray, feature_names, targets: np.ndarray,
             target_names, k: int = 3, seed: int = 0) -> MiTable:
    """Pairwise MI between pooled feature and target columns."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if k < 1:
        raise SettingError("mi_k", f"must be at least 1 neighbor, got {k}")
    values = np.zeros((features.shape[1], targets.shape[1]))
    for i in range(features.shape[1]):
        for j in range(targets.shape[1]):
            values[i, j] = estimate_mi(features[:, i], targets[:, j], k=k, seed=seed)
    return MiTable(tuple(feature_names), tuple(target_names), values)


def select_features(table: MiTable, target: str, n: int) -> list[str]:
    """Top-n features by MI for one target, descending; ties keep the
    earlier canonical name. The result is a prefix of the full ranking."""
    if n < 1:
        raise SettingError("fs_count", f"must select at least 1 feature, got {n}")
    col = table.values[:, table.cols.index(target)]
    order = sorted(range(len(table.rows)), key=lambda i: (-col[i], i))
    return [table.rows[i] for i in order[:n]]
