"""Cross-validation, scoring, significance tests and the differential
sensitivity analysis.

A corpus here is an ordered list of pieces, each carrying aligned feature
and target matrices (one row per surviving onset frame). Evaluation runs
k-fold cross-validation over pieces: inputs are standardized with
training-fold statistics, one model is trained per fold and target, and
accuracy is the coefficient of determination per test piece.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from . import mi as mi_mod
from .errors import SettingError, TrainingDiverged, ValidationError
from .features import feature_names
from .model import (ModelParams, TrainConfig, forward_many, input_jacobian_band, train,
                    train_many)
from .targets import TARGET_NAMES

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Piece:
    id: str
    features: np.ndarray  # (T, F)
    feature_names: tuple[str, ...]
    targets: np.ndarray  # (T, 4), columns in TARGET_NAMES order


class _FoldModel(NamedTuple):
    """One cross-validation model: its experiment, held-out pieces and
    training data."""
    experiment: int
    test_ids: tuple[str, ...]
    data: _StandardizedPieces


@dataclass(frozen=True)
class EvalResult:
    per_piece_r2: dict[str, float]
    mean_r2: float


def make_folds(piece_ids, k: int = 5, seed: int = 0) -> tuple[tuple[str, ...], ...]:
    """The k folds of piece ids: seeded shuffle, then contiguous split;
    earlier folds absorb the remainder so sizes differ by at most one."""
    ids = list(piece_ids)
    if k < 2:
        raise SettingError("k", f"must be at least 2 folds, got {k}")
    if len(ids) < k:
        raise SettingError("k", f"must not exceed the corpus's {len(ids)} pieces, got {k}")
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    return tuple(tuple(part) for part in np.array_split(np.array(order, dtype=object), k))


def r2(predicted, actual) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot."""
    predicted = np.asarray(predicted, dtype=float).ravel()
    actual = np.asarray(actual, dtype=float).ravel()
    if predicted.size != actual.size:
        raise ValueError(f"length mismatch: {predicted.size} vs {actual.size}")
    if actual.size < 2:
        raise ValueError("r2 needs at least 2 values")
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("r2 is undefined for a constant target")
    ss_res = float(np.sum((actual - predicted) ** 2))
    return 1.0 - ss_res / ss_tot


def paired_t_test(a, b) -> tuple[float, float]:
    """Two-tailed paired t-test of ``a`` against ``b``: (p, Cohen's d), p
    via the regularized incomplete beta, d the mean paired difference over
    its sample deviation."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    n = d.size
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise ValueError("identical samples: paired differences have zero variance")
    mean = float(np.mean(d))
    dof = n - 1
    t = mean / (sd / np.sqrt(n))
    p = float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
    return p, mean / sd


# ---------------------------------------------------------------------------
# cross-validation


def standardize_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and deviation; near-constant features keep scale 1."""
    mean = rows.mean(axis=0) if rows.size else np.zeros(rows.shape[1])
    std = rows.std(axis=0) if rows.size else np.ones(rows.shape[1])
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def columns(piece: Piece, names) -> np.ndarray:
    """The piece's feature matrix restricted to ``names``, in that order."""
    missing = [n for n in names if n not in piece.feature_names]
    if missing:
        raise ValidationError(
            f"piece {piece.id} has no feature column(s) {','.join(missing)}")
    return piece.features[:, [piece.feature_names.index(n) for n in names]]


class _StandardizedPieces:
    """A training dataset: each piece's ``names`` columns standardized with
    the statistics of all the pieces, paired with its ``target`` column.
    Pieces are computed when read, so the many fold models of a lockstep
    run do not each hold a copy."""

    def __init__(self, pieces: list[Piece], names, target: str):
        if not pieces:
            raise ValueError("empty training dataset")
        self.pieces = pieces
        self.names = names
        self.mean, self.std = standardize_stats(np.vstack([columns(p, names)
                                                           for p in pieces]))
        self.t_idx = TARGET_NAMES.index(target)

    def __len__(self) -> int:
        return len(self.pieces)

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        p = self.pieces[i]
        return (columns(p, self.names) - self.mean) / self.std, p.targets[:, self.t_idx]


def fit(pieces: list[Piece], names, target: str, cfg: TrainConfig):
    """Train one model on ``pieces``: select the ``names`` columns,
    standardize them with these pieces' statistics and train on
    ``target``. Returns (params, log, mean, std); a divergence is
    re-raised naming the piece it happened on."""
    dataset = _StandardizedPieces(pieces, names, target)
    try:
        params, train_log = train(dataset, cfg)
    except TrainingDiverged as exc:
        raise exc.located(f"piece {pieces[exc.index].id}") from None
    return params, train_log, dataset.mean, dataset.std


def mi_subset(corpus: list[Piece], fraction: float, k: int,
              seed: int) -> tuple[list[Piece], mi_mod.MiTable]:
    """MI between every feature and target column, pooled over a seeded
    random subset of the pieces; returns the subset and the table. All
    pieces must share one feature layout."""
    names = corpus[0].feature_names
    for p in corpus:
        if p.feature_names != names:
            raise ValidationError(
                f"piece {p.id!r} has feature columns {p.feature_names}, "
                f"expected {names}; re-extract the corpus with one --groups setting")
    subset_ids = set(mi_mod.subsample_pieces([p.id for p in corpus], fraction, seed))
    subset = [p for p in corpus if p.id in subset_ids]
    feats = np.vstack([p.features for p in subset])
    targs = np.vstack([p.targets for p in subset])
    table = mi_mod.mi_table(feats, names, targs, TARGET_NAMES, k=k, seed=seed)
    return subset, table


def fs_select(corpus: list[Piece], target: str, seed: int,
              fraction: float = 0.2, k: int = 3, count: int = 10) -> tuple[str, ...]:
    """Univariate selection: top features by MI with the target, estimated
    on a seeded random subset of pieces."""
    _, table = mi_subset(corpus, fraction, k, seed)
    return tuple(mi_mod.select_features(table, target, min(count, len(table.rows))))


def run_cv(corpus: list[Piece], experiments, cfg: TrainConfig, seed: int, k: int = 5,
           fs_fraction: float = 0.2, fs_k: int = 3,
           fs_count: int = 10) -> list[EvalResult]:
    """k-fold cross-validation for each (target, feature set) experiment.
    A feature set is a group label such as ``PM`` (``""`` for none) or ``FS``.

    All experiments share one seeded fold plan; fold i trains with seed
    ``cfg.seed + i``. Every (experiment, fold) model trains in one
    ``train_many`` call, so each is bit-identical to training it alone;
    of several diverging models, the first in (experiment, fold) order is
    the one reported. Each experiment's test pieces are predicted by
    their fold models in one ``forward_many`` call.
    """
    fold_ids = make_folds([p.id for p in corpus], k=k, seed=seed)
    by_id = {p.id: p for p in corpus}
    folds: list[_FoldModel] = []
    seeds = []
    for e, (target, feature_set) in enumerate(experiments):
        if target not in TARGET_NAMES:
            raise ValueError(f"unknown target {target!r}")
        if feature_set == "FS":
            names = fs_select(corpus, target, seed, fs_fraction, fs_k, fs_count)
        else:
            names = feature_names(set(feature_set))
        for fold_i, test_ids in enumerate(fold_ids):
            test_set = set(test_ids)
            data = _StandardizedPieces([p for p in corpus if p.id not in test_set],
                                      names, target)
            folds.append(_FoldModel(e, test_ids, data))
            seeds.append(cfg.seed + fold_i)
    try:
        fitted = train_many([fold.data for fold in folds], cfg, seeds)
    except TrainingDiverged as exc:
        raise exc.located(f"piece {folds[exc.model].data.pieces[exc.index].id}") from None

    results = []
    for e, (target, _) in enumerate(experiments):
        t_idx = TARGET_NAMES.index(target)
        tests = [(params, fold.data, by_id[pid])
                 for fold, (params, _) in zip(folds, fitted) if fold.experiment == e
                 for pid in fold.test_ids]
        preds = forward_many([params for params, _, _ in tests],
                             [(columns(piece, data.names) - data.mean) / data.std
                              for _, data, piece in tests])
        per_piece: dict[str, float] = {}
        for (_, _, piece), pred in zip(tests, preds):
            try:
                per_piece[piece.id] = r2(pred, piece.targets[:, t_idx])
            except ValueError as exc:
                log.warning("piece %r excluded from R2: %s", piece.id, exc)
        if not per_piece:
            raise ValueError("no piece produced a valid R2 score")
        results.append(EvalResult(per_piece, float(np.mean(list(per_piece.values())))))
    return results


# ---------------------------------------------------------------------------
# differential sensitivity


@dataclass(frozen=True)
class SensitivityResult:
    matrix: np.ndarray  # (n_features, 2*radius + 1)
    offsets: tuple[int, ...]
    used_positions: int
    skipped_positions: int


def sensitivity(params: ModelParams, sequences, radius: int = 5) -> SensitivityResult:
    """Average local linear response of the model output.

    Cell (f, d) is the mean over pieces and interior times tau of the
    exact derivative of the prediction at tau with respect to feature f
    at time tau + d, read from ``input_jacobian_band`` (one scan per
    direction plus radius + 1 batched reverse steps: O(T * radius) per
    piece). Positive values mean a larger feature value pushes the
    predicted parameter up (slower tempo / louder). Times closer than
    ``radius`` to either end are skipped and counted.
    """
    if radius < 0:
        raise SettingError("radius", f"must be >= 0, got {radius}")
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
        J = input_jacobian_band(params, xs, radius)
        acc += J[interior].sum(axis=0).T
    if used:
        acc /= used
    return SensitivityResult(acc, offsets, used, skipped)
