"""Cross-validation, scoring, significance tests and the differential
sensitivity analysis.

A corpus here is an ordered list of pieces, each carrying aligned feature
and target matrices (one row per surviving onset frame). Evaluation runs
k-fold cross-validation over pieces: inputs are standardized with
training-fold statistics, one model is trained per fold and target, and
accuracy is the coefficient of determination per test piece.

A fold's training pieces are held once, standardized, for all of its
models (``_Fold``), and a model is a fold, its column indices and its
target (``_FoldModel``): training copies a piece's own columns only where
it reads the piece, and drops the copy after that read. ``fit`` is the same code
with one fold that holds every piece.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import mi as mi_mod
from .errors import SettingError, TrainingDiverged
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
    from scipy.special import betainc  # here: synth and extract load no scipy

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
        raise ValueError(
            f"piece {piece.id} has no feature column(s) {','.join(missing)}")
    return piece.features[:, [piece.feature_names.index(n) for n in names]]


def standardized(piece: Piece, names, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """The piece's ``names`` columns, standardized with ``mean`` and ``std``."""
    return (columns(piece, names) - mean) / std


class _Fold(NamedTuple):
    """Training pieces held once for every model that trains on them:
    some feature columns of each piece, looked up by name, stacked in one
    column-major matrix and standardized with its per-column ``mean`` and
    ``std``; piece i is rows bounds[i]:bounds[i + 1].

    Column-major keeps each model's numbers those of standardizing its
    own columns alone: numpy sums each column as one contiguous run,
    pairwise, whatever columns sit beside it, so a column's mean and std
    are bit-equal to those of any column subset that holds it (a
    row-major matrix sums row by row and gives other bits)."""
    test_ids: tuple[str, ...]
    pieces: list[Piece]
    inputs: np.ndarray  # (frames, columns), Fortran order
    bounds: list[int]
    mean: np.ndarray
    std: np.ndarray


def _fold(pieces: list[Piece], names, test_ids=()) -> _Fold:
    """The fold of ``pieces`` over the ``names`` columns."""
    bounds = np.cumsum([0] + [len(p.features) for p in pieces]).tolist()
    inputs = np.empty((bounds[-1], len(names)), order="F")
    for p, start, stop in zip(pieces, bounds, bounds[1:]):
        inputs[start:stop] = columns(p, names)
    mean, std = standardize_stats(inputs)
    inputs -= mean
    inputs /= std
    return _Fold(tuple(test_ids), pieces, inputs, bounds, mean, std)


@dataclass(frozen=True)
class _FoldModel:
    """One model: its experiment, its fold, the fold's columns it reads
    (``names``, at ``idx``) and its target column. As a ``train_many``
    dataset it is the fold's pieces, piece i read as the pair of a copy of
    its standardized ``idx`` columns (column-major, as the fold) and its
    target column."""
    experiment: int
    fold: _Fold
    names: tuple[str, ...]
    idx: list[int]
    target: int

    def __len__(self) -> int:
        return len(self.fold.pieces)

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        fold = self.fold
        return (fold.inputs[fold.bounds[i]:fold.bounds[i + 1]][:, self.idx],
                fold.pieces[i].targets[:, self.target])


def fit(pieces: list[Piece], names, target: str, cfg: TrainConfig):
    """Train one model on ``pieces``: select the ``names`` columns,
    standardize them with these pieces' statistics and train on
    ``target``. Returns (params, log, mean, std); a divergence is
    re-raised naming the piece it happened on."""
    fold = _fold(pieces, names)
    model = _FoldModel(0, fold, tuple(names), list(range(len(names))),
                       TARGET_NAMES.index(target))
    try:
        params, train_log = train(model, cfg)
    except TrainingDiverged as exc:
        raise exc.located(f"piece {pieces[exc.index].id}") from None
    return params, train_log, fold.mean, fold.std


def mi_subset(corpus: list[Piece], fraction: float, k: int, seed: int,
              targets=TARGET_NAMES) -> tuple[list[Piece], mi_mod.MiTable]:
    """MI between every feature column and each of ``targets``, pooled over
    a seeded random subset of the pieces; returns the subset and the table.
    All pieces must share one feature layout. Each pair is estimated on its
    own, so a target's column does not depend on the other targets."""
    names = corpus[0].feature_names
    for p in corpus:
        if p.feature_names != names:
            raise ValueError(
                f"piece {p.id!r} has feature columns {p.feature_names}, "
                f"expected {names}; re-extract the corpus with one --groups setting")
    subset_ids = set(mi_mod.subsample_pieces([p.id for p in corpus], fraction, seed))
    subset = [p for p in corpus if p.id in subset_ids]
    feats = np.vstack([p.features for p in subset])
    cols = [TARGET_NAMES.index(t) for t in targets]
    targs = np.vstack([p.targets[:, cols] for p in subset])
    table = mi_mod.mi_table(feats, names, targs, targets, k=k, seed=seed)
    return subset, table


def fs_select(corpus: list[Piece], targets, seed: int, fraction: float = 0.2,
              k: int = 3, count: int = 10) -> dict[str, tuple[str, ...]]:
    """Univariate selection: for each of ``targets``, the top features by
    MI with it, all read from one MI table of just those targets, estimated
    on a seeded random subset of pieces."""
    _, table = mi_subset(corpus, fraction, k, seed, targets)
    n = min(count, len(table.rows))
    return {t: tuple(mi_mod.select_features(table, t, n)) for t in targets}


def run_cv(corpus: list[Piece], experiments, cfg: TrainConfig, seed: int, k: int = 5,
           fs_fraction: float = 0.2, fs_k: int = 3,
           fs_count: int = 10) -> list[EvalResult]:
    """k-fold cross-validation for each (target, feature set) experiment.
    A feature set is a group label such as ``PM`` (``""`` for none) or ``FS``.

    All experiments share one seeded fold plan; fold i trains with seed
    ``cfg.seed + i``, and its training pieces are held once, over every
    column an experiment reads. Every (experiment, fold) model trains in one
    ``train_many`` call, so each is bit-identical to training it alone;
    of several diverging models, the first in (experiment, fold) order is
    the one reported. Each experiment's test pieces are predicted by
    their fold models in one ``forward_many`` call.
    """
    fs_targets = [target for target, feature_set in experiments if feature_set == "FS"]
    selected = fs_select(corpus, fs_targets, seed, fs_fraction, fs_k,
                         fs_count) if fs_targets else {}
    fold_ids = make_folds([p.id for p in corpus], k=k, seed=seed)
    by_id = {p.id: p for p in corpus}
    plans = [(selected[target] if feature_set == "FS" else feature_names(set(feature_set)),
              TARGET_NAMES.index(target)) for target, feature_set in experiments]
    names = tuple(dict.fromkeys(n for cols, _ in plans for n in cols))
    folds = [_fold([p for p in corpus if p.id not in set(test_ids)], names, test_ids)
             for test_ids in fold_ids]
    models = [_FoldModel(e, fold, cols, [names.index(n) for n in cols], t_idx)
              for e, (cols, t_idx) in enumerate(plans) for fold in folds]
    seeds = [cfg.seed + fold_i for _ in plans for fold_i in range(len(folds))]
    try:
        fitted = train_many(models, cfg, seeds)
    except TrainingDiverged as exc:
        raise exc.located(f"piece {models[exc.model].fold.pieces[exc.index].id}") from None

    results = []
    for e, (_, t_idx) in enumerate(plans):
        tests = [(params, model, by_id[pid])
                 for model, (params, _) in zip(models, fitted) if model.experiment == e
                 for pid in model.fold.test_ids]
        preds = forward_many([params for params, _, _ in tests],
                             [standardized(piece, model.names, model.fold.mean[model.idx],
                                           model.fold.std[model.idx])
                              for _, model, piece in tests])
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
