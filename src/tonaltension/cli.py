"""Command-line front end.

Subcommands compose the library into a file-based pipeline:

    synth        generate a synthetic corpus of score + match files
    extract      scores (+ matches) -> a feature (+ target) CSV per score
    mi           corpus of feature/target CSVs -> mutual-information CSVs
    train        corpus -> one trained model file + training log
    eval         corpus -> cross-validation results CSV
    sensitivity  trained model + corpus -> differential sensitivity CSV

A command returns its output files, and ``main`` hands them with the
parsed flags to ``emit_outputs``. That hashes the files the flags name,
writes one JSON run manifest and heads each output with the manifest
digest and the relevant configuration in ``#`` header lines. Outputs
contain no timestamps or absolute paths, so identical inputs and flags
reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, evaluate, model as model_mod, synth
from .errors import SettingError, TrainingDiverged
from .features import assemble_features, feature_names
from .spiral import SpiralParams, read_calibration
from .symbolic import (group_onsets, parse_performance, parse_score,
                       serialize_performance, serialize_score)
from .targets import TARGET_NAMES, targets as extract_targets
from .tension import WindowConfig, tension_track

log = logging.getLogger(__name__)

# allocations between the collector's young-generation passes while a
# command runs (CPython 3.11 defaults to 700); see main
GC_YOUNG_THRESHOLD = 100_000


# ---------------------------------------------------------------------------
# output plumbing: manifests and headered CSVs


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(value) -> str:
    if isinstance(value, float):  # incl. numpy scalars, which subclass float
        return repr(float(value))
    return str(value)


@dataclass
class OutputFile:
    path: str
    header_items: list  # (key, value) pairs
    body: str  # everything after the # header block


# the flags naming files or directories a command reads: they enter its
# manifest by content, not by value
_INPUT_FLAGS = ("score", "match", "spiral_config", "model", "corpus")


def emit_outputs(args, files: list[OutputFile]) -> None:
    """Write a command's outputs, each headed by the manifest digest, and
    its JSON run manifest to ``--out-dir``.

    The digest covers the command, the tool version, every parsed flag
    except ``--out-dir`` and the input flags, the content hash of each file
    those name (each features/targets pair ``load_corpus`` loads), and the
    output basenames -- never absolute paths, so reruns in other
    directories stay byte-identical. Values derived from these (a piece
    name, an MI subset, a generator constant) stay out of it.
    """
    paths = []
    for flag in _INPUT_FLAGS:
        path = getattr(args, flag, None)
        if flag == "corpus" and path:
            paths += [p for _, fpath, tpath in _corpus_pairs(path)[0] for p in (fpath, tpath)]
        elif isinstance(path, list):  # extract's scores and match files
            paths += path
        elif path:
            paths.append(path)
    inputs = {os.path.basename(p): _sha256_file(p) for p in paths}
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "out_dir") + _INPUT_FLAGS}
    os.makedirs(args.out_dir, exist_ok=True)
    names = [os.path.basename(f.path) for f in files]
    core = {
        "command": args.command,
        "version": __version__,
        "config": {k: _fmt(v) for k, v in sorted(config.items())},
        "inputs": dict(sorted(inputs.items())),
        "outputs": sorted(names),
    }
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    for f in files:
        lines = [f"# manifest={digest}", f"# tool=tonaltension {__version__}"]
        lines += [f"# {k}={_fmt(v)}" for k, v in f.header_items]
        _atomic_write(f.path, "\n".join(lines) + "\n" + f.body)
    payload = dict(core, outputs=names,
                   input_paths={os.path.basename(p): os.path.abspath(p) for p in paths},
                   output_paths=[os.path.abspath(f.path) for f in files], digest=digest)
    _atomic_write(os.path.join(args.out_dir, f"{args.command}.manifest.json"),
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")


def csv_body(columns, rows) -> str:
    """Header line and one line per row, each cell written by ``_fmt``.

    A float's repr costs ten times a dict lookup, and most feature columns
    repeat a few values, so each nonzero float is formatted once per call
    (0.0 and -0.0 are equal keys with different reprs)."""
    texts: dict[float, str] = {}

    def fmt(value) -> str:
        if isinstance(value, float) and value:
            text = texts.get(value)
            if text is None:
                text = texts[value] = _fmt(value)
            return text
        return _fmt(value)

    lines = [",".join(columns)]
    lines += [",".join(map(fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def read_csv(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Headered CSV -> (metadata dict, column names, string rows)."""
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value
                continue
            if not columns:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, columns, rows


# ---------------------------------------------------------------------------
# reading input files


@contextlib.contextmanager
def _naming(path: str):
    """Put ``path`` in front of a ValueError raised while reading it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read(path: str, parse, *args):
    """``parse(text, *args)`` of the file at ``path``; a ValueError, such
    as a byte that is not UTF-8, names the file."""
    with _naming(path):
        with open(path) as fh:
            return parse(fh.read(), *args)


def _numeric_rows(columns: list[str], rows: list[list[str]]) -> np.ndarray:
    """CSV string rows -> (rows, columns) float matrix; ragged rows and
    non-numeric or non-finite cells raise ValueError naming the frame and
    the column."""
    for k, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(f"data row {k + 1} (frame {row[0]}) has "
                             f"{len(row)} cells, expected {len(columns)}")
    try:
        data = np.array([[float(v) for v in r] for r in rows], dtype=float)
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        for row in rows:
            for name, cell in zip(columns, row):
                try:
                    ok = math.isfinite(float(cell))
                except ValueError:
                    ok = False
                if not ok:
                    raise ValueError(f"frame {row[0]}, column {name}: "
                                     f"{cell!r} is not a finite number")
    return data.reshape(len(rows), len(columns))


def _read_table(path: str) -> tuple[list[str], np.ndarray]:
    """The columns and float matrix of a features or targets CSV."""
    with _naming(path):
        _, columns, rows = read_csv(path)
        if columns[:2] != ["frame", "beat"]:
            raise ValueError("header must start with frame,beat")
        if not rows:
            raise ValueError("no data rows")
        return columns, _numeric_rows(columns, rows)


def _corpus_pairs(corpus_dir: str) -> tuple[list[tuple[str, str, str]], list[str]]:
    """The (stem, features CSV, targets CSV) of each piece in a corpus
    directory, and the stems whose targets CSV is missing."""
    stems = sorted(
        name[:-len(".features.csv")]
        for name in os.listdir(corpus_dir) if name.endswith(".features.csv"))
    pairs, missing = [], []
    for stem in stems:
        fpath = os.path.join(corpus_dir, f"{stem}.features.csv")
        tpath = os.path.join(corpus_dir, f"{stem}.targets.csv")
        if os.path.exists(tpath):
            pairs.append((stem, fpath, tpath))
        else:
            missing.append(stem)
    return pairs, missing


def load_corpus(corpus_dir: str) -> list[evaluate.Piece]:
    """Read ``<stem>.features.csv`` / ``<stem>.targets.csv`` pairs."""
    pairs, missing = _corpus_pairs(corpus_dir)
    for stem in missing:
        log.warning("skipping %s: no targets file", stem)
    pieces = []
    for stem, fpath, tpath in pairs:
        fcols, fdata = _read_table(fpath)
        tcols, tdata = _read_table(tpath)
        if not np.array_equal(fdata[:, 0], tdata[:, 0]):
            raise ValueError(f"{fpath}, {tpath}: feature and target rows are not aligned")
        with _naming(tpath):
            if tuple(tcols[2:]) != TARGET_NAMES:
                raise ValueError(f"unexpected target columns {tuple(tcols[2:])}")
        pieces.append(evaluate.Piece(stem, fdata[:, 2:].copy(), tuple(fcols[2:]),
                                     tdata[:, 2:].copy()))
    if not pieces:
        raise ValueError(f"no feature/target CSV pairs found in {corpus_dir}")
    return pieces


# ---------------------------------------------------------------------------
# shared flags


def _parse_groups(text: str) -> set[str]:
    groups = {g.strip().upper() for g in text.split(",") if g.strip()}
    if not groups:
        raise SettingError("groups", f"must name at least one feature group, got {text!r}")
    return groups


def _spiral_from_args(args) -> SpiralParams:
    return _read(args.spiral_config, read_calibration) if args.spiral_config else SpiralParams()


def _window_from_args(args) -> WindowConfig:
    return WindowConfig(width_beats=args.window,
                        include_held=not args.onset_only)


def _train_config(args) -> model_mod.TrainConfig:
    return model_mod.TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, seed=args.seed,
        early_stop_patience=args.patience)


def _add_common(p: argparse.ArgumentParser, seed_required: bool = False) -> None:
    p.add_argument("--out-dir", default=".", help="output directory")
    if seed_required:
        p.add_argument("--seed", type=int, required=True,
                       help="random seed (stochastic commands have no default)")


def _add_feature_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spiral-config", default=None,
                   help="key=value file overriding the spiral-array calibration")
    p.add_argument("--window", type=float, default=1.0,
                   help="tension cloud window width in beats")
    p.add_argument("--onset-only", action="store_true",
                   help="exclude notes held into the window from clouds")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--patience", type=int, default=20)


# ---------------------------------------------------------------------------
# commands


def _stem(score_path: str) -> str:
    stem = os.path.basename(score_path)
    for suffix in (".score.tsv", ".tsv", ".txt"):
        if stem.endswith(suffix):
            return stem[:-len(suffix)]
    return stem


def _unique(paths: list[str], key, what: str) -> None:
    """Fail naming the first path whose ``key`` repeats an earlier one's."""
    seen: dict[str, str] = {}
    for path in paths:
        if key(path) in seen:
            raise ValueError(f"{path}: same {what} as {seen[key(path)]}")
        seen[key(path)] = path


def cmd_extract(args) -> list[OutputFile]:
    """Each score, with the match file at its position in ``--match``,
    -> ``<stem>.features.csv`` (+ ``<stem>.targets.csv``)."""
    groups = _parse_groups(args.groups)
    spiral = _spiral_from_args(args)
    window = _window_from_args(args)
    matches = args.match or [None] * len(args.score)
    if len(matches) != len(args.score):
        raise SettingError("match", f"must name one file per score ({len(args.score)}), "
                                    f"got {len(matches)}")
    # stems name the outputs, and base names key the manifest's inputs
    _unique(args.score, _stem, "output stem")
    _unique(args.score + (args.match or []), os.path.basename, "file name")
    files = []
    for score_path, match_path in zip(args.score, matches):
        files += _extract_piece(score_path, match_path, groups, spiral, window, args.out_dir)
    return files


def _extract_piece(score_path, match_path, groups, spiral, window, out_dir) -> list[OutputFile]:
    names = feature_names(groups)
    score = _read(score_path, parse_score)
    with _naming(score_path):
        frames = group_onsets(score)
        track = tension_track(score, window, spiral, frames) if "T" in groups else None
        rows = assemble_features(score, track, groups, frames)

    stem = _stem(score_path)
    header = ([("piece", stem), ("groups", ",".join(sorted(groups)))]
              + spiral.header_items() + window.header_items())

    files = []
    if match_path:
        perf = _read(match_path, parse_performance, score)
        with _naming(match_path):
            target_rows = extract_targets(perf, frames)
        surviving = {t.frame_index for t in target_rows}
        rows = [r for r in rows if r.frame_index in surviving]
        files.append(OutputFile(
            os.path.join(out_dir, f"{stem}.targets.csv"), list(header),
            csv_body(("frame", "beat") + TARGET_NAMES,
                     [(t.frame_index, t.beat, t.bpr, t.d_bpr, t.vel, t.d_vel)
                      for t in target_rows])))
    files.insert(0, OutputFile(
        os.path.join(out_dir, f"{stem}.features.csv"), list(header),
        csv_body(("frame", "beat") + names,
                 [(r.frame_index, r.beat) + r.values for r in rows])))
    return files


def cmd_synth(args) -> list[OutputFile]:
    cfg = synth.SynthConfig(pieces=args.pieces, frames=args.length,
                            seed=args.seed, rule=args.rule)
    spiral = _spiral_from_args(args)
    window = _window_from_args(args)
    header = [("rule", cfg.rule)] + spiral.header_items() + window.header_items()
    files = []
    for piece_id, score, perf in synth.generate_corpus(cfg, spiral, window):
        # only the two text bodies outlive the piece's objects
        files.append(OutputFile(os.path.join(args.out_dir, f"{piece_id}.score.tsv"),
                                list(header), serialize_score(score)))
        files.append(OutputFile(os.path.join(args.out_dir, f"{piece_id}.match.tsv"),
                                list(header), serialize_performance(perf)))
    return files


def cmd_mi(args) -> list[OutputFile]:
    pieces = load_corpus(args.corpus)
    subset, table = evaluate.mi_subset(pieces, args.fs_fraction, args.fs_k,
                                       args.fs_seed)
    subset_ids = ",".join(sorted(p.id for p in subset))
    header = [("fs_fraction", args.fs_fraction), ("fs_k", args.fs_k),
              ("subset", subset_ids)]
    norm = table.normalized()
    return [
        OutputFile(os.path.join(args.out_dir, "mi_raw.csv"), list(header),
                   csv_body(("feature",) + TARGET_NAMES,
                            [(n,) + tuple(table.values[i]) for i, n in enumerate(table.rows)])),
        OutputFile(os.path.join(args.out_dir, "mi_normalized.csv"), list(header),
                   csv_body(("feature",) + TARGET_NAMES,
                            [(n,) + tuple(norm[i]) for i, n in enumerate(table.rows)])),
    ]


def cmd_train(args) -> list[OutputFile]:
    pieces = load_corpus(args.corpus)
    groups = _parse_groups(args.groups)
    columns = feature_names(groups)
    cfg = _train_config(args)
    params, train_log, mean, std = evaluate.fit(pieces, columns, args.target, cfg)
    meta = {
        "target": args.target,
        "feature_names": ",".join(columns),
        "feature_mean": ",".join(repr(float(v)) for v in mean),
        "feature_std": ",".join(repr(float(v)) for v in std),
        "seed": str(args.seed),
    }
    return [
        OutputFile(os.path.join(args.out_dir, "model.txt"), [],
                   model_mod.dumps_model(params, meta)),
        OutputFile(
            os.path.join(args.out_dir, "training_log.csv"),
            [("target", args.target), ("groups", ",".join(sorted(groups)))]
            + list(cfg.header_items()),
            csv_body(("epoch", "train_mse", "val_mse"),
                     [(e.epoch, e.train_mse, e.val_mse) for e in train_log])),
    ]


_TABLE_ROWS = (("", "T"), ("P", "PT"), ("M", "MT"), ("PM", "PMT"))


def cmd_eval(args) -> list[OutputFile]:
    pieces = load_corpus(args.corpus)
    requested = [t.strip() for t in args.targets.split(",") if t.strip()]
    if not requested:
        raise SettingError("targets", f"must name at least one target, got {args.targets!r}")
    for t in requested:
        if t not in TARGET_NAMES:
            raise SettingError("targets", f"must be among {', '.join(TARGET_NAMES)}, got {t!r}")
        if requested.count(t) > 1:
            raise SettingError("targets", f"must name each target once, "
                                          f"got {t!r} {requested.count(t)} times")
    cfg = _train_config(args)
    labels = sorted({lbl for pair in _TABLE_ROWS for lbl in pair})
    if args.include_fs:
        labels.append("FS")

    experiments = [(t, lbl) for t in requested for lbl in labels]
    results = dict(zip(experiments, evaluate.run_cv(
        pieces, experiments, cfg, seed=args.seed, k=args.folds,
        fs_fraction=args.fs_fraction, fs_k=args.fs_k, fs_count=args.fs_count)))

    rows = []
    for target in requested:
        for base, plus in _TABLE_ROWS:
            r_base = results[(target, base)]
            r_plus = results[(target, plus)]
            p_value = ""
            effect = ""
            if base:  # significance only between a non-empty set and set+T
                common = sorted(set(r_base.per_piece_r2) & set(r_plus.per_piece_r2))
                a = [r_plus.per_piece_r2[pid] for pid in common]
                b = [r_base.per_piece_r2[pid] for pid in common]
                try:
                    p_value, effect = evaluate.paired_t_test(a, b)
                except ValueError as exc:
                    log.warning("t-test degenerate for %s %s: %s", target, base, exc)
            rows.append((target, base or "empty", r_base.mean_r2,
                         r_plus.mean_r2, p_value, effect))
        if args.include_fs:
            rows.append((target, "FS", results[(target, "FS")].mean_r2, "", "", ""))

    header = [("folds", args.folds), ("significance_level", 0.01)] \
        + list(cfg.header_items())
    return [OutputFile(
        os.path.join(args.out_dir, "results.csv"), header,
        csv_body(("target", "feature_set", "mean_r2", "mean_r2_plus_T",
                  "p_value", "cohens_d"), rows))]


def _standardization(meta: dict, key: str, count: int, positive: bool) -> np.ndarray:
    """The ``count`` finite numbers (all > 0 when ``positive``) of a model
    file's ``key`` metadata."""
    if not count:
        return np.zeros(0)
    try:
        values = np.array([float(v) for v in meta[key].split(",")])
    except ValueError:
        values = None
    if (values is None or values.shape != (count,) or not np.isfinite(values).all()
            or (positive and (values <= 0).any())):
        raise ValueError(f"meta {key} must hold {count} finite numbers"
                         + (" > 0" if positive else ""))
    return values


def cmd_sensitivity(args) -> list[OutputFile]:
    params, meta = _read(args.model, model_mod.loads_model)
    names = tuple(n for n in meta.get("feature_names", "").split(",") if n)
    with _naming(args.model):
        if len(names) != params.input_dim:
            raise ValueError(f"model file lists {len(names)} features "
                             f"but input_dim is {params.input_dim}")
        if names and not ("feature_mean" in meta and "feature_std" in meta):
            raise ValueError("model file lacks feature standardization metadata")
        mean, std = (_standardization(meta, key, len(names), positive)
                     for key, positive in (("feature_mean", False), ("feature_std", True)))
    pieces = load_corpus(args.corpus)
    sequences = [evaluate.standardized(p, names, mean, std) for p in pieces]
    longest = max(len(xs) for xs in sequences)
    if longest <= 2 * args.radius:
        # the matrix would be a mean over no positions: undefined, not zero
        raise SettingError("radius", f"must be below half the longest piece's {longest} "
                                     f"frames to leave an interior frame, got {args.radius}")
    result = evaluate.sensitivity(params, sequences, radius=args.radius)
    header = [("target", meta.get("target", "")), ("radius", args.radius),
              ("used_positions", result.used_positions),
              ("skipped_positions", result.skipped_positions)]
    rows = [(name, offset, result.matrix[i, j])
            for i, name in enumerate(names)
            for j, offset in enumerate(result.offsets)]
    return [OutputFile(os.path.join(args.out_dir, "sensitivity.csv"), header,
                       csv_body(("feature", "offset", "value"), rows))]


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonaltension",
        description="Spiral-array tension features and expressive performance modeling")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute feature (and target) CSVs for each piece")
    p.add_argument("score", nargs="+", help="paths of .score.tsv files")
    p.add_argument("--match", nargs="+", default=None,
                   help="the aligned .match.tsv file of each score, in score order")
    p.add_argument("--groups", default="P,M,T", help="feature groups, e.g. P,M,T")
    _add_feature_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--pieces", type=int, required=True)
    p.add_argument("--length", type=int, required=True, help="frames per piece")
    p.add_argument("--rule", default="t_cd-slow", choices=synth.RULES)
    _add_feature_flags(p)
    _add_common(p, seed_required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mi", help="mutual information between features and targets")
    p.add_argument("--corpus", required=True, help="directory of feature/target CSVs")
    p.add_argument("--fs-fraction", type=float, default=0.2)
    p.add_argument("--fs-k", type=int, default=3)
    p.add_argument("--fs-seed", dest="fs_seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("train", help="train one model on the whole corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", required=True, choices=TARGET_NAMES)
    p.add_argument("--groups", default="P,M,T")
    _add_train_flags(p)
    _add_common(p, seed_required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cross-validation experiments and statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--targets", default=",".join(TARGET_NAMES))
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--include-fs", action="store_true",
                   help="add the univariate-selection feature set")
    p.add_argument("--fs-fraction", type=float, default=0.2)
    p.add_argument("--fs-k", type=int, default=3)
    p.add_argument("--fs-count", type=int, default=10)
    _add_train_flags(p)
    _add_common(p, seed_required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sensitivity", help="differential sensitivity of a trained model")
    p.add_argument("--model", required=True, help="model file from the train command")
    p.add_argument("--corpus", required=True)
    p.add_argument("--radius", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_sensitivity)
    return parser


# the flag behind each library setting that a SettingError can name
_FLAGS = {"k": "--folds", "fraction": "--fs-fraction", "mi_k": "--fs-k",
          "fs_count": "--fs-count", "epochs": "--epochs", "learning_rate": "--lr",
          "targets": "--targets", "early_stop_patience": "--patience",
          "radius": "--radius", "width_beats": "--window", "pieces": "--pieces",
          "frames": "--length", "groups": "--groups", "seed": "--seed",
          "fs_seed": "--fs-seed", "match": "--match"}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    # Extraction builds several tracked containers per note and per frame
    # (named tuples, lists, dicts) that hold no reference cycles, so the
    # collector's young-generation passes free nothing; at the default
    # threshold they took about 8 % of an extract. Run them rarely while
    # the command runs, and give the caller back its own thresholds.
    thresholds = gc.get_threshold()
    gc.set_threshold(GC_YOUNG_THRESHOLD, *thresholds[1:])
    try:
        emit_outputs(args, args.func(args))
        return 0
    except SettingError as exc:
        print(f"error: {_FLAGS[exc.name]} {exc.problem}", file=sys.stderr)
        return 1
    except (TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
