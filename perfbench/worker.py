"""One benchmark process: set-up, then the measured command chain.

``perfbench/run.py`` starts this file in a fresh process for each run, so
imports, set-up and memory belong to one workload. It drives the public
``tonaltension.cli.main(argv)`` in process, as ``scripts/run_pipeline.py``
does, and writes one JSON result file.

Set-up is the package import plus input generation from the seed and a
warm-up (the chain once at reduced size).

Modes:
  measure  set-up SETUP_SAMPLES times (the import counted in each sample),
           then whole chains: at least two, more while they fit in --seconds
  trace    set-up once with traced input generation, one untraced chain,
           then one traced chain; reports per-layer metrics and the overhead
"""

import time

T0 = time.perf_counter()  # set-up time starts before the package import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Columns of the package's CSV outputs that hold labels, not numbers, and
# the results.csv columns that are empty where a statistic is undefined.
TEXT_COLUMNS = {"target", "feature_set", "feature"}
MAY_BE_EMPTY = {"mean_r2_plus_T", "p_value", "cohens_d"}

SETUP_SAMPLES = 3


def reduced(spec: dict) -> dict:
    """The same workload at a size that runs in about a second: used for
    warm-up and by the benchmark's own tests."""
    return dict(spec, pieces=5, length=24, eval_epochs=1, train_epochs=1, radius=1)


# ---------------------------------------------------------------------------
# commands


class Dirs:
    def __init__(self, base: Path):
        self.corpus = base / "corpus"
        self.features = base / "features"
        self.results = base / "results"


def setup_commands(spec: dict, seed: int, dirs: Dirs) -> list[list[str]]:
    cmds = [["synth", "--pieces", str(spec["pieces"]), "--length", str(spec["length"]),
             "--rule", spec["rule"], "--seed", str(seed), "--out-dir", str(dirs.corpus)]]
    if spec["setup_extract"]:
        cmds += extract_commands(spec, dirs)
    return cmds


def extract_commands(spec: dict, dirs: Dirs) -> list[list[str]]:
    return [["extract", str(dirs.corpus / f"piece{i:03d}.score.tsv"),
             "--match", str(dirs.corpus / f"piece{i:03d}.match.tsv"),
             "--groups", "P,M,T", "--out-dir", str(dirs.features)]
            for i in range(spec["pieces"])]


def chain_commands(spec: dict, seed: int, dirs: Dirs) -> list[list[str]]:
    feats, results = str(dirs.features), str(dirs.results)
    cmds = []
    for step in spec["chain"]:
        if step == "extract":
            cmds += extract_commands(spec, dirs)
        elif step == "mi":
            cmds.append(["mi", "--corpus", feats, "--fs-seed", str(seed),
                         "--out-dir", results])
        elif step == "eval":
            cmds.append(["eval", "--corpus", feats, "--targets", "bpr",
                         "--seed", str(seed), "--epochs", str(spec["eval_epochs"]),
                         "--include-fs", "--out-dir", results])
        elif step == "train":
            cmds.append(["train", "--corpus", feats, "--target", "bpr",
                         "--seed", str(seed), "--epochs", str(spec["train_epochs"]),
                         "--out-dir", results])
        elif step == "sensitivity":
            cmds.append(["sensitivity", "--model", str(dirs.results / "model.txt"),
                         "--corpus", feats, "--radius", str(spec["radius"]),
                         "--out-dir", results])
        else:
            raise ValueError(f"unknown chain step {step!r}")
    return cmds


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


# ---------------------------------------------------------------------------
# output checks


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """A headered CSV output as (columns, rows); '#' lines are skipped."""
    columns: list[str] = []
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if columns:
                rows.append(line.split(","))
            else:
                columns = line.split(",")
    return columns, rows


def table_problems(name: str, columns: list[str], rows: list[list[str]]) -> list[str]:
    """Every numeric cell of a CSV output must parse and be finite."""
    for r, row in enumerate(rows):
        if len(row) != len(columns):
            return [f"{name}: row {r} has {len(row)} cells, expected {len(columns)}"]
        for col, cell in zip(columns, row):
            if col in TEXT_COLUMNS or (cell == "" and col in MAY_BE_EMPTY):
                continue
            try:
                value = float(cell)
            except ValueError:
                return [f"{name}: row {r} column {col}: not a number: {cell!r}"]
            if not math.isfinite(value):
                return [f"{name}: row {r} column {col}: not finite: {cell}"]
    return []


class OutputCheck:
    """Checks each command's outputs and that they are byte-identical to
    the first time the same file was written in this process.

    Manifests are left out: they hold absolute paths by design. Their
    content digest is stamped into every output header, so it is covered.
    """

    def __init__(self):
        self.reference: dict[str, str] = {}  # output basename -> sha256
        self.frames = 0  # feature rows written since the last reset

    def check(self, argv: list[str], model_mod) -> list[str]:
        out_dir = Path(_flag(argv, "--out-dir"))
        manifest = out_dir / f"{argv[0]}.manifest.json"
        try:
            outputs = json.loads(manifest.read_text())["outputs"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"{manifest.name}: unreadable: {exc}"]
        problems = []
        for name in outputs:
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{name}: missing")
                continue
            digest = sha256_file(path)
            if self.reference.setdefault(name, digest) != digest:
                problems.append(f"{name}: not byte-identical to an earlier run")
            problems += self._content_problems(argv, path, model_mod)
        return problems

    def _content_problems(self, argv, path: Path, model_mod) -> list[str]:
        name = path.name
        if name == "model.txt":
            try:
                params, _ = model_mod.load_model(path)
            except (OSError, ValueError, KeyError) as exc:
                return [f"{name}: unreadable: {exc}"]
            if not all(math.isfinite(v) for v in params.flatten()):
                return [f"{name}: non-finite parameter"]
            return []
        if not name.endswith(".csv"):
            return []  # synth's score/match files: digest only
        columns, table = read_table(path)
        problems = table_problems(name, columns, table)
        rows = len(table)
        if name.endswith(".features.csv"):
            self.frames += rows
            targets = path.with_name(name[:-len(".features.csv")] + ".targets.csv")
            t_rows = len(read_table(targets)[1]) if targets.is_file() else -1
            if t_rows != rows:
                problems.append(f"{name}: {rows} rows but {targets.name} has {t_rows}")
        if name == "sensitivity.csv":
            params, _ = model_mod.load_model(_flag(argv, "--model"))
            expected = params.input_dim * (2 * int(_flag(argv, "--radius")) + 1)
            if rows != expected:
                problems.append(f"{name}: {rows} rows, expected {expected}")
        return problems


class Ops:
    """Attempted and failed operations; an operation is one command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, argv: list[str], problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{argv[0]}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# running commands


def run_command(cli, argv: list[str]) -> tuple[float, float, list[str]]:
    """Run one command; returns (wall s, cpu s, problems)."""
    Path(_flag(argv, "--out-dir"), f"{argv[0]}.manifest.json").unlink(missing_ok=True)
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a benchmark crash
        rc = None
        traceback.print_exc()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if rc == 0:
        return wall, cpu, []
    return wall, cpu, [f"exit status {rc}" if rc is not None else "raised"]


def run_setup(cli, model_mod, spec, seed, dirs, check: OutputCheck) -> None:
    for argv in setup_commands(spec, seed, dirs):
        _, _, problems = run_command(cli, argv)
        problems = problems or check.check(argv, model_mod)
        if problems:
            raise RuntimeError(f"set-up command {argv[0]} failed: {problems}")


def run_chain(cli, model_mod, spec, seed, dirs, check: OutputCheck, ops: Ops) -> dict:
    """One repetition of the measured chain; outputs are cleared first."""
    for d in {Path(_flag(a, "--out-dir")) for a in chain_commands(spec, seed, dirs)}:
        shutil.rmtree(d, ignore_errors=True)
    check.frames = 0
    rep = {"wall_s": 0.0, "cpu_s": 0.0, "commands": {}}
    for argv in chain_commands(spec, seed, dirs):
        wall, cpu, problems = run_command(cli, argv)
        rep["wall_s"] += wall
        rep["cpu_s"] += cpu
        per = rep["commands"].setdefault(argv[0], {"wall_s": 0.0, "count": 0})
        per["wall_s"] += wall
        per["count"] += 1
        ops.record(argv, problems or check.check(argv, model_mod))
    if "extract" in rep["commands"]:
        rep["commands"]["extract"]["frames"] = check.frames
    return rep


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                     if k in blas}}


def set_up(cli, model_mod, spec, seed, base: Path, check: OutputCheck, tracer=None) -> Dirs:
    """Input generation from the seed (traced when a tracer is given),
    then warm-up: the workload's chain once at reduced size."""
    dirs = Dirs(base)
    if tracer is not None:
        tracer.install()
    try:
        run_setup(cli, model_mod, spec, seed, dirs, check)
    finally:
        if tracer is not None:
            tracer.uninstall()
    warm = Dirs(base / "warmup")
    warm_spec = reduced(spec)
    run_setup(cli, model_mod, warm_spec, seed, warm, OutputCheck())
    warm_ops = Ops()
    run_chain(cli, model_mod, warm_spec, seed, warm, OutputCheck(), warm_ops)
    if warm_ops.failed:
        raise RuntimeError(f"warm-up failed: {warm_ops.problems}")
    shutil.rmtree(base / "warmup")
    return dirs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark process")
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--spec", required=True, help="workload spec as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work", required=True, help="scratch directory (emptied)")
    ap.add_argument("--result", required=True, help="path of the JSON result")
    ap.add_argument("--spans", default=None, help="where trace mode writes spans")
    ap.add_argument("--run-id", default="", help="recorded on every span")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)
    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)

    sys.path.insert(0, str(SRC))
    from tonaltension import (cli, evaluate, features, mi, model, spiral, symbolic,
                              synth, targets, tension)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the package under {SRC}")
    layers = {"cli": cli, "synth": synth, "symbolic": symbolic, "spiral": spiral,
              "tension": tension, "features": features, "targets": targets,
              "mi": mi, "model": model, "evaluate": evaluate}
    import_s = time.perf_counter() - T0

    check = OutputCheck()
    ops = Ops()
    result = {}
    if args.mode == "measure":
        samples = []
        for i in range(SETUP_SAMPLES):
            t = time.perf_counter()
            dirs = set_up(cli, model, spec, args.seed, work / f"run{i}", check)
            samples.append(time.perf_counter() - t)
        for i in range(SETUP_SAMPLES - 1):
            shutil.rmtree(work / f"run{i}")
        result["setup_samples"] = [import_s + t for t in samples]
        reps = []
        start = time.perf_counter()
        while True:
            reps.append(run_chain(cli, model, spec, args.seed, dirs, check, ops))
            elapsed = time.perf_counter() - start
            if len(reps) >= 2 and elapsed + reps[-1]["wall_s"] > args.seconds:
                break
    else:
        import tracing
        tracer = tracing.Tracer(layers)
        tracer.run_id = f"{args.run_id}/setup"
        dirs = set_up(cli, model, spec, args.seed, work / "run0", check, tracer)
        reps = [run_chain(cli, model, spec, args.seed, dirs, check, ops)]
        tracer.run_id = f"{args.run_id}/chain"
        tracer.install()
        try:
            reps.append(run_chain(cli, model, spec, args.seed, dirs, check, ops))
        finally:
            tracer.uninstall()
        traced_wall = reps[1]["wall_s"]
        top = tracer.top_level_time(tracer.run_id)
        result["trace"] = {
            "top_level_s": top, "traced_wall_s": traced_wall,
            "metrics": tracer.layer_metrics(traced_wall - reps[0]["wall_s"])}
        if abs(top - traced_wall) > 0.05 * traced_wall:
            ops.problems.append(f"top-level spans cover {top:.3f} s of the "
                                f"traced {traced_wall:.3f} s")
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "run_id"],
                       "spans": tracer.spans}, fh)

    digests = dict(sorted(check.reference.items()))
    result.update(
        reps=reps, attempted=ops.attempted, failed=ops.failed,
        problems=ops.problems, digests=digests,
        combined_digest=hashlib.sha256("".join(
            f"{k} {v}\n" for k, v in digests.items()).encode()).hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment())
    shutil.rmtree(work, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
