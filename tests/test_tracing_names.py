"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
name and reads their arguments and results. A renamed or deleted function,
or a changed signature, would only break a traced benchmark run, which
tier-1 does not start, so the names are checked here and a reduced chain
runs under the tracer."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_names():
    tracing = load_tracing()
    return [(layer, name) for table in (tracing.SPANNED, tracing.COUNTED)
            for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer,name", traced_names())
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"tonaltension.{layer}")
    assert callable(getattr(module, name, None)), f"tonaltension.{layer}.{name}"


def test_reduced_chain_runs_under_the_tracer(tmp_path):
    tracing = load_tracing()
    layers = {layer: importlib.import_module(f"tonaltension.{layer}")
              for table in (tracing.SPANNED, tracing.COUNTED) for layer in table}
    corpus, feats, results = tmp_path / "corpus", tmp_path / "feats", tmp_path / "results"
    chain = [["synth", "--pieces", 5, "--length", 24, "--seed", 1, "--out-dir", corpus]]
    chain += [["extract", corpus / f"piece{i:03d}.score.tsv",
               "--match", corpus / f"piece{i:03d}.match.tsv", "--out-dir", feats]
              for i in range(5)]
    chain += [["mi", "--corpus", feats, "--fs-seed", 1, "--out-dir", results],
              ["eval", "--corpus", feats, "--targets", "bpr", "--seed", 1, "--epochs", 1,
               "--include-fs", "--out-dir", results],
              ["train", "--corpus", feats, "--target", "bpr", "--seed", 1, "--epochs", 1,
               "--out-dir", results],
              ["sensitivity", "--model", results / "model.txt", "--corpus", feats,
               "--radius", 1, "--out-dir", results]]
    tracer = tracing.Tracer(layers)
    tracer.install()
    try:
        codes = [layers["cli"].main([str(a) for a in argv]) for argv in chain]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(chain)
    metrics = tracer.layer_metrics(0.0)
    assert metrics["model.train.calls"] == (1, "count")
    assert metrics["model.epochs_run"] == (1, "count")
    assert metrics["evaluate.run_cv.calls"] == (1, "count")
    # every update goes through loss_and_gradient, so the BPTT cost is traced
    assert metrics["model.loss_and_gradient.calls"][0] > 0
    assert metrics["model.frame_updates"][0] > 0
