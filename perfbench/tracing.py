"""In-memory spans around calls into the package's public functions.

The wrappers are installed from outside the package. Every module
attribute that *is* a traced function is replaced, which covers names
imported with ``from ... import`` (``cli`` imports ``tension_track``,
``evaluate`` imports ``train`` and ``forward``), so a span fires wherever
the caller looks the name up. ``uninstall`` puts the originals back.

A span is ``(id, parent_id, name, start, end, run_id)``. Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time

# Functions that get a span, by layer module. The set is chosen so that a
# layer's self time keeps its own inner loops: tension.make_cloud's scan
# stays in tension_track's self time.
SPANNED = {
    "cli": ("main", "load_corpus", "emit_outputs"),
    "synth": ("generate_corpus",),
    "symbolic": ("parse_score", "parse_performance", "group_onsets"),
    "tension": ("tension_track",),
    "features": ("assemble_features",),
    "targets": ("targets",),
    "mi": ("mi_table", "estimate_mi"),
    "evaluate": ("fs_select", "run_cv", "sensitivity"),
    "model": ("train", "loss_and_gradient", "forward", "forward_batch"),
}

# Hot leaf functions: a call count only, no span, so the trace stays cheap.
COUNTED = {
    "spiral": ("distance", "pitch_position"),
    "targets": ("average_onsets",),
}


def _batch_frames(bound, result):
    return sum(len(xs) for xs, _ in bound["batch"])


def _bytes_written(bound, result):
    return sum(os.path.getsize(f.path) for f in bound["files"])


# Work done per call, as (counter, function of bound arguments and result).
MEASURES = {
    "tension.tension_track": ("frames", lambda bound, result: len(result)),
    "features.assemble_features": ("frames", lambda bound, result: len(result)),
    "model.train": ("epochs", lambda bound, result: len(result[1])),
    "model.loss_and_gradient": ("frame_updates", _batch_frames),
    "model.forward": ("frames", lambda bound, result: len(result)),
    "model.forward_batch": ("sequences", lambda bound, result: result.shape[0]),
    "cli.emit_outputs": ("bytes", _bytes_written),
}


class Tracer:
    """Installs span and count wrappers on the given layer modules."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module object
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.amounts: dict[tuple[str, str], float] = {}
        self.run_id = ""
        self._local = threading.local()
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        measure = MEASURES.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.run_id))
                self.calls[name] = self.calls.get(name, 0) + 1
            if measure is not None:
                key, how = measure
                bound = signature.bind(*args, **kwargs).arguments
                self.amounts[(name, key)] = (self.amounts.get((name, key), 0)
                                             + how(bound, result))
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for table, make in ((SPANNED, self._span_wrapper),
                            (COUNTED, self._count_wrapper)):
            for layer, names in table.items():
                for attr in names:
                    fn = getattr(self.modules[layer], attr)
                    wrapped = make(fn, f"{layer}.{attr}")
                    for module in self.modules.values():
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                self._patched.append((module, key, fn))
                                setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched = []

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the part covered by child
        spans (the union of child intervals, so overlapping children in
        other threads are not subtracted twice)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for span_id, _, name, start, end, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, _, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def top_level_time(self, run_id: str) -> float:
        return sum(end - start for _, parent, _, start, end, rid in self.spans
                   if parent is None and rid == run_id)

    def layer_metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
        self_s = self.self_times()
        total = self.total_times()

        def s(name):
            return (self_s.get(name, 0.0), "s")

        def calls(name):
            return (self.calls.get(name, 0), "count")

        def amount(name, key):
            return self.amounts.get((name, key), 0)

        def us_per(name, key):
            n = amount(name, key)
            return (1e6 * total.get(name, 0.0) / n if n else 0.0, "us")

        return {
            "synth.generate_corpus.self_s": s("synth.generate_corpus"),
            "symbolic.parse_score.self_s": s("symbolic.parse_score"),
            "symbolic.parse_performance.self_s": s("symbolic.parse_performance"),
            "symbolic.group_onsets.calls": calls("symbolic.group_onsets"),
            "symbolic.group_onsets.self_s": s("symbolic.group_onsets"),
            "tension.tension_track.self_s": s("tension.tension_track"),
            "tension.us_per_frame": us_per("tension.tension_track", "frames"),
            "spiral.distance.calls": calls("spiral.distance"),
            "spiral.pitch_position.calls": calls("spiral.pitch_position"),
            "features.assemble_features.self_s": s("features.assemble_features"),
            "features.us_per_frame": us_per("features.assemble_features", "frames"),
            "targets.targets.self_s": s("targets.targets"),
            "targets.average_onsets.calls": calls("targets.average_onsets"),
            "mi.mi_table.self_s": s("mi.mi_table"),
            "mi.estimate_mi.calls": calls("mi.estimate_mi"),
            "evaluate.fs_select.self_s": s("evaluate.fs_select"),
            "model.train.calls": calls("model.train"),
            "model.train.self_s": s("model.train"),
            "model.epochs_run": (amount("model.train", "epochs"), "count"),
            "model.frame_updates": (amount("model.loss_and_gradient", "frame_updates"),
                                    "count"),
            "model.loss_and_gradient.calls": calls("model.loss_and_gradient"),
            "model.loss_and_gradient.self_s": s("model.loss_and_gradient"),
            "model.bptt_us_per_frame_update": us_per("model.loss_and_gradient",
                                                     "frame_updates"),
            "model.forward.calls": calls("model.forward"),
            "model.forward.self_s": s("model.forward"),
            "model.forward_us_per_frame": us_per("model.forward", "frames"),
            "model.forward_batch.sequences": (amount("model.forward_batch", "sequences"),
                                              "count"),
            "model.forward_batch.self_s": s("model.forward_batch"),
            "evaluate.sensitivity.self_s": s("evaluate.sensitivity"),
            "evaluate.run_cv.calls": calls("evaluate.run_cv"),
            "evaluate.run_cv.self_s": s("evaluate.run_cv"),
            "cli.load_corpus.self_s": s("cli.load_corpus"),
            "cli.emit_outputs.self_s": s("cli.emit_outputs"),
            "cli.emit_outputs.bytes": (amount("cli.emit_outputs", "bytes"), "bytes"),
            "trace.overhead_s": (overhead_s, "s"),
        }
