import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tonaltension import cli, model as model_mod
from tonaltension.errors import TrainingDiverged
from tonaltension.model import (HIDDEN, ModelParams, TrainConfig, dumps_model,
                                forward, forward_batch, init_model,
                                load_model, loads_model, loss_and_gradient,
                                train, train_many)


def randomized(input_dim, seed, scale=0.3):
    """Model with every tensor perturbed so no gating path is degenerate."""
    rng = np.random.default_rng(seed)
    params = init_model(input_dim, seed=seed)
    flat = params.flat + rng.normal(scale=scale, size=params.flat.size)
    return ModelParams(input_dim, flat)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_model(7, seed=42)
        b = init_model(7, seed=42)
        assert np.array_equal(a.flatten(), b.flatten())

    def test_zero_input_dim_runs(self):
        params = init_model(0, seed=1)
        assert params.tensors()["fwd.W"].shape == (4 * HIDDEN, 0)
        out = forward(params, np.zeros((4, 0)))
        assert out.shape == (4,)

    def test_forget_bias_is_one(self):
        t = init_model(3, seed=0).tensors()
        for d in ("fwd", "bwd"):
            assert np.all(t[f"{d}.bias"][HIDDEN:2 * HIDDEN] == 1.0)
            assert np.all(t[f"{d}.bias"][:HIDDEN] == 0.0)
            assert np.all(t[f"{d}.alpha"] == 1.0)
            assert np.all(t[f"{d}.beta1"] == 0.5)

    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=50))
    def test_tensors_view_flat_in_layout_order(self, dim, seed):
        params = init_model(dim, seed=seed)
        tensors = params.tensors()
        assert [(name, t.shape) for name, t in tensors.items()] == model_mod._shapes(dim)
        assert all(np.shares_memory(t, params.flat) for t in tensors.values() if t.size)
        assert np.array_equal(np.concatenate([t.ravel() for t in tensors.values()]),
                              params.flat)


class TestForward:
    def test_all_zero_parameters_predict_zero(self):
        params = ModelParams(3, np.zeros(init_model(3, 0).flat.size))
        out = forward(params, np.ones((5, 3)))
        assert np.all(out == 0.0)

    def test_bias_only_path(self):
        params = init_model(3, seed=4)
        params.tensors()["out.v"][:] = 0.0
        params.tensors()["out.bias"][:] = 0.7
        out = forward(params, np.random.default_rng(0).normal(size=(6, 3)))
        assert out == pytest.approx(np.full(6, 0.7))

    def test_reversal_with_swapped_directions(self):
        params = randomized(4, seed=3)
        t = params.tensors()
        t["out.v"] = np.roll(t["out.v"], HIDDEN)  # [v_bwd ; v_fwd]
        swap = {"fwd": "bwd", "bwd": "fwd", "out": "out"}
        swapped = ModelParams(params.input_dim, np.concatenate(
            [t[swap[name[:3]] + name[3:]].ravel() for name in t]))
        xs = np.random.default_rng(1).normal(size=(7, 4))
        assert forward(swapped, xs[::-1]) == pytest.approx(forward(params, xs)[::-1])

    def test_output_depends_on_whole_sequence(self):
        params = randomized(4, seed=5)
        xs = np.random.default_rng(2).normal(size=(6, 4))
        perturbed = xs.copy()
        perturbed[-1, 0] += 0.1
        delta = abs(forward(params, xs)[0] - forward(params, perturbed)[0])
        assert delta > 1e-12

    def test_empty_sequence(self):
        assert forward(init_model(3, 0), np.zeros((0, 3))).shape == (0,)

    def test_batch_matches_single(self):
        params = randomized(3, seed=9)
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(5, 8, 3))
        stacked = forward_batch(params, batch)
        for i in range(5):
            assert np.array_equal(stacked[i], forward(params, batch[i]))



class TestGradient:
    def relative_errors(self, seed, widths=(4,), lengths=(3,)):
        """Relative error of each stacked model's gradient (models flattened
        at the widest of ``widths``, model r of own width widths[r] on a
        sequence of lengths[r]) against central differences of its own MSE;
        the gradients in a narrower model's padded W columns must be 0."""
        rng = np.random.default_rng(seed)
        width = max(widths)
        own = [model_mod._own_entries(dim, width) for dim in widths]
        flat = np.zeros((len(widths), model_mod._size(width)))
        for r, dim in enumerate(widths):
            flat[r, own[r]] = randomized(dim, seed + r).flatten()
        batch = [(rng.normal(size=(steps, dim)), rng.normal(size=steps))
                 for dim, steps in zip(widths, lengths)]
        _, grad = loss_and_gradient(flat, width, batch)
        eps = 1e-5
        errors = []
        for r in range(len(widths)):
            padded = np.ones(flat.shape[1], dtype=bool)
            padded[own[r]] = False
            assert np.all(grad[r, padded] == 0.0)
            fd = np.zeros(len(own[r]))
            for k, i in enumerate(own[r]):
                up, down = flat.copy(), flat.copy()
                up[r, i] += eps
                down[r, i] -= eps
                lu, _ = loss_and_gradient(up, width, batch)
                ld, _ = loss_and_gradient(down, width, batch)
                fd[k] = (lu[r] - ld[r]) / (2 * eps)
            g = grad[r, own[r]]
            denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
            errors.append(np.abs(g - fd) / denom)
        return np.concatenate(errors)

    def test_bptt_matches_finite_differences(self):
        assert self.relative_errors(seed=0).max() < 1e-4

    def test_stack_matches_finite_differences(self):
        errors = self.relative_errors(seed=0, widths=(5, 3, 0), lengths=(6, 4, 2))
        assert errors.max() < 1e-4

    def test_gradient_zero_at_perfect_fit(self):
        params = init_model(2, seed=0)
        params.tensors()["out.v"][:] = 0.0
        params.tensors()["out.bias"][:] = 0.25
        xs = np.random.default_rng(0).normal(size=(5, 2))
        mse, grad = loss_and_gradient(params.flatten()[None], 2, [(xs, np.full(5, 0.25))])
        assert mse[0] == 0.0
        bias_index = params.flat.size - 1
        assert grad[0, bias_index] == 0.0


class TestReduceOrder:
    """``_scan_grad`` continues each parameter-gradient sum with one
    ``np.add.reduce(buf, axis=0, out=acc)`` over a block buffer: slab 0
    the running sum (which starts at +0.0), slab k the term of the block's
    k-th step from its end. That must add the slabs one by one, in order,
    bit for bit, as ``acc += term`` per step does."""

    @pytest.mark.parametrize("m", [2, 90])
    @pytest.mark.parametrize("steps", [1, 8, 250])
    @pytest.mark.parametrize("tail", [(13, 4 * HIDDEN), (HIDDEN, 4 * HIDDEN),
                                      (1, 4 * HIDDEN)])
    def test_reduce_matches_slab_by_slab_sum(self, m, steps, tail):
        rng = np.random.default_rng(steps * m + tail[0])
        acc = np.zeros((m,) + tail)
        expected = acc.copy()
        buf = np.empty((steps + 1, m) + tail)
        for _ in range(2):  # two blocks: the second starts from the first's sum
            buf[0] = acc
            for term in buf[1:]:
                # magnitudes over 16 decades, so that any other order of the
                # additions rounds differently; one column 0.0, one -0.0
                term[...] = rng.normal(size=term.shape) * 10.0 ** rng.integers(-8, 9, term.shape)
                term[..., 0] = 0.0
                term[..., -1] = -0.0
                expected += term
            np.add.reduce(buf, axis=0, out=acc)
            assert np.array_equal(acc, expected)
            assert np.array_equal(np.signbit(acc), np.signbit(expected))


class TestFusedDirections:
    """Both directions of a model are two rows of one scan."""

    def rows_per_call(self, monkeypatch, name):
        calls = []
        inner = getattr(model_mod, name)

        def counted(d, *args):
            calls.append(len(d.U))
            return inner(d, *args)

        monkeypatch.setattr(model_mod, name, counted)
        return calls

    def test_forward_runs_one_scan(self, monkeypatch):
        scans = self.rows_per_call(monkeypatch, "_scan")
        forward(randomized(3, seed=1), np.ones((6, 3)))
        assert scans == [2]

    def test_gradient_runs_one_scan_and_one_reverse(self, monkeypatch):
        scans = self.rows_per_call(monkeypatch, "_scan")
        reverses = self.rows_per_call(monkeypatch, "_scan_grad")
        loss_and_gradient(randomized(3, seed=1).flatten()[None], 3,
                          [(np.ones((6, 3)), np.zeros(6))])
        assert scans == [2] and reverses == [2]

    def test_jacobian_band_runs_one_scan(self, monkeypatch):
        scans = self.rows_per_call(monkeypatch, "_scan")
        model_mod.input_jacobian_band(randomized(3, seed=1), np.ones((6, 3)), 2)
        assert scans == [2]


class TestTrain:
    def dataset(self, rng, pieces=4, steps=12, dim=2):
        return [(rng.normal(size=(steps, dim)), rng.normal(size=steps))
                for _ in range(pieces)]

    def test_constant_target_learned(self, rng):
        # analytic optimum is the constant predictor y = 0.6
        data = [(rng.normal(size=(15, 2)), np.full(15, 0.6)) for _ in range(4)]
        cfg = TrainConfig(learning_rate=2e-2, epochs=200, seed=1,
                          early_stop_patience=200)
        params, log = train(data, cfg)
        final = np.mean([np.mean((forward(params, x) - y) ** 2) for x, y in data])
        assert final < 1e-4

    def test_zero_learning_rate_keeps_parameters(self, rng):
        data = self.dataset(rng)
        cfg = TrainConfig(learning_rate=0.0, epochs=5, seed=3, early_stop_patience=100)
        params, log = train(data, cfg)
        assert np.array_equal(params.flatten(), init_model(2, seed=3).flatten())
        assert len({round(e.train_mse, 12) for e in log}) == 1

    def test_same_seed_identical_log(self, rng):
        data = self.dataset(rng)
        cfg = TrainConfig(epochs=6, seed=7)
        p1, l1 = train(data, cfg)
        p2, l2 = train(data, cfg)
        assert np.array_equal(p1.flatten(), p2.flatten())
        assert l1 == l2

    def test_non_finite_validation_loss_diverges(self, rng):
        data = self.dataset(rng)
        held_out = int(np.random.default_rng(3).permutation(len(data))[0])
        data[held_out][1][1] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite validation loss at epoch 0, "
                                                   f"dataset item {held_out}$"):
            train(data, TrainConfig(epochs=5, seed=3))

    def test_lockstep_updates_step_through_loss_and_gradient(self, rng, monkeypatch):
        # one call per update slot, its batch holding one piece per model
        # that trains in it; 4 pieces of 12 steps keep 3 for training
        calls = []
        inner = model_mod.loss_and_gradient

        def counted(flat, input_dim, batch, work):
            calls.append(sum(len(xs) for xs, _ in batch))
            return inner(flat, input_dim, batch, work)

        monkeypatch.setattr(model_mod, "loss_and_gradient", counted)
        cfg = TrainConfig(epochs=2, early_stop_patience=100)
        train_many([self.dataset(rng), self.dataset(rng, dim=0)], cfg, [1, 2])
        assert calls == [24] * 6

    def test_divergence_reported_with_location(self, rng):
        data = [(rng.normal(size=(4, 2)), np.array([0.0, np.nan, 0.0, 0.0]))]
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train(data, TrainConfig(epochs=5, seed=0))


class TestWorkspace:
    """``train_many`` draws the arrays of every scan and reverse from one
    workspace; nothing an earlier call left there may reach a later one."""

    def stacked(self, rng, width, models):
        """Models of (input_dim, length) ``models`` flattened at ``width``,
        longest first, with a batch item each."""
        flat = np.zeros((len(models), model_mod._size(width)))
        batch = []
        for r, (dim, steps) in enumerate(models):
            flat[r, model_mod._own_entries(dim, width)] = randomized(dim, seed=r).flat
            batch.append((rng.normal(size=(steps, dim)), rng.normal(size=steps)))
        return flat, batch

    def test_reused_workspace_matches_a_fresh_one(self, rng):
        # wide, long and many-row; then narrow, short and one-row; then two
        # rows of unequal length, more rows than the call before reads
        calls = [[(13, 40), (13, 33), (9, 25)], [(3, 6)], [(4, 11), (0, 5)]]
        work = model_mod._Workspace()
        for models in calls:
            flat, batch = self.stacked(rng, 13, models)
            mse, grad = loss_and_gradient(flat, 13, batch, work)
            fresh_mse, fresh_grad = loss_and_gradient(flat, 13, batch)
            assert np.array_equal(mse, fresh_mse) and np.array_equal(grad, fresh_grad)
            for r, (dim, _) in enumerate(models):
                padded = np.ones(flat.shape[1], dtype=bool)
                padded[model_mod._own_entries(dim, 13)] = False
                # +0.0 exactly, as from np.zeros: no -0.0, nothing stale
                assert not grad[r, padded].any() and not np.signbit(grad[r, padded]).any()

    def test_results_read_no_stale_entry(self, rng, monkeypatch):
        # calls refill only what they read before writing: C and H at their
        # initial step, X in the columns past a narrower row's width, and the
        # gradient sums. Every buffer is NaN before each call, so a read past
        # a row's length, or of any other entry not written first, would
        # carry NaN into the results of the second round
        flat, batch = self.stacked(rng, 6, [(6, 17), (4, 9)])
        models, seqs = [randomized(4, seed=1), randomized(6, seed=0)], [batch[1][0], batch[0][0]]
        want_mse, want_grad = loss_and_gradient(flat, 6, batch)
        want_preds = model_mod.forward_many(models, seqs)
        work = model_mod._Workspace()
        monkeypatch.setattr(model_mod, "_Workspace", lambda: work)  # forward_many's too
        for _ in range(2):  # the first round makes every buffer
            for buf in work._flat.values():
                buf.fill(np.nan)
            mse, grad = loss_and_gradient(flat, 6, batch)
            for buf in work._flat.values():
                buf.fill(np.nan)
            preds = model_mod.forward_many(models, seqs)
        assert np.array_equal(mse, want_mse) and np.array_equal(grad, want_grad)
        assert all(np.array_equal(p, q) for p, q in zip(preds, want_preds))

    def test_python_calls_per_time_step(self):
        # one model made 3 Python-level calls per step (copyto in the scan,
        # _cell_grad and its concatenate in the reverse): 485 at T = 100 and
        # 785 at T = 200. The slope cancels fixed costs and interpreters'
        # call differences; the bound is 3 plus a margin of 0.5
        def calls(steps):
            rng = np.random.default_rng(0)
            batch = [(rng.normal(size=(steps, 4)), rng.normal(size=steps))]
            flat = randomized(4, seed=0).flat[None]
            loss_and_gradient(flat, 4, batch)  # the first call imports scipy.special
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event == "call"

            sys.setprofile(profile)
            try:
                loss_and_gradient(flat, 4, batch)
            finally:
                sys.setprofile(None)
            return count

        assert (calls(200) - calls(100)) / 100 <= 3.5

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="calibrated on Linux, where ru_minflt counts minor "
                               "page faults and glibc hands freed heap tops back")
    def test_train_call_touches_few_fresh_pages(self, tmp_path):
        # with fresh scan arrays per update step (about 600 minor faults
        # each) these 15 updates took about 9,200 faults; the workspace's
        # first touch keeps the whole call under 1,000. Pieces of 240-262
        # frames took about 1,190 when each new longest slot regrew the
        # workspace; sized once, before the first update, they stay under it
        import resource  # Unix only

        for case, length, frames in (("equal", 250, None), ("ragged", 262, (240, 262, 251, 246))):
            corpus, feats = tmp_path / case / "corpus", tmp_path / case / "features"
            assert cli.main(["synth", "--pieces", "4", "--length", str(length), "--seed", "1",
                             "--out-dir", str(corpus)]) == 0
            stems = [corpus / f"piece{i:03d}" for i in range(4)]
            assert cli.main(["extract", *(f"{s}.score.tsv" for s in stems),
                             "--match", *(f"{s}.match.tsv" for s in stems),
                             "--out-dir", str(feats)]) == 0
            for i, keep in enumerate(frames or ()):  # a piece's first ``keep`` frames
                for kind in ("features", "targets"):
                    path = feats / f"piece{i:03d}.{kind}.csv"
                    lines = path.read_text().splitlines(keepends=True)
                    header = sum(line.startswith("#") for line in lines) + 1
                    path.write_text("".join(lines[:header + keep]))
            faults = []
            for run in range(2):  # the first call warms up imports and caches
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                assert cli.main(["train", "--corpus", str(feats), "--target", "bpr",
                                 "--seed", "1", "--epochs", "5",
                                 "--out-dir", str(tmp_path / case / f"run{run}")]) == 0
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            assert faults[1] < 1000, (case, faults)


class TestModelFile:
    def test_round_trip_is_exact(self, tmp_path, rng):
        params = randomized(4, seed=8)
        path = tmp_path / "model.txt"
        path.write_text(dumps_model(params, {"target": "bpr", "note": "hello world"}))
        loaded, meta = load_model(path)
        assert np.array_equal(loaded.flatten(), params.flatten())
        assert meta["target"] == "bpr"
        assert meta["note"] == "hello world"

    def test_leading_comment_lines_skipped(self):
        params = init_model(2, seed=0)
        text = "# manifest=abc\n" + dumps_model(params)
        loaded, _ = loads_model(text)
        assert np.array_equal(loaded.flatten(), params.flatten())

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError):
            loads_model("something else\n")

    def test_file_bytes_are_pinned(self):
        # guards the tensor order, the shapes and the init draws
        text = dumps_model(init_model(13, seed=0))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8b5ca0681338a634e3cf83a84aec2157fdb65c6aad114dbfe24f2409b4b3b314")

    def test_zero_input_dim_round_trip(self):
        params = init_model(0, seed=2)
        loaded, _ = loads_model(dumps_model(params))
        assert np.array_equal(loaded.flatten(), params.flatten())

    def test_version_token_must_match_exactly(self):
        text = dumps_model(init_model(2, seed=0))
        for first in ("tonaltension-model v2", "tonaltension-model v1.0",
                      "tonaltension-model", "tonaltension-modelv1"):
            with pytest.raises(ValueError):
                loads_model(text.replace("tonaltension-model v1", first, 1))

    @pytest.mark.parametrize("header", ["input_dim", "hidden", "gate_order"])
    def test_missing_header_rejected(self, header):
        lines = dumps_model(init_model(2, seed=0)).splitlines()
        text = "\n".join(ln for ln in lines if not ln.startswith(header + " "))
        with pytest.raises(ValueError, match=header):
            loads_model(text)

    def test_other_gate_order_rejected(self):
        text = dumps_model(init_model(2, seed=0)).replace(
            "gate_order input,forget,output,candidate",
            "gate_order forget,input,output,candidate")
        with pytest.raises(ValueError, match="gate_order"):
            loads_model(text)

    def test_duplicate_unknown_and_misshapen_tensors_rejected(self):
        lines = dumps_model(init_model(2, seed=0)).splitlines()
        v_line = next(ln for ln in lines if ln.startswith("tensor out.v "))
        cases = {
            "more than once": lines + [v_line],
            "unknown tensor": lines + ["tensor out.w 1 0.5"],
            "shape": [ln.replace("tensor out.v 10 ", "tensor out.v 2x5 ") for ln in lines],
            "values": [ln + " 0.5" if ln == v_line else ln for ln in lines],
        }
        for message, case in cases.items():
            with pytest.raises(ValueError, match=message):
                loads_model("\n".join(case))

    @pytest.mark.parametrize("extra, message", [
        ("input_dim 2", "'input_dim' header line appears more than once"),
        ("hidden 5", "'hidden' header line appears more than once"),
        ("gate_order input,forget,output,candidate",
         "'gate_order' header line appears more than once"),
        ("tonaltension-model v1", "'tonaltension-model' header line appears more than once"),
        ("meta target vel", "meta key 'target' appears more than once"),
        ("foo bar", "unknown header line 'foo bar'"),
    ])
    def test_repeated_and_unknown_header_lines_rejected(self, extra, message):
        lines = dumps_model(init_model(2, seed=0), {"target": "bpr"}).splitlines()
        for at in (1, len(lines)):  # after the magic line, and after the tensors
            with pytest.raises(ValueError, match=message):
                loads_model("\n".join(lines[:at] + [extra] + lines[at:]))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x"])
    def test_non_finite_value_rejected(self, bad):
        text = dumps_model(init_model(2, seed=0))
        lines = text.splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith("tensor bwd.U "))
        cells = lines[k].split(" ")
        cells[5] = bad
        lines[k] = " ".join(cells)
        with pytest.raises(ValueError, match="bwd.U"):
            loads_model("\n".join(lines))

    def test_load_error_names_the_path(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("tonaltension-model v1\ninput_dim 2\n")
        with pytest.raises(ValueError, match="broken.txt: missing 'hidden'"):
            load_model(path)

    def test_undecodable_file_names_the_path(self, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xfftonaltension-model v1\n")
        with pytest.raises(ValueError, match="binary.txt: "):
            load_model(path)
