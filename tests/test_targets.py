import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tonaltension.symbolic import Performance, PerformedNote, group_onsets
from tonaltension.targets import average_onsets, compute_bpr, derivative, targets

from conftest import build_score, metronomic_performance, note


def perf(*notes):
    return Performance(tuple(PerformedNote(*n) for n in notes))


def three_frame_score():
    return build_score([note("a", 0.0, 1.0, 0), note("b", 1.0, 1.0, 1),
                        note("c", 2.0, 1.0, 2)])


class TestAverageOnsets:
    def test_single_note_frame(self):
        score = build_score([note("a", 0.0, 1.0, 0)])
        p = perf(("a", 1.25, 0.5, 64))
        assert average_onsets(p, group_onsets(score)) == [1.25]

    def test_chord_averages(self):
        score = build_score([note("a", 0.0, 1.0, 0), note("b", 0.0, 1.0, 4)])
        p = perf(("a", 1.0, 0.5, 64), ("b", 1.1, 0.5, 64))
        assert average_onsets(p, group_onsets(score)) == [pytest.approx(1.05)]

    def test_three_frames_in_order(self):
        p = perf(("a", 0.0, 0.4, 64), ("b", 0.5, 0.4, 64), ("c", 1.0, 0.4, 64))
        assert average_onsets(p, group_onsets(three_frame_score())) == [0.0, 0.5, 1.0]

    def test_non_increasing_rejected_with_frame(self):
        p = perf(("a", 0.0, 0.4, 64), ("b", 0.5, 0.4, 64), ("c", 0.5, 0.4, 64))
        with pytest.raises(ValueError, match="frame 2"):
            average_onsets(p, group_onsets(three_frame_score()))

    def test_empty_frames_dropped(self):
        p = perf(("a", 0.0, 0.4, 64), ("c", 1.0, 0.4, 64))  # b deleted
        assert average_onsets(p, group_onsets(three_frame_score())) == [0.0, 1.0]


class TestComputeBpr:
    def test_metronomic_is_all_ones(self):
        bpr = compute_bpr([0.0, 0.5, 1.0, 1.5], [0.0, 1.0, 2.0, 3.0])
        assert bpr == [1.0, 1.0, 1.0, 1.0]

    def test_worked_example(self):
        # bp = [0.5, 1.0, 1.0], mean 0.8333..., ratios [0.6, 1.2, 1.2]
        bpr = compute_bpr([0.0, 0.5, 1.5], [0.0, 1.0, 2.0])
        assert bpr == pytest.approx([0.6, 1.2, 1.2])

    def test_time_scaling_cancels(self):
        onsets = [0.0, 0.4, 1.3, 1.5]
        beats = [0.0, 1.0, 2.0, 4.0]
        a = compute_bpr(onsets, beats)
        b = compute_bpr([2 * o for o in onsets], beats)
        assert b == pytest.approx(a, abs=1e-9)

    @given(st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=2, max_size=40))
    def test_mean_is_one_by_construction(self, gaps):
        onsets = list(np.cumsum([0.0] + gaps))
        beats = list(np.arange(len(onsets), dtype=float))
        bpr = compute_bpr(onsets, beats)
        assert np.mean(bpr) == pytest.approx(1.0, abs=1e-9)


class TestDerivative:
    def test_constant_series_is_zero(self):
        assert derivative([2.0, 2.0, 2.0], [0.0, 1.0, 3.0]) == [0.0, 0.0, 0.0]

    def test_two_point_example(self):
        assert derivative([1.0, 1.5], [0.0, 1.0]) == [0.0, 0.5]

    def test_linear_series_constant_after_first(self):
        d = derivative([0.0, 2.0, 4.0, 6.0], [0.0, 1.0, 2.0, 3.0])
        assert d == [0.0, 2.0, 2.0, 2.0]


def vels(performance, score):
    return [r.vel for r in targets(performance, group_onsets(score))]


class TestComputeVel:
    def test_max_per_frame(self):
        score = build_score([note("a", 0.0, 1.0, 0), note("b", 0.0, 1.0, 4),
                             note("c", 1.0, 1.0, 1)])
        p = perf(("a", 0.0, 0.5, 64), ("b", 0.01, 0.5, 80), ("c", 0.5, 0.5, 64))
        assert vels(p, score)[0] == 80 / 127

    def test_saturated(self):
        p = perf(("a", 0.0, 0.5, 127), ("b", 0.5, 0.5, 64), ("c", 1.0, 0.5, 64))
        assert vels(p, three_frame_score())[0] == 1.0

    def test_minimum_velocity(self):
        p = perf(("a", 0.0, 0.5, 1), ("b", 0.5, 0.5, 64), ("c", 1.0, 0.5, 64))
        assert vels(p, three_frame_score())[0] == 1 / 127


class TestVelScaling:
    def test_vel_equivariant_under_velocity_scaling(self):
        score = three_frame_score()
        base = perf(("a", 0.0, 0.4, 10), ("b", 0.5, 0.4, 20), ("c", 1.0, 0.4, 40))
        tripled = perf(("a", 0.0, 0.4, 30), ("b", 0.5, 0.4, 60), ("c", 1.0, 0.4, 120))
        assert vels(tripled, score) == [3 * v for v in vels(base, score)]

    def test_vel_invariant_under_time_scaling(self):
        score = three_frame_score()
        a = perf(("a", 0.0, 0.4, 50), ("b", 0.5, 0.4, 60), ("c", 1.0, 0.4, 70))
        b = perf(("a", 0.0, 0.8, 50), ("b", 1.0, 0.8, 60), ("c", 2.0, 0.8, 70))
        assert vels(a, score) == vels(b, score)


class TestTargets:
    def test_metronomic_flat_velocity(self):
        score = three_frame_score()
        rows = targets(metronomic_performance(score, velocity=90), group_onsets(score))
        assert all(r.bpr == pytest.approx(1.0) for r in rows)
        assert all(r.d_bpr == pytest.approx(0.0) for r in rows)
        assert all(r.vel == 90 / 127 for r in rows)
        assert all(r.d_vel == 0.0 for r in rows)

    def test_composes_component_oracles(self):
        score = three_frame_score()
        p = perf(("a", 0.0, 0.4, 60), ("b", 0.5, 0.4, 70), ("c", 1.5, 0.4, 80))
        rows = targets(p, group_onsets(score))
        bpr = compute_bpr([0.0, 0.5, 1.5], [0.0, 1.0, 2.0])
        assert [r.bpr for r in rows] == pytest.approx(bpr)
        assert [r.vel for r in rows] == [60 / 127, 70 / 127, 80 / 127]
        assert rows[1].d_bpr == pytest.approx(bpr[1] - bpr[0])
        assert rows[1].d_vel == pytest.approx(10 / 127)

    def test_one_frame_rejected(self):
        score = build_score([note("a", 0.0, 1.0, 0)])
        with pytest.raises(ValueError):
            targets(perf(("a", 0.0, 0.5, 64)), group_onsets(score))

    def test_dropped_frames_keep_original_indices(self):
        score = three_frame_score()
        rows = targets(perf(("a", 0.0, 0.4, 64), ("c", 1.0, 0.4, 64)),
                       group_onsets(score))
        assert [r.frame_index for r in rows] == [0, 2]

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.5, max_value=4.0))
    def test_bpr_invariant_under_time_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        notes = [note(f"n{i}", float(i), 1.0, int(rng.integers(-4, 5))) for i in range(n)]
        score = build_score(notes)
        onsets = np.cumsum(rng.uniform(0.2, 1.0, size=n))
        p1 = Performance(tuple(PerformedNote(f"n{i}", float(onsets[i]), 0.3, 64)
                               for i in range(n)))
        p2 = Performance(tuple(PerformedNote(f"n{i}", float(scale * onsets[i]), 0.3, 64)
                               for i in range(n)))
        a = [r.bpr for r in targets(p1, group_onsets(score))]
        b = [r.bpr for r in targets(p2, group_onsets(score))]
        assert b == pytest.approx(a, abs=1e-9)
        assert np.mean(a) == pytest.approx(1.0, abs=1e-9)

    def test_dropped_frames_warned_once(self, caplog):
        score = build_score([note("a", 0.0, 1.0, 0), note("b", 1.0, 1.0, 1),
                             note("c", 2.0, 1.0, 2), note("d", 3.0, 1.0, 3)])
        p = perf(("a", 0.0, 0.4, 64), ("b", 0.5, 0.4, 64), ("d", 1.5, 0.4, 64))
        with caplog.at_level("WARNING", logger="tonaltension.targets"):
            rows = targets(p, group_onsets(score))
        assert [r.frame_index for r in rows] == [0, 1, 3]
        dropping = [r for r in caplog.records if "dropping" in r.getMessage()]
        assert len(dropping) == 1
        assert "dropping 1 frame(s)" in dropping[0].getMessage()


_AVERAGE_CHORD = """
from tonaltension.symbolic import Performance, PerformedNote, Score, group_onsets
from conftest import METER_44, note
from tonaltension.targets import average_onsets
score = Score(tuple(note(i, 0.0, 1.0, t) for i, t in (("a", 0), ("b", 1), ("c", 2))),
              (METER_44,))
p = Performance((PerformedNote("a", 0.1, 0.4, 64), PerformedNote("b", 0.2, 0.4, 64),
                 PerformedNote("c", 0.3, 0.4, 64)))
print(repr(average_onsets(p, group_onsets(score))[0]))
"""


def test_chord_average_ignores_string_hashing():
    # summing a chord's onsets in set order made the last bit depend on
    # PYTHONHASHSEED; score order makes it reproducible across processes
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(here, "..", "src"), here])
    outputs = set()
    for hash_seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", _AVERAGE_CHORD], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(done.stdout.strip())
    assert outputs == {repr((0.1 + 0.2 + 0.3) / 3)}
