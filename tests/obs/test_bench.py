"""Tests for the benchmark trajectory artifact and regression watchdog."""

import json
import math

import pytest

from repro.obs.bench import (
    DEFAULT_THRESHOLD,
    NOISE_FACTOR,
    collect_metrics,
    compare_snapshots,
    consolidate,
    metric_direction,
    render_comparison,
)


class TestMetricDirection:
    @pytest.mark.parametrize(
        "name",
        [
            "observability.overhead_ratio",
            "faults.single_crash.cold.recovery_time",
            "engines.solve_ns",
            "faults.storm.messages_lost",
            "faults.storm.downtime",
        ],
    )
    def test_latency_like_metrics_regress_upward(self, name):
        assert metric_direction(name) == "lower"

    @pytest.mark.parametrize(
        "name",
        [
            "engines.workloads.0.speedup",
            "faults.chaos.retention",
            "engines.base.utility",
            "pipeline.throughput",
        ],
    )
    def test_throughput_like_metrics_regress_downward(self, name):
        assert metric_direction(name) == "higher"

    def test_unrecognized_leaves_are_neutral(self):
        assert metric_direction("engines.workloads.count") == "neutral"

    def test_only_the_leaf_segment_decides(self):
        # "time" in a prefix must not make the leaf latency-like.
        assert metric_direction("time_series.bucket.count") == "neutral"

    @pytest.mark.parametrize(
        "name",
        [
            # Deficit metrics that *mention* a higher-is-better word: the
            # trailing loss/drop tag must win.  Pre-fix these classified
            # "higher", so a growing loss passed the watchdog silently.
            "engines.scale.utility_loss",
            "faults.chaos.retention_drop",
            "sweep.farm.throughput_loss",
            "runtime.messages.drop",
            "runtime.packet_loss",
        ],
    )
    def test_loss_and_drop_are_deficits(self, name):
        assert metric_direction(name) == "lower"

    @pytest.mark.parametrize(
        ("name", "direction"),
        [
            # Suffix tags outrank substring hits in either direction.
            ("engines.total_utility", "higher"),
            ("engines.scale.sparse_speedup", "higher"),
            ("sweep.cache.hits", "higher"),
            ("sweep.cache.misses", "lower"),
            ("sweep.farm.wall_time_seconds", "lower"),
        ],
    )
    def test_match_strength_precedence(self, name, direction):
        assert metric_direction(name) == direction


class TestCollectMetrics:
    def test_flattens_nested_payloads_with_dotted_paths(self):
        payload = {"a": {"b": 1.5, "list": [2, {"c": 3}]}, "top": 4}
        assert collect_metrics(payload) == {
            "a.b": 1.5,
            "a.list.0": 2.0,
            "a.list.1.c": 3.0,
            "top": 4.0,
        }

    def test_skips_bools_strings_and_non_finite(self):
        payload = {"flag": True, "name": "x", "bad": math.inf, "ok": 1.0}
        assert collect_metrics(payload) == {"ok": 1.0}

    def test_null_is_not_a_metric(self):
        assert collect_metrics({"speedup": None, "ok": 1}) == {"ok": 1.0}


class TestConsolidate:
    def test_merges_suites_with_prefixes(self, tmp_path):
        (tmp_path / "BENCH_engines.json").write_text(
            json.dumps({"speedup": 3.5}), encoding="utf-8"
        )
        (tmp_path / "BENCH_faults.json").write_text(
            json.dumps({"retention": 0.99}), encoding="utf-8"
        )
        snapshot = consolidate(tmp_path)
        assert snapshot["version"] == 1
        assert snapshot["suites"] == ["engines", "faults"]
        assert snapshot["metrics"] == {
            "engines.speedup": 3.5,
            "faults.retention": 0.99,
        }

    def test_null_metrics_are_listed_unmeasured(self, tmp_path):
        (tmp_path / "BENCH_sweep.json").write_text(
            json.dumps(
                {"speedup": None, "speedup_reason": "1 core", "rows": [None, 2]}
            ),
            encoding="utf-8",
        )
        snapshot = consolidate(tmp_path)
        assert snapshot["metrics"] == {"sweep.rows.1": 2.0}
        assert snapshot["unmeasured"] == ["sweep.rows.0", "sweep.speedup"]

    def test_corrupt_suite_is_skipped_not_fatal(self, tmp_path):
        (tmp_path / "BENCH_good.json").write_text("{\"x\": 1}", encoding="utf-8")
        (tmp_path / "BENCH_bad.json").write_text("{nope", encoding="utf-8")
        snapshot = consolidate(tmp_path)
        assert snapshot["suites"] == ["good"]
        assert snapshot["skipped"] == ["BENCH_bad.json"]

    def test_existing_trajectory_is_never_folded_in(self, tmp_path):
        (tmp_path / "BENCH_engines.json").write_text("{\"x\": 1}", encoding="utf-8")
        (tmp_path / "BENCH_trajectory.json").write_text(
            json.dumps({"metrics": {"stale": 9.0}}), encoding="utf-8"
        )
        snapshot = consolidate(tmp_path)
        assert "trajectory" not in snapshot["suites"]
        assert "metrics.stale" not in snapshot["metrics"]

    def test_checked_in_trajectory_artifact_is_well_formed(self):
        # Timings in the committed snapshot drift every time a perf suite
        # reruns, so assert shape, not values: same schema consolidate()
        # writes, every metric prefixed by a listed suite, all finite.
        from pathlib import Path

        results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
        committed = json.loads(
            (results / "BENCH_trajectory.json").read_text(encoding="utf-8")
        )
        assert committed["version"] == 1
        assert committed["skipped"] == []
        suites = committed["suites"]
        assert set(suites) >= {"engines", "faults", "observability"}
        metrics = committed["metrics"]
        assert metrics
        assert list(metrics) == sorted(metrics)
        for name, value in metrics.items():
            assert name.split(".", 1)[0] in suites
            assert math.isfinite(value)


def snapshot(**metrics):
    return {"version": 1, "metrics": metrics}


class TestCompareSnapshots:
    def test_identical_snapshots_are_all_stable(self):
        old = snapshot(**{"engines.speedup": 3.0, "faults.retention": 0.99})
        comparison = compare_snapshots(old, old)
        assert comparison.threshold == DEFAULT_THRESHOLD
        assert comparison.regressions == ()
        assert comparison.improvements == ()
        assert comparison.stable == 2

    def test_slow_down_past_threshold_is_a_regression(self):
        old = snapshot(**{"obs.overhead_ratio": 1.0})
        new = snapshot(**{"obs.overhead_ratio": 1.2})
        comparison = compare_snapshots(old, new)
        assert len(comparison.regressions) == 1
        delta = comparison.regressions[0]
        assert delta.name == "obs.overhead_ratio"
        assert delta.change == pytest.approx(0.2)
        assert delta.is_regression

    def test_speedup_drop_is_a_regression_and_gain_an_improvement(self):
        old = snapshot(**{"engines.speedup": 4.0})
        worse = compare_snapshots(old, snapshot(**{"engines.speedup": 3.0}))
        assert len(worse.regressions) == 1
        better = compare_snapshots(old, snapshot(**{"engines.speedup": 5.0}))
        assert better.regressions == ()
        assert len(better.improvements) == 1

    def test_movement_within_threshold_is_stable(self):
        old = snapshot(**{"engines.speedup": 4.0})
        new = snapshot(**{"engines.speedup": 3.8})  # -5%, under 10%
        comparison = compare_snapshots(old, new)
        assert comparison.regressions == ()
        assert comparison.stable == 1

    def test_neutral_metrics_never_regress(self):
        old = snapshot(**{"engines.workloads.count": 3.0})
        new = snapshot(**{"engines.workloads.count": 30.0})
        comparison = compare_snapshots(old, new)
        assert comparison.regressions == ()
        assert len(comparison.changes) == 1
        assert not comparison.changes[0].is_regression

    def test_missing_and_added_metrics_are_reported(self):
        comparison = compare_snapshots(
            snapshot(**{"gone.speedup": 1.0, "both.speedup": 1.0}),
            snapshot(**{"both.speedup": 1.0, "fresh.speedup": 2.0}),
        )
        assert comparison.missing == ("gone.speedup",)
        assert comparison.added == ("fresh.speedup",)

    def test_null_metric_is_skipped_not_diffed(self):
        old = snapshot(**{"sweep.speedup": 0.956, "sweep.hits": 24.0})
        new = {
            "version": 1,
            "metrics": {"sweep.hits": 24.0},
            "unmeasured": ["sweep.speedup"],
        }
        for pair in ((old, new), (new, old)):
            comparison = compare_snapshots(*pair)
            assert comparison.regressions == comparison.improvements == ()
            assert comparison.missing == comparison.added == ()
            assert comparison.unmeasured == ("sweep.speedup",)
        assert "unmeasured (skipped): sweep.speedup" in render_comparison(
            compare_snapshots(old, new)
        )

    def test_null_in_raw_payload_is_skipped(self):
        comparison = compare_snapshots({"speedup": 0.956}, {"speedup": None})
        assert comparison.regressions == ()
        assert comparison.missing == ()
        assert comparison.to_dict()["unmeasured"] == ["speedup"]

    def test_growth_from_zero_is_infinite_change(self):
        comparison = compare_snapshots(
            snapshot(**{"faults.downtime": 0.0}),
            snapshot(**{"faults.downtime": 5.0}),
        )
        assert len(comparison.regressions) == 1
        assert math.isinf(comparison.regressions[0].change)

    def test_raw_bench_payloads_are_accepted_directly(self):
        old = {"speedup": 4.0}  # no "metrics" wrapper
        new = {"speedup": 2.0}
        comparison = compare_snapshots(old, new)
        assert len(comparison.regressions) == 1

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_snapshots(snapshot(), snapshot(), threshold=0.0)

    def test_regressions_sort_by_magnitude(self):
        old = snapshot(**{"a.speedup": 4.0, "b.speedup": 4.0})
        new = snapshot(**{"a.speedup": 3.0, "b.speedup": 1.0})
        comparison = compare_snapshots(old, new)
        assert [d.name for d in comparison.regressions] == ["b.speedup", "a.speedup"]

    def test_to_dict_is_json_ready(self):
        comparison = compare_snapshots(
            snapshot(**{"a.speedup": 4.0}), snapshot(**{"a.speedup": 1.0})
        )
        payload = comparison.to_dict()
        assert payload["regressions"][0]["metric"] == "a.speedup"
        json.dumps(payload)


class TestNoiseAwareCompare:
    """A metric archived with a sibling ``<metric>_iqr`` is judged against
    old median ± k·IQR; one without keeps the flat relative threshold."""

    def test_move_inside_recorded_spread_is_noise(self):
        # +30% relative, but within 1.5 x IQR of 40: stable.
        old = snapshot(**{"obs.step_ns": 100.0, "obs.step_ns_iqr": 40.0})
        new = snapshot(**{"obs.step_ns": 130.0, "obs.step_ns_iqr": 35.0})
        comparison = compare_snapshots(old, new)
        assert comparison.regressions == ()
        assert comparison.stable == 1

    def test_move_outside_recorded_spread_is_flagged(self):
        # +5% relative, under the flat 10%, but outside 1.5 x IQR of 2.
        old = snapshot(**{"obs.step_ns": 100.0, "obs.step_ns_iqr": 2.0})
        new = snapshot(**{"obs.step_ns": 105.0, "obs.step_ns_iqr": 2.0})
        comparison = compare_snapshots(old, new)
        (delta,) = comparison.regressions
        assert delta.name == "obs.step_ns"
        assert delta.spread == 2.0
        assert "outside ±1.5 x IQR 2" in render_comparison(comparison)
        assert comparison.to_dict()["regressions"][0]["spread"] == 2.0

    def test_improvement_outside_spread_is_reported(self):
        old = snapshot(**{"obs.step_ns": 100.0, "obs.step_ns_iqr": 2.0})
        new = snapshot(**{"obs.step_ns": 90.0})
        comparison = compare_snapshots(old, new)
        assert [d.name for d in comparison.improvements] == ["obs.step_ns"]

    def test_without_spread_the_flat_threshold_applies(self):
        old = snapshot(**{"obs.step_ns": 100.0, "other.step_ns": 100.0,
                          "other.step_ns_iqr": 50.0})
        new = snapshot(**{"obs.step_ns": 105.0, "other.step_ns": 105.0})
        assert compare_snapshots(old, new).regressions == ()
        new = snapshot(**{"obs.step_ns": 130.0, "other.step_ns": 130.0})
        comparison = compare_snapshots(old, new)
        assert [d.name for d in comparison.regressions] == ["obs.step_ns"]
        assert comparison.regressions[0].spread is None

    def test_spread_only_in_new_snapshot_is_ignored(self):
        # A noisy candidate cannot widen its own band: the flat 10% holds.
        old = snapshot(**{"obs.step_ns": 100.0})
        new = snapshot(**{"obs.step_ns": 120.0, "obs.step_ns_iqr": 20.0})
        (delta,) = compare_snapshots(old, new).regressions
        assert delta.spread is None

    def test_spread_leaves_are_not_metrics(self):
        old = snapshot(**{"obs.step_ns": 100.0, "obs.step_ns_iqr": 1.0})
        new = snapshot(**{"obs.step_ns": 100.0, "obs.step_ns_iqr": 9.0})
        comparison = compare_snapshots(old, new)
        assert comparison.stable == 1
        assert comparison.regressions == comparison.changes == ()
        assert comparison.missing == comparison.added == ()

    def test_band_is_noise_factor_iqrs_wide(self):
        old = snapshot(**{"obs.step_ns": 100.0, "obs.step_ns_iqr": 10.0})
        edge = 100.0 + NOISE_FACTOR * 10.0
        assert compare_snapshots(old, snapshot(**{"obs.step_ns": edge})).regressions == ()
        beyond = snapshot(**{"obs.step_ns": edge + 1.0})
        assert len(compare_snapshots(old, beyond).regressions) == 1


class TestRenderComparison:
    def test_summary_line_counts_each_bucket(self):
        comparison = compare_snapshots(
            snapshot(**{"a.speedup": 4.0, "b.count": 1.0, "c.speedup": 2.0}),
            snapshot(**{"a.speedup": 1.0, "b.count": 9.0, "c.speedup": 4.0}),
        )
        text = render_comparison(comparison)
        assert "1 regression(s), 1 improvement(s), 1 neutral change(s)" in text
        assert "a.speedup: 4 -> 1" in text
        assert "worse" in text and "better" in text and "moved" in text

    def test_missing_and_added_render(self):
        comparison = compare_snapshots(
            snapshot(**{"gone.x": 1.0}), snapshot(**{"new.x": 1.0})
        )
        text = render_comparison(comparison)
        assert "missing in new: gone.x" in text
        assert "added in new: new.x" in text


class TestRegressionBlame:
    def _snapshots(self):
        old = snapshot(**{
            "profile.wall_time_seconds": 1.0,
            "profile.phases.solve.iteration.argmax.self_seconds": 0.40,
            "profile.phases.solve.iteration.admission.self_seconds": 0.30,
            "profile.phases.solve.iteration.price_update.self_seconds": 0.20,
        })
        new = snapshot(**{
            "profile.wall_time_seconds": 1.5,
            "profile.phases.solve.iteration.argmax.self_seconds": 0.41,
            "profile.phases.solve.iteration.admission.self_seconds": 0.78,
            "profile.phases.solve.iteration.price_update.self_seconds": 0.19,
        })
        return old, new

    def test_wall_clock_regression_ranks_grown_phases(self):
        comparison = compare_snapshots(*self._snapshots())
        assert [d.name for d in comparison.regressions] == [
            "profile.wall_time_seconds"
        ]
        phases = [entry.phase for entry in comparison.blame]
        assert phases[0] == "solve.iteration.admission"
        assert "solve.iteration.price_update" not in phases  # shrank
        top = comparison.blame[0]
        assert top.delta_seconds == pytest.approx(0.48)
        assert top.change == pytest.approx(1.6)

    def test_no_regression_means_no_blame(self):
        old, _ = self._snapshots()
        comparison = compare_snapshots(old, old)
        assert comparison.blame == ()

    def test_self_seconds_leaves_are_not_themselves_watchdogged(self):
        # Phase timings move with machine load; only the blame ranking
        # may interpret them, never the generic regression scan.
        assert (
            metric_direction(
                "profile.phases.solve.iteration.argmax.self_seconds"
            )
            == "neutral"
        )
        old, new = self._snapshots()
        comparison = compare_snapshots(old, new)
        assert all(
            not d.name.endswith(".self_seconds") for d in comparison.regressions
        )

    def test_throughput_only_regressions_skip_blame(self):
        old = snapshot(**{
            "engines.speedup": 4.0,
            "profile.phases.solve.self_seconds": 0.5,
        })
        new = snapshot(**{
            "engines.speedup": 2.0,
            "profile.phases.solve.self_seconds": 0.9,
        })
        comparison = compare_snapshots(old, new)
        assert len(comparison.regressions) == 1
        assert comparison.blame == ()

    def test_phase_present_in_only_one_snapshot_is_not_blamed(self):
        old = snapshot(**{
            "profile.wall_time_seconds": 1.0,
            "profile.phases.old_phase.self_seconds": 0.5,
        })
        new = snapshot(**{
            "profile.wall_time_seconds": 2.0,
            "profile.phases.new_phase.self_seconds": 1.5,
        })
        comparison = compare_snapshots(old, new)
        assert comparison.regressions
        assert comparison.blame == ()

    def test_blame_is_capped_at_five_phases(self):
        metrics_old = {"suite.wall_time_seconds": 1.0}
        metrics_new = {"suite.wall_time_seconds": 2.0}
        for index in range(8):
            name = f"suite.phases.p{index}.self_seconds"
            metrics_old[name] = 0.1
            metrics_new[name] = 0.2 + index * 0.01
        comparison = compare_snapshots(
            snapshot(**metrics_old), snapshot(**metrics_new)
        )
        assert len(comparison.blame) == 5
        assert comparison.blame[0].phase == "p7"  # largest absolute growth

    def test_blame_renders_and_serializes(self):
        comparison = compare_snapshots(*self._snapshots())
        text = render_comparison(comparison)
        assert "regression blame" in text
        assert "solve.iteration.admission" in text
        payload = comparison.to_dict()
        assert payload["blame"][0]["phase"] == "solve.iteration.admission"
        json.dumps(payload)
