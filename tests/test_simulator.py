"""Synthetic deployment generator: determinism, structure, drift mechanics."""

import math
import mmap
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from riskwatch.calibration import auc
from riskwatch import simulator
from riskwatch.errors import BadConfig, UnknownPreset
from riskwatch.simulator import (
    ACT,
    MONITOR,
    ScenarioConfig,
    _exp,
    _ndtri,
    canonical_scenario,
    generate,
    generate_arrays,
    prevalence_at,
    preset,
    preset_names,
    scenario_pairs,
    stationary_control,
)


# draws the canonical scenario and prints its output bytes and how far VmRSS
# fell when the draw was deleted
RSS_CHILD = """
from riskwatch.simulator import canonical_scenario, generate_arrays

def rss():
    with open("/proc/self/status") as fp:
        return next(int(line.split()[1]) * 1024 for line in fp if line.startswith("VmRSS:"))

arrays = generate_arrays(canonical_scenario())
size = sum(arr.nbytes for arr in arrays.values())
before = rss()
del arrays
print(size, before - rss())
"""


def small(**over):
    base = dict(periods=4, patients_per_period=300, seed=9)
    base.update(over)
    return replace(canonical_scenario(), **base)


class TestPeriodStreaming:
    """generate_arrays, generate and scenario_pairs read the one row stream
    of each period's draw."""

    @pytest.mark.parametrize("config", [
        small(),
        replace(preset("icu_tail"), periods=3, patients_per_period=777, seed=4),
    ], ids=["canonical", "icu_tail"])
    def test_arrays_are_the_period_chunks_concatenated(self, config):
        chunks = [list(simulator._period_rows(config, m)) for m in range(1, config.periods + 1)]
        assert [[row[0] for row in c] for c in chunks] == [
            [m] * config.patients_per_period for m in range(1, config.periods + 1)]
        whole = generate_arrays(config)
        for j, (key, arr) in enumerate(whole.items()):
            joined = [row[j] for c in chunks for row in c]
            kind = int if key in ("period", "y", "action") else float
            assert {type(v) for v in joined} == {kind}, key  # plain Python numbers
            assert arr.dtype == (np.int64 if kind is int else np.float64), key
            assert arr.tolist() == joined, key

    def test_generate_is_the_row_builder(self):
        config = small()
        out = generate(config)
        arrays = generate_arrays(config)
        rows = zip(*(column.tolist() for column in arrays.values()))
        pairs = [simulator._records(i, row) for i, row in enumerate(rows)]
        assert out.events == tuple(e for e, _ in pairs)
        assert out.outcomes == tuple(o for _, o in pairs)
        assert out.truth == tuple(arrays["true_prob"].tolist())
        assert [e.event_id for e in out.events[:2]] == ["ev-000000", "ev-000001"]
        assert {e.model_version for e in out.events} == {"frozen-v1"}

    @pytest.mark.parametrize("name", preset_names())
    def test_arrays_are_the_generated_records(self, name):
        # icu_tail draws a tail uniform on some rows, oncology_regret
        # escalates the missed-positive harm
        config = replace(preset(name), periods=3, patients_per_period=150, seed=5)
        arrays = generate_arrays(config)
        out = generate(config)
        assert list(arrays) == ["period", "y", "true_prob", "pred_prob", "loss",
                                "loss_monitor", "loss_act", "action"]
        for key, arr in arrays.items():
            assert arr.dtype == (np.int64 if key in ("period", "y", "action") else np.float64)
            assert arr.shape == (len(out.events),), key
        assert arrays["period"].tolist() == [e.time.period for e in out.events]
        assert arrays["pred_prob"].tolist() == [e.predicted_prob for e in out.events]
        assert arrays["action"].tolist() == [e.action_id for e in out.events]
        assert arrays["y"].tolist() == [o.outcome for o in out.outcomes]
        assert arrays["loss"].tolist() == [o.loss for o in out.outcomes]
        assert arrays["loss_monitor"].tolist() == [o.alt_losses[MONITOR] for o in out.outcomes]
        assert arrays["loss_act"].tolist() == [o.alt_losses[ACT] for o in out.outcomes]
        assert arrays["true_prob"].tolist() == list(out.truth)
        assert list(scenario_pairs(config)) == list(zip(out.events, out.outcomes))

    def test_streamed_pairs_number_rows_across_periods(self):
        out = generate(small())
        pairs = list(scenario_pairs(small()))
        assert [e for e, _ in pairs] == list(out.events)
        assert [o for _, o in pairs] == list(out.outcomes)
        assert [e.time.sequence for e in out.events] == list(range(len(pairs)))
        assert pairs[300][0].event_id == "ev-000300"  # first row of period 2

    def test_pairs_hold_under_128_bytes_per_row_of_a_period(self):
        # scenario_pairs keeps a period's outcomes and latent scores, not
        # its output columns: draining two periods, each pair dropped as it
        # comes, peaks at a few typed arrays of the period
        n = 20_000
        config = small(periods=2, patients_per_period=n)
        list(scenario_pairs(small(periods=1, patients_per_period=10)))  # lazy imports
        tracemalloc.start()
        try:
            for pair in scenario_pairs(config):
                del pair
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * n, peak / n

    def test_arrays_peak_under_1_5_times_their_bytes(self):
        # generate_arrays writes each row into the one mapping per column it
        # hands out: beside those, a period's outcomes and latent scores.
        # tracemalloc sees no mapped page, so the mappings are added to its peak
        config = small(periods=2, patients_per_period=20_000)
        generate_arrays(small(periods=1, patients_per_period=10))  # lazy imports
        tracemalloc.start()
        try:
            arrays = generate_arrays(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for key, arr in arrays.items():
            assert isinstance(arr.base.obj, mmap.mmap), key
            assert len(arr.base.obj) == arr.nbytes, key
        size = sum(arr.nbytes for arr in arrays.values())
        assert size == 8 * 8 * 40_000
        assert peak + size < 1.5 * size, (peak + size) / size

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads VmRSS from /proc/self/status")
    def test_dropped_draw_gives_its_pages_back(self):
        # in a fresh interpreter numpy first loads inside the call, which
        # raises glibc's mmap threshold above a canonical column's 192 KB: a
        # column taken from malloc would then stay in the heap once dropped
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", RSS_CHILD], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        size, fell = map(int, proc.stdout.split())
        assert size == 8 * 8 * 24_000
        assert fell >= 0.9 * size, fell / size

    def test_arrays_are_writable_views_of_their_buffers(self):
        arrays = generate_arrays(small())
        for key, arr in arrays.items():
            assert arr.flags.writeable and not arr.flags.owndata, key
        arrays["loss"][0] = -1.0
        assert arrays["loss"][0] == -1.0


class TestDeterminism:
    def test_same_seed_same_output(self):
        a, b = generate_arrays(small()), generate_arrays(small())
        assert list(a) == list(b)
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_seed_changes_output(self):
        a = generate_arrays(small(seed=1))
        b = generate_arrays(small(seed=2))
        assert not np.array_equal(a["pred_prob"], b["pred_prob"])

    def test_each_period_draws_from_its_own_string_seeded_stream(self, monkeypatch):
        seeds = []

        class Recorded(random.Random):
            def seed(self, a=None, version=2):
                seeds.append(a)
                super().seed(a, version)

        monkeypatch.setattr(simulator, "Random", Recorded)
        generate_arrays(small(seed=12))
        assert seeds == ["12:1", "12:2", "12:3", "12:4"]

    def test_events_deterministic_end_to_end(self):
        x = generate(small())
        y = generate(small())
        assert x.events == y.events
        assert x.outcomes == y.outcomes


class TestStructure:
    def test_counts_and_ids(self):
        cfg = small()
        out = generate(cfg)
        assert len(out.events) == cfg.periods * cfg.patients_per_period
        assert len(out.outcomes) == len(out.events)
        ids = [e.event_id for e in out.events]
        assert len(set(ids)) == len(ids)
        # outcome i belongs to event i
        assert all(e.event_id == o.event_id
                   for e, o in zip(out.events, out.outcomes))

    def test_sequences_strictly_increase(self):
        out = generate(small())
        seqs = [e.time.sequence for e in out.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_periods_nondecreasing_and_complete(self):
        cfg = small()
        out = generate(cfg)
        periods = [e.time.period for e in out.events]
        assert periods == sorted(periods)
        assert set(periods) == set(range(1, cfg.periods + 1))

    def test_probabilities_valid(self):
        arrs = generate_arrays(small())
        assert np.all((arrs["pred_prob"] >= 0) & (arrs["pred_prob"] <= 1))
        assert np.all((arrs["true_prob"] >= 0) & (arrs["true_prob"] <= 1))
        assert set(np.unique(arrs["y"])).issubset({0, 1})

    def test_losses_nonnegative(self):
        arrs = generate_arrays(small())
        assert np.all(arrs["loss"] >= 0)
        assert np.all(arrs["loss_monitor"] >= 0)
        assert np.all(arrs["loss_act"] >= 0)

    def test_loss_is_chosen_alt_loss_exactly(self):
        out = generate(small())
        for event, outcome in zip(out.events, out.outcomes):
            assert outcome.alt_losses is not None
            assert len(outcome.alt_losses) == 2
            assert event.action_id in (MONITOR, ACT)
            assert outcome.loss == outcome.alt_losses[event.action_id]

    def test_action_follows_threshold(self):
        cfg = small()
        out = generate(cfg)
        for ev in out.events:
            expected = ACT if ev.predicted_prob >= cfg.act_threshold else MONITOR
            assert ev.action_id == expected


class TestPrevalenceSchedule:
    def test_flat_before_drift(self):
        cfg = canonical_scenario()
        for m in range(1, cfg.drift_start_period + 1):
            assert prevalence_at(cfg, m) == cfg.base_prevalence

    def test_linear_ramp_hits_final(self):
        cfg = canonical_scenario()
        assert prevalence_at(cfg, cfg.periods) == pytest.approx(
            cfg.final_prevalence
        )
        # strictly increasing across the ramp
        ramp = [prevalence_at(cfg, m)
                for m in range(cfg.drift_start_period, cfg.periods + 1)]
        assert all(b > a for a, b in zip(ramp, ramp[1:]))

    def test_stationary_control_is_flat(self):
        cfg = stationary_control()
        values = {prevalence_at(cfg, m) for m in range(1, cfg.periods + 1)}
        assert values == {cfg.base_prevalence}


class TestDriftMechanics:
    def test_distortion_preserves_auc_exactly(self):
        """The miscalibration shift is monotone in the latent score, so
        predicted and true probabilities rank patients identically."""
        arrs = generate_arrays(replace(canonical_scenario(), periods=8))
        for m in (1, 5, 8):
            mask = arrs["period"] == m
            a_pred = auc(arrs["pred_prob"][mask], arrs["y"][mask])
            a_true = auc(arrs["true_prob"][mask], arrs["y"][mask])
            assert a_pred == a_true

    def test_no_distortion_before_drift_start(self):
        arrs = generate_arrays(canonical_scenario())
        cfg = canonical_scenario()
        pre = arrs["period"] <= cfg.drift_start_period
        # before drift: the model is calibrated up to prevalence (no logit
        # shift) and prevalence equals the frozen training value
        gaps = np.abs(arrs["pred_prob"][pre] - arrs["true_prob"][pre])
        assert gaps.max() < 1e-12

    def test_miscalibration_grows_after_drift(self):
        arrs = generate_arrays(canonical_scenario())
        mean_gap = []
        for m in range(5, 13):
            mask = arrs["period"] == m
            mean_gap.append(
                float(np.mean(arrs["true_prob"][mask] - arrs["pred_prob"][mask]))
            )
        assert all(b > a for a, b in zip(mean_gap, mean_gap[1:]))


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(BadConfig):
            ScenarioConfig(periods=0)
        with pytest.raises(BadConfig):
            ScenarioConfig(base_prevalence=0.0)
        with pytest.raises(BadConfig):
            ScenarioConfig(final_prevalence=1.2)
        with pytest.raises(BadConfig):
            ScenarioConfig(patients_per_period=0)
        with pytest.raises(BadConfig):
            ScenarioConfig(act_threshold=1.5)
        with pytest.raises(BadConfig):
            ScenarioConfig(tail_fraction=0.1, tail_scale=0.0)
        for settings in [{"drift_start_period": 0}, {"class_separation": 0.0},
                         {"miscalibration_gain": -0.1}, {"loss_w_fn": -1.0},
                         {"loss_w_fp": -1.0}, {"harm_cap": -1.0},
                         {"baseline_harm_scale": -1.0}, {"intervention_cost": -1.0},
                         {"tail_fraction": 1.0}, {"tail_fraction": -0.1},
                         {"regret_escalation": -0.5}]:
            with pytest.raises(BadConfig, match=next(iter(settings))):
                ScenarioConfig(**settings)

    @pytest.mark.parametrize("settings", [
        {"patients_per_period": 100.5},
        {"periods": 2.0},
        {"patients_per_period": "100"},
        {"periods": True},
        {"drift_start_period": 4.0},
        {"seed": -3},
        {"seed": False},
        {"class_separation": float("nan")},
        {"loss_w_fn": float("nan")},
        {"miscalibration_gain": float("inf")},
        {"base_prevalence": "0.1"},
        {"tail_scale": True},
    ], ids=repr)
    def test_bad_types_and_non_finite_values_rejected(self, settings):
        with pytest.raises(BadConfig):
            ScenarioConfig(**settings)

    @pytest.mark.parametrize("draw", [generate_arrays, scenario_pairs, generate],
                             ids=lambda f: f.__name__)
    def test_seed_comes_only_from_the_checked_config(self, draw):
        # replace(config, seed=s) is the route that goes through the checks
        with pytest.raises(TypeError):
            draw(small(), seed=3)

    def test_whole_numbers_accepted_for_float_fields(self):
        assert ScenarioConfig(loss_w_fn=1, tail_fraction=0).loss_w_fn == 1

    def test_drift_start_beyond_horizon_means_no_drift(self):
        # legal config: the ramp simply never arrives in the window
        cfg = ScenarioConfig(periods=3, drift_start_period=10)
        assert all(prevalence_at(cfg, m) == cfg.base_prevalence
                   for m in range(1, 4))

    def test_presets(self):
        assert set(preset_names()) == {
            "sepsis_drift", "icu_tail", "oncology_regret"
        }
        for name in preset_names():
            cfg = preset(name)
            assert isinstance(cfg, ScenarioConfig)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("nope")

    def test_icu_tail_has_heavy_tail_knobs(self):
        cfg = preset("icu_tail")
        assert cfg.tail_fraction > 0
        assert cfg.miscalibration_gain == 0.0

    def test_oncology_regret_escalates(self):
        assert preset("oncology_regret").regret_escalation > 0


class TestTailPreset:
    def test_heavy_tail_raises_cvar_not_median(self):
        from riskwatch.tailrisk import cvar_tail, var

        base = generate_arrays(replace(preset("icu_tail"),
                                       tail_fraction=0.0, periods=3, seed=4))
        heavy = generate_arrays(replace(preset("icu_tail"),
                                        tail_fraction=0.05, periods=3, seed=4))
        assert cvar_tail(heavy["loss"], 0.95) > cvar_tail(base["loss"], 0.95)
        assert abs(var(heavy["loss"], 0.5) - var(base["loss"], 0.5)) < 0.05


class TestNdtri:
    """_ndtri is statistics.NormalDist's inv_cdf, finite at the ends of the
    draw's clamp and NaN through, and stays within a few ulps of
    scipy.special.ndtri."""

    def test_inv_cdf_within_8_ulps_of_scipy(self):
        from statistics import NormalDist

        from scipy.special import ndtri  # the oracle

        rng = np.random.default_rng(2024)
        tails = 10.0 ** rng.uniform(-300.0, 0.0, 100_000)
        edges = []
        for c in (math.exp(-2), 1.0 - math.exp(-2), math.exp(-32)):
            for toward in (0.0, 1.0):
                v = c
                for _ in range(5):  # c itself and 4 ulps on each side
                    edges.append(v)
                    v = math.nextafter(v, toward)
        strata = [(np.arange(n) + rng.random(n)) / n
                  for n in (1, 2, 3, 7, 1000, 20000)]
        p = np.concatenate([
            rng.random(1_000_000), tails, 1.0 - tails, edges, [5e-324], *strata,
        ])
        p = p[(p > 0.0) & (p < 1.0)]
        got = np.array([_ndtri(v) for v in p.tolist()])
        inv_cdf = NormalDist().inv_cdf
        assert got.tolist() == [inv_cdf(v) for v in p.tolist()]
        want = ndtri(p)
        # for floats of one sign, the distance in ulps is the gap in their bits
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 8, (p[ulps.argmax()], ulps.max())

    def test_equals_inv_cdf_bit_for_bit_by_either_route(self, monkeypatch):
        # _ndtri calls the C function that inv_cdf wraps, or, where there is
        # no _statistics, inv_cdf itself; both give inv_cdf's bits, at the
        # ends of the draw's clamp, at AS241's region edges and for NaN
        from statistics import NormalDist

        inv_cdf = NormalDist().inv_cdf
        edges = [q for c in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0))
                 for q in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0))]
        grid = [simulator._LOWEST, simulator._HIGHEST, math.nan, 1e-300, 0.5, *edges,
                *((j + 0.5) / 1000 for j in range(1000))]

        def bits(f):
            return [struct.pack("<d", f(p)) for p in grid]

        assert bits(_ndtri) == bits(inv_cdf)
        monkeypatch.setitem(sys.modules, "_statistics", None)  # its import then fails
        assert bits(simulator._standard_normal.__wrapped__()) == bits(inv_cdf)

    def test_ends_and_nan(self):
        assert math.isnan(_ndtri(math.nan))
        assert math.isfinite(_ndtri(5e-324)) and math.isfinite(_ndtri(math.nextafter(1.0, 0.0)))


class TestLibmExp:
    """_exp is libm's exp, with inf past the float range."""

    def test_equals_math_exp_and_overflows_to_inf(self):
        x = [-1000.0, -1.5, 0.0, 0.5, 709.0, 710.0, 1e308, math.inf, -math.inf]
        assert [_exp(v) for v in x[:5]] == [math.exp(v) for v in x[:5]]
        assert [_exp(v) for v in x[5:]] == [math.inf, math.inf, math.inf, 0.0]
        assert math.isnan(_exp(math.nan))

    def test_a_scenario_past_the_float_range_still_draws(self):
        # class_separation 60 puts the log-odds near -1800: exp overflows
        arrays = generate_arrays(small(class_separation=60.0, periods=1))
        assert np.isin(arrays["pred_prob"], (0.0, 1.0)).any()
        assert ((arrays["pred_prob"] >= 0.0) & (arrays["pred_prob"] <= 1.0)).all()


class TestUniformEnds:
    """Random.random() returns floats in [0, 1): a draw made of its ends,
    0.0 and the float below 1, at every call still gives finite
    probabilities and losses, since no uniform reaches inv_cdf's ends."""

    @pytest.mark.parametrize("values", [
        (0.0,), (math.nextafter(1.0, 0.0),), (0.0, math.nextafter(1.0, 0.0)),
    ], ids=["zero", "below-one", "alternating"])
    @pytest.mark.parametrize("config", [
        small(periods=6, patients_per_period=50),
        replace(preset("icu_tail"), periods=2, patients_per_period=50),
        replace(preset("oncology_regret"), periods=6, patients_per_period=50,
                drift_start_period=1),
        small(class_separation=60.0, periods=1, patients_per_period=50),
    ], ids=["canonical", "icu_tail", "oncology_regret", "separation-60"])
    def test_extreme_uniforms_give_finite_draws(self, monkeypatch, values, config):
        class Extreme(random.Random):
            def random(self):
                self.calls = getattr(self, "calls", -1) + 1
                return values[self.calls % len(values)]

        monkeypatch.setattr(simulator, "Random", Extreme)
        arrays = generate_arrays(config)
        assert arrays["period"].tolist() == [
            m for m in range(1, config.periods + 1) for _ in range(config.patients_per_period)]
        for key in ("true_prob", "pred_prob"):
            assert ((arrays[key] >= 0.0) & (arrays[key] <= 1.0)).all(), key
        for key in ("loss", "loss_monitor", "loss_act"):
            assert (np.isfinite(arrays[key]) & (arrays[key] >= 0.0)).all(), key
        assert set(arrays["y"].tolist()) <= {0, 1}
