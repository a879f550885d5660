from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from squintsim import experiments
from squintsim.channel import ChannelRealization, build_frequency_grid, gen_channels, sample_path_set
from squintsim.experiments import (
    FIGURES,
    LOS,
    NLOS,
    NLOS_PATHS,
    SCHEMES,
    SWEEP_GRIDS,
    ScenarioConfig,
    central_subcarrier_index,
    figure_sweep,
    per_trial_rates,
    run_sweep,
    schemes_for,
)

from reference import reference_profile

SMALL_LOS = ScenarioConfig(
    scenario=LOS,
    num_subcarriers=16,
    num_bs_antennas=4,
    num_ris_elements=8,
    trials=12,
    seed=42,
)
SMALL_NLOS = ScenarioConfig(
    scenario=NLOS,
    num_subcarriers=16,
    num_bs_antennas=4,
    num_ris_elements=8,
    num_paths=3,
    trials=12,
    seed=42,
)


class TestScenarioConfig:
    def test_defaults_match_operating_point(self):
        cfg = ScenarioConfig()
        assert cfg.carrier_hz == 28e9
        assert cfg.bandwidth_hz == 2e9
        assert cfg.num_subcarriers == 128
        assert cfg.num_bs_antennas == 64
        assert cfg.num_ris_elements == 64
        assert cfg.num_paths == 1
        assert cfg.gain_mode == "random"

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ScenarioConfig(trials=0)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="urban")

    def test_rejects_unknown_gain_mode(self):
        with pytest.raises(ValueError):
            ScenarioConfig(gain_mode="rayleigh")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("snr_db", float("nan")),
            ("snr_db", float("inf")),
            ("snr_db", 4000.0),
            ("snr_db", 3083.0),
            ("snr_db", -4000.0),
            ("snr_db", -3240.0),
            ("carrier_hz", 0.0),
            ("bandwidth_hz", float("nan")),
            ("bandwidth_hz", -1e9),
            ("bandwidth_hz", 56e9),
            ("num_subcarriers", 0),
            ("num_subcarriers", 2.5),
            ("num_bs_antennas", -3),
            ("num_ris_elements", 0),
            ("num_paths", 0),
            ("num_paths", 9),
            ("num_paths", 2),
            ("num_ris_elements", 1 << 20),
            ("num_subcarriers", 1 << 19),
            ("seed", -1),
            ("seed", 2**64),
            ("seed", 1.5),
        ],
    )
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("carrier_hz", "x"),
            ("snr_db", "x"),
            ("bandwidth_hz", None),
            ("trials", True),
            ("num_ris_elements", True),
            ("seed", True),
        ],
    )
    def test_rejects_wrong_type_with_its_own_rule(self, field, value):
        # A non-number must not reach a comparison, and bool is no integer here.
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ScenarioConfig(**{field: value})

    def test_accepts_numpy_scalars(self):
        cfg = ScenarioConfig(carrier_hz=np.float64(28e9), trials=np.int64(3), seed=np.uint64(7))
        assert (cfg.carrier_hz, cfg.trials, cfg.seed) == (28e9, 3, 7)

    def test_accepts_largest_seed(self):
        assert ScenarioConfig(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("snr_db", [3082.0, -3233.0])
    def test_accepts_extreme_snr_with_finite_positive_linear_value(self, snr_db):
        # The same conversion the sweep applies to every SNR point.
        snr = experiments._snr_linear(ScenarioConfig(snr_db=snr_db).snr_db)
        assert 0 < snr < float("inf")

    def test_snr_linear(self):
        assert experiments._snr_linear(10.0) == pytest.approx(10.0, rel=1e-12)
        assert experiments._snr_linear(0.0) == pytest.approx(1.0, rel=1e-12)

    def test_scenario_sets_the_default_path_count(self):
        assert ScenarioConfig(scenario=LOS).num_paths == 1
        assert ScenarioConfig(scenario=NLOS).num_paths == NLOS_PATHS == 5
        assert ScenarioConfig(scenario=NLOS, num_paths=9).num_paths == 9

    def test_los_takes_exactly_one_path(self):
        assert ScenarioConfig(scenario=LOS, num_paths=1).num_paths == 1
        for num_paths in (NLOS_PATHS, 9):
            with pytest.raises(ValueError, match=f"num_paths must be an integer >= 1, and 1 on los, got {num_paths}$"):
                ScenarioConfig(scenario=LOS, num_paths=num_paths)

    def test_replace_keeps_the_path_count(self):
        # The count is set at construction, so a later scenario change carries it over.
        assert replace(ScenarioConfig(scenario=LOS), scenario=NLOS).num_paths == 1
        with pytest.raises(ValueError, match="1 on los, got 5"):
            replace(ScenarioConfig(scenario=NLOS), scenario=LOS)

    def test_working_set_bound_is_checked_on_the_sizes_alone(self):
        # Only K*M is compared; a config at the bound allocates nothing.
        limit = experiments.MAX_TABLE_ENTRIES
        assert ScenarioConfig(num_subcarriers=limit // 64, num_ris_elements=64).num_subcarriers == limit // 64
        assert ScenarioConfig(num_subcarriers=1, num_ris_elements=limit).num_ris_elements == limit
        with pytest.raises(ValueError, match=f"num_subcarriers \\* num_ris_elements <= {limit}, got 64"):
            ScenarioConfig(num_subcarriers=limit // 64 + 1, num_ris_elements=64)
        with pytest.raises(ValueError, match="num_ris_elements must be"):
            ScenarioConfig(num_subcarriers=1, num_ris_elements=limit + 1)


def point_stats(config, scheme):
    """Mean rate and standard error of one (scheme, sweep point) cell."""
    (row,) = run_sweep(config, (scheme,), "snr_db", (config.snr_db,))
    return row.mean_rate_bits, row.std_error_bits


class TestRunPoint:
    def test_unit_gain_ideal_is_deterministic_closed_form(self):
        cfg = ScenarioConfig(
            scenario=LOS, num_subcarriers=16, num_bs_antennas=4, num_ris_elements=8,
            trials=6, seed=1, gain_mode="unit",
        )
        mean, std_error = point_stats(cfg, "ideal")
        assert mean == pytest.approx(np.log2(1 + 10.0 * 4 * 8**2), rel=1e-9)
        assert std_error < 1e-9

    def test_single_trial_has_zero_std_error(self):
        cfg = ScenarioConfig(
            scenario=LOS, num_subcarriers=8, num_bs_antennas=2, num_ris_elements=4, trials=1, seed=3
        )
        _, std_error = point_stats(cfg, "central")
        assert std_error == 0.0

    def test_bit_reproducible(self):
        a = per_trial_rates(SMALL_LOS, ("central",))
        b = per_trial_rates(SMALL_LOS, ("central",))
        assert np.array_equal(a, b)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            per_trial_rates(SMALL_LOS, ("waterfilling",))

    def test_rejects_mccm_on_single_path_scenario(self):
        with pytest.raises(ValueError):
            per_trial_rates(SMALL_LOS, ("mccm",))

    def test_covariance_benchmarks_run_in_multipath_scenario(self):
        schemes = ("central", "random-index", "side-index", "mccm")
        rates = per_trial_rates(SMALL_NLOS, schemes)
        assert rates.shape == (1, len(schemes), SMALL_NLOS.trials)
        assert np.all(rates > 0)


class TestCommonRandomNumbers:
    def test_ideal_dominates_central_per_trial(self):
        # Shared channel substreams make the per-trial comparison exact.
        ideal, central = per_trial_rates(SMALL_LOS, ("ideal", "central"))[0]
        assert np.all(ideal + 1e-9 >= central)

    def test_scheme_randomness_does_not_touch_channels(self):
        before = per_trial_rates(SMALL_LOS, ("central",))[0, 0]
        after = per_trial_rates(SMALL_LOS, ("random", "random-index", "central"))[0, 2]
        assert np.array_equal(before, after)

    def test_sweep_values_may_be_an_ndarray(self):
        rates = per_trial_rates(SMALL_LOS, ("central",), "snr_db", np.array([0.0, 10.0]))
        assert np.array_equal(rates, per_trial_rates(SMALL_LOS, ("central",), "snr_db", (0.0, 10.0)))
        with pytest.raises(ValueError, match="need at least one sweep value"):
            per_trial_rates(SMALL_LOS, ("central",), "snr_db", np.array([]))

    def test_overrides_change_only_the_swept_variable(self):
        base, low_snr = per_trial_rates(SMALL_LOS, ("central",), "snr_db", (SMALL_LOS.snr_db, -10.0))[:, 0]
        assert np.all(base > low_snr)


def oracle_trial_rate(cfg, scheme, trial):
    """One (point, scheme, trial) rate the way the sweep computed it before it
    became trial-major: a fresh channel for every scheme and sweep value."""
    grid = build_frequency_grid(cfg.carrier_hz, cfg.bandwidth_hz, cfg.num_subcarriers)
    snr = experiments._snr_linear(cfg.snr_db)
    rng = experiments._substream(cfg.seed, trial, experiments._CHANNEL_STREAM)
    paths = sample_path_set(rng, cfg.num_paths, gain_mode=cfg.gain_mode)
    channels = gen_channels(paths, grid, cfg.num_bs_antennas, cfg.num_ris_elements)
    if scheme == "ideal":
        return experiments.ideal_rate(channels, snr)
    profile = reference_profile(cfg, grid, channels, scheme, trial)
    return experiments.sum_rate(channels, profile, snr)


def oracle_rates(points, schemes):
    return np.array(
        [[[oracle_trial_rate(p, s, t) for t in range(p.trials)] for s in schemes] for p in points]
    )


@pytest.mark.parametrize(
    "base",
    [SMALL_LOS, SMALL_NLOS, replace(SMALL_LOS, trials=1), replace(SMALL_NLOS, trials=1, gain_mode="unit")],
    ids=["los", "nlos", "los-one-trial", "nlos-one-trial-unit-gain"],
)
class TestTrialMajorLoop:
    def test_snr_sweep_matches_per_point_oracle(self, base):
        schemes = schemes_for(base.scenario)
        snrs = (-5.0, 10.0, 20.0)
        rates = per_trial_rates(base, schemes, "snr_db", snrs)
        assert rates.shape == (len(snrs), len(schemes), base.trials)
        expected = oracle_rates([replace(base, snr_db=snr) for snr in snrs], schemes)
        assert np.array_equal(rates, expected)

    @pytest.mark.parametrize("variable,values", [("bandwidth_hz", (0.5e9, 4e9)), ("ris_elements", (4, 16))])
    def test_other_sweeps_match_per_point_oracle(self, base, variable, values):
        schemes = schemes_for(base.scenario)
        rates = per_trial_rates(base, schemes, variable, values)
        assert rates.shape == (len(values), len(schemes), base.trials)
        assert np.array_equal(rates, oracle_rates(experiments.sweep_points(base, variable, values), schemes))


def counting(monkeypatch, counts, name, owner=experiments):
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_snr_sweep_builds_each_channel_and_mccm_profile_once(monkeypatch):
    counts = Counter()
    counting(monkeypatch, counts, "gen_channels")
    counting(monkeypatch, counts, "design_mccm")
    snrs = (-10.0, 0.0, 10.0, 20.0)
    rows = run_sweep(SMALL_NLOS, schemes_for(NLOS), "snr_db", snrs)
    assert len(rows) == len(snrs) * len(schemes_for(NLOS))
    assert counts == {"gen_channels": SMALL_NLOS.trials, "design_mccm": SMALL_NLOS.trials}


@pytest.mark.parametrize("variable,values", [("bandwidth_hz", (0.5e9, 1e9, 4e9)), ("ris_elements", (4, 8, 16))])
def test_other_sweeps_sample_paths_once_per_trial(monkeypatch, variable, values):
    counts = Counter()
    counting(monkeypatch, counts, "sample_path_set")
    counting(monkeypatch, counts, "gen_channels")
    rows = run_sweep(SMALL_NLOS, schemes_for(NLOS), variable, values)
    assert len(rows) == len(values) * len(schemes_for(NLOS))
    trials = SMALL_NLOS.trials
    assert counts == {"sample_path_set": trials, "gen_channels": trials * len(values)}


@pytest.mark.parametrize("base,mccm_scoring", [(SMALL_LOS, 0), (SMALL_NLOS, 2)], ids=["los", "nlos"])
def test_snr_sweep_computes_one_power_vector_per_scheme_and_trial(monkeypatch, base, mccm_scoring):
    counts = Counter()
    counting(monkeypatch, counts, "received_power", ChannelRealization)
    counting(monkeypatch, counts, "aligned_power", ChannelRealization)
    schemes = schemes_for(base.scenario)
    rates = per_trial_rates(base, schemes, "snr_db", (-10.0, 0.0, 10.0, 20.0))
    assert rates.shape == (4, len(schemes), base.trials)
    # Every scheme but "ideal" needs one received power; design_mccm scores two candidates.
    common = len(schemes) - 1
    assert counts == {"received_power": (common + mccm_scoring) * base.trials, "aligned_power": base.trials}


class TestRunSweep:
    def test_row_layout(self):
        rows = run_sweep(SMALL_LOS, ("central", "random"), "snr_db", (0.0, 10.0, 20.0))
        assert len(rows) == 6
        assert [r.sweep_value for r in rows] == [0.0, 0.0, 10.0, 10.0, 20.0, 20.0]
        assert [r.scheme for r in rows][:2] == ["central", "random"]
        assert all(r.sweep_variable == "snr_db" for r in rows)
        assert all(r.trials == SMALL_LOS.trials and r.seed == SMALL_LOS.seed for r in rows)

    def test_single_cell(self):
        rows = run_sweep(SMALL_LOS, ("central",), "bandwidth_hz", (1e9,))
        assert len(rows) == 1

    def test_reproducible(self):
        a = run_sweep(SMALL_LOS, ("central", "side-index"), "snr_db", (0.0, 10.0))
        b = run_sweep(SMALL_LOS, ("central", "side-index"), "snr_db", (0.0, 10.0))
        assert a == b

    def test_matches_per_trial_rates(self):
        rows = run_sweep(SMALL_LOS, ("side-index",), "snr_db", (5.0,))
        rates = per_trial_rates(replace(SMALL_LOS, snr_db=5.0), ("side-index",))[0, 0]
        assert rows[0].mean_rate_bits == float(np.mean(rates))
        assert rows[0].std_error_bits == float(np.std(rates, ddof=1) / np.sqrt(len(rates)))

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL_LOS, (), "snr_db", (0.0,))
        with pytest.raises(ValueError):
            run_sweep(SMALL_LOS, ("central",), "snr_db", ())

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL_LOS, ("central",), "carrier_hz", (28e9,))

    def test_rejects_fractional_element_count(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL_LOS, ("central",), "ris_elements", (8.5,))

    @pytest.mark.parametrize(
        "variable,values",
        [
            ("bandwidth_hz", (1e9, 1e12)),
            ("snr_db", (0.0, float("nan"))),
            ("ris_elements", (4, 0)),
            ("ris_elements", (4, float("inf"))),
            ("ris_elements", (4, 1 << 21)),
        ],
    )
    def test_rejects_bad_value_before_first_trial(self, variable, values, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the sweep was validated")

        monkeypatch.setattr(experiments, "sample_path_set", no_trials)
        with pytest.raises(ValueError):
            run_sweep(SMALL_LOS, ("central",), variable, values)

    def test_rejects_non_finite_row(self):
        # Unit gains give the ideal scheme a power of N*M^2 = 256 on SMALL_LOS,
        # which overflows the linear SNR of 3082 dB (1.58e308) to an infinite rate.
        unit = replace(SMALL_LOS, gain_mode="unit")
        with pytest.raises(FloatingPointError, match="scheme 'ideal' at snr_db=3082"):
            run_sweep(unit, ("ideal",), "snr_db", (10.0, 3082.0))

    def test_ris_elements_sweep_changes_dimensions(self):
        rows = run_sweep(SMALL_LOS, ("central",), "ris_elements", (4, 16))
        assert rows[1].mean_rate_bits > rows[0].mean_rate_bits


class TestReproduceFigure:
    def test_snr_comparison_layout(self):
        rows = run_sweep(*figure_sweep(2, trials=2, seed=9))
        assert len(rows) == len(SWEEP_GRIDS["snr_db"]) * len(schemes_for(LOS))
        assert all(r.scenario == LOS for r in rows)
        assert all(r.sweep_variable == "snr_db" for r in rows)

    def test_bandwidth_comparison_uses_grid(self):
        rows = run_sweep(*figure_sweep(3, trials=1, seed=9))
        values = sorted({r.sweep_value for r in rows})
        assert values == sorted(SWEEP_GRIDS["bandwidth_hz"])

    def test_multipath_comparison_includes_covariance_scheme(self):
        rows = run_sweep(*figure_sweep(5, trials=1, seed=9))
        assert all(r.scenario == NLOS for r in rows)
        assert "mccm" in {r.scheme for r in rows}
        assert set(r.scheme for r in rows) == set(schemes_for(NLOS))

    def test_rejects_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_sweep(7, trials=1, seed=0)

    def test_presets(self):
        assert FIGURES == {
            2: (LOS, "snr_db"),
            3: (LOS, "bandwidth_hz"),
            4: (LOS, "ris_elements"),
            5: (NLOS, "snr_db"),
            6: (NLOS, "bandwidth_hz"),
        }
        for fig_id, (scenario, variable) in FIGURES.items():
            config, schemes, sweep_variable, values = figure_sweep(fig_id, trials=3, seed=2, gain_mode="unit")
            assert config == ScenarioConfig(scenario=scenario, trials=3, seed=2, gain_mode="unit")
            assert (schemes, sweep_variable, values) == (schemes_for(scenario), variable, SWEEP_GRIDS[variable])

    def test_deterministic_table(self):
        assert run_sweep(*figure_sweep(2, trials=1, seed=4)) == run_sweep(*figure_sweep(2, trials=1, seed=4))


class TestMisc:
    def test_schemes_for(self):
        assert schemes_for(LOS) == ("ideal", "central", "random", "random-index", "side-index")
        assert schemes_for(NLOS) == ("ideal", "mccm", "central", "random", "random-index", "side-index")
        assert tuple(SCHEMES) == schemes_for(NLOS)

    def test_central_subcarrier_index(self):
        odd = build_frequency_grid(28e9, 2e9, 11)
        assert central_subcarrier_index(odd) == 5
        assert odd.frequencies[5] == 28e9
        even = build_frequency_grid(28e9, 2e9, 128)
        assert central_subcarrier_index(even) == 63
