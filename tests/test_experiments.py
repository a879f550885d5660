import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from squintsim import experiments, phase_design
from squintsim.channel import ChannelRealization, FrequencyGrid, gen_channels, sample_path_set
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
NLOS_WITHOUT_MCCM = tuple(s for s in schemes_for(NLOS) if s != "mccm")


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

    def test_error_names_the_field(self):
        with pytest.raises(experiments.ConfigError, match="num_subcarriers must be") as info:
            ScenarioConfig(num_subcarriers=0)
        assert info.value.field == "num_subcarriers"
        assert isinstance(info.value, ValueError)

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


@pytest.mark.parametrize("variable,values", [("snr_db", None), ("ris_elements", (16, 4097))])
def test_mccm_covariance_bound_is_checked_before_any_allocation(monkeypatch, variable, values):
    # M = 4097 at K = 1 is a table of 4097 entries, but its (M, M) covariance
    # would hold more than MAX_TABLE_ENTRIES.
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the input was rejected")

    monkeypatch.setattr(experiments, "sample_path_set", no_trials)
    config = ScenarioConfig(scenario=NLOS, num_subcarriers=1, num_ris_elements=4097, trials=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"'mccm' .* M\*\*2 <= MAX_TABLE_ENTRIES = 16777216, got M = 4097$"):
            per_trial_rates(config, ("central", "mccm"), variable, values)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


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
    grid = FrequencyGrid(cfg.carrier_hz, cfg.bandwidth_hz, cfg.num_subcarriers)
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

    def test_snr_values_with_one_linear_snr_keep_a_row_each(self, base):
        # 0 dB and the smallest subnormal dB value are two points but one linear SNR.
        snrs = (20.0, 0.0, 5e-324)
        assert experiments._snr_linear(snrs[1]) == experiments._snr_linear(snrs[2])
        schemes = schemes_for(base.scenario)
        rates = per_trial_rates(base, schemes, "snr_db", snrs)
        assert np.array_equal(rates, oracle_rates([replace(base, snr_db=snr) for snr in snrs], schemes))

    @pytest.mark.parametrize("variable,values", [("bandwidth_hz", (0.5e9, 4e9)), ("ris_elements", (4, 16))])
    def test_other_sweeps_match_per_point_oracle(self, base, variable, values):
        schemes = schemes_for(base.scenario)
        rates = per_trial_rates(base, schemes, variable, values)
        assert rates.shape == (len(values), len(schemes), base.trials)
        assert np.array_equal(rates, oracle_rates(experiments.sweep_points(base, variable, values), schemes))


@pytest.mark.parametrize(
    "base,schemes",
    [(SMALL_LOS, schemes_for(LOS)), (SMALL_NLOS, NLOS_WITHOUT_MCCM), (SMALL_NLOS, schemes_for(NLOS))],
    ids=["los", "nlos", "nlos-with-mccm"],
)
def test_elements_sweep_matches_per_point_runs(base, schemes):
    # One build per trial at the largest M, read by every point as a prefix (mccm
    # designed on the first m elements of it), gives the bits of a run at each point's own M.
    values = (16, 4, 37, 8, 1)
    rates = per_trial_rates(base, schemes, "ris_elements", values)
    for value, point_rates in zip(values, rates):
        assert np.array_equal(point_rates, per_trial_rates(replace(base, num_ris_elements=value), schemes)[0])


@pytest.mark.parametrize("base", [SMALL_LOS, SMALL_NLOS], ids=["los", "nlos"])
@pytest.mark.parametrize("scheme", [s for s in SCHEMES if s not in ("ideal", "mccm")])
def test_profiles_designed_on_the_widest_build_are_prefixes(base, scheme):
    # Every profile but mccm's, designed once on the widest channel and cut to
    # m phases, is the reference profile of a direct build at m, bit for bit.
    grid = FrequencyGrid(base.carrier_hz, base.bandwidth_hz, base.num_subcarriers)
    for trial in range(3):
        rng = experiments._substream(base.seed, trial, experiments._CHANNEL_STREAM)
        paths = sample_path_set(rng, base.num_paths, gain_mode=base.gain_mode)
        draws = experiments._trial_draws(base, (scheme,), trial, 64)
        wide = experiments._common_profile(base.scenario, gen_channels(paths, grid, 4, 64), scheme, draws)
        for m in (1, 7, 16, 37, 64):
            point = replace(base, num_ris_elements=m)
            direct = reference_profile(point, grid, gen_channels(paths, grid, 4, m), scheme, trial)
            assert np.array_equal(wide.phases_rad[:m], direct.phases_rad)


@pytest.mark.parametrize(
    "base,schemes,mccm_designs",
    [(SMALL_LOS, schemes_for(LOS), 0), (SMALL_NLOS, NLOS_WITHOUT_MCCM, 0), (SMALL_NLOS, schemes_for(NLOS), 3)],
    ids=["los", "nlos", "nlos-mccm-per-size"],
)
def test_elements_sweep_rates_each_build_in_one_call_per_rate(monkeypatch, base, schemes, mccm_designs):
    # A trial has one build, whose sizes share one ideal_rate and one sum_rate
    # call; mccm, which is no prefix of a wider design, is designed once per
    # size on that build and rated in the same sum_rate call.
    counts = Counter()
    names = ("gen_channels", "ideal_rate", "sum_rate", "design_mccm")
    for name in names:
        counting(monkeypatch, counts, name)
    per_trial_rates(base, schemes, "ris_elements", (4, 16, 8))
    per_trial = [counts[name] / base.trials for name in names]
    assert per_trial == [1, 1, 1, mccm_designs]


@pytest.mark.parametrize("variable,values", [("ris_elements", (4, 16, 8)), ("bandwidth_hz", (0.5e9, 4e9))])
def test_each_channel_build_is_freed_before_the_next(monkeypatch, variable, values):
    # Each build is gone before the next, so a sweep holds one channel at a
    # time: one per trial on a surface-size sweep, mccm included, one per
    # point on a bandwidth sweep.
    built = []

    def tracking(*args):
        assert all(ref() is None for ref in built)
        channels = gen_channels(*args)
        built.append(weakref.ref(channels))
        return channels

    monkeypatch.setattr(experiments, "gen_channels", tracking)
    run_sweep(SMALL_NLOS, schemes_for(NLOS), variable, values)
    assert len(built) == SMALL_NLOS.trials * (len(values) if variable == "bandwidth_hz" else 1)


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


@pytest.mark.parametrize(
    "schemes,variable,values,builds",
    [
        (schemes_for(NLOS), "bandwidth_hz", (0.5e9, 1e9, 4e9), 3),
        (schemes_for(NLOS), "ris_elements", (4, 16, 8), 1),
        (NLOS_WITHOUT_MCCM, "ris_elements", (4, 16, 8), 1),
    ],
    ids=["bandwidth", "ris_elements-with-mccm", "ris_elements"],
)
def test_other_sweeps_sample_paths_once_per_trial(monkeypatch, schemes, variable, values, builds):
    # A bandwidth sweep builds one channel per point; a surface-size sweep,
    # with or without mccm, builds one per trial, at its largest M, which
    # every point reads a prefix of.
    counts = Counter()
    counting(monkeypatch, counts, "sample_path_set")
    counting(monkeypatch, counts, "gen_channels")
    rows = run_sweep(SMALL_NLOS, schemes, variable, values)
    assert len(rows) == len(values) * len(schemes)
    trials = SMALL_NLOS.trials
    assert counts == {"sample_path_set": trials, "gen_channels": trials * builds}


@pytest.mark.parametrize("base,mccm_scoring", [(SMALL_LOS, 0), (SMALL_NLOS, 2)], ids=["los", "nlos"])
def test_snr_sweep_computes_one_power_vector_per_scheme_and_trial(monkeypatch, base, mccm_scoring):
    counts = Counter()
    received_power = ChannelRealization.received_power

    def counting_rows(self, diag, sizes=None):
        counts["received_power"] += 1
        counts["power_rows"] += int(np.prod(np.shape(diag)[:-1]))
        return received_power(self, diag, sizes)

    monkeypatch.setattr(ChannelRealization, "received_power", counting_rows)
    counting(monkeypatch, counts, "aligned_power", ChannelRealization)
    schemes = schemes_for(base.scenario)
    rates = per_trial_rates(base, schemes, "snr_db", (-10.0, 0.0, 10.0, 20.0))
    assert rates.shape == (4, len(schemes), base.trials)
    # Every scheme but "ideal" needs one power row; design_mccm scores two candidates.
    # The rows of a channel point take one stacked call, and those of an MCCM design one more.
    common = len(schemes) - 1
    assert counts == {
        "power_rows": (common + mccm_scoring) * base.trials,
        "received_power": (1 + (mccm_scoring > 0)) * base.trials,
        "aligned_power": base.trials,
    }


@pytest.mark.parametrize(
    "schemes,per_trial", [(schemes_for(LOS), 3), (("ideal", "central", "side-index"), 1)], ids=["all", "no-random"]
)
def test_elements_sweep_builds_each_substream_once_per_trial(monkeypatch, schemes, per_trial):
    # The paths always take one; the random phases and the random index one each
    # when their scheme is asked for, whatever the number of points.
    counts = Counter()
    counting(monkeypatch, counts, "_substream")
    counting(monkeypatch, counts, "design_random")
    per_trial_rates(SMALL_LOS, schemes, "ris_elements", (4, 8, 16, 32))
    assert counts["_substream"] == per_trial * SMALL_LOS.trials
    assert counts["design_random"] == ("random" in schemes) * SMALL_LOS.trials


def user_row_derivations(monkeypatch, *sweep) -> int:
    """How many times ``run_sweep(*sweep)`` forms surface-to-user rows."""
    counts = Counter()
    counting(monkeypatch, counts, "_user_rows", phase_design)
    run_sweep(*sweep)
    return counts["_user_rows"]


@pytest.mark.parametrize("fig_id,calls", [(2, 0), (4, 0), (5, 2)])
def test_only_covariance_designers_derive_the_user_rows(monkeypatch, fig_id, calls):
    # Every designer but design_mccm and every rate read the cascade, so only a
    # sweep with mccm, offered on nlos alone, forms user rows: once per trial
    # on an SNR sweep, in its one design.
    assert user_row_derivations(monkeypatch, *figure_sweep(fig_id, trials=2, seed=3)) == calls


@pytest.mark.parametrize("variable,values", [("snr_db", (0.0, 10.0)), ("bandwidth_hz", (0.5e9, 4e9))])
def test_nlos_sweep_without_mccm_never_derives_the_user_rows(monkeypatch, variable, values):
    assert user_row_derivations(monkeypatch, SMALL_NLOS, NLOS_WITHOUT_MCCM, variable, values) == 0


@pytest.mark.parametrize("base", [SMALL_LOS, SMALL_NLOS], ids=["los", "nlos"])
@pytest.mark.parametrize("variable,values", [("snr_db", (0.0, 10.0)), ("bandwidth_hz", (0.5e9, 1e9, 4e9))])
def test_one_subcarrier_design_per_indexed_scheme_point_and_trial(monkeypatch, base, variable, values):
    # Both scenarios design every indexed scheme by co-phasing a cascade row;
    # only los central keeps its closed form.
    counts = Counter()
    for name in ("design_subcarrier_covariance", "design_indexed", "design_central"):
        counting(monkeypatch, counts, name)
    schemes = schemes_for(base.scenario)
    per_trial_rates(base, schemes, variable, values)
    designs = base.trials * (1 if variable == "snr_db" else len(values))
    assert counts["design_indexed"] == 0
    assert counts["design_subcarrier_covariance"] == (2 if base.scenario == LOS else 3) * designs
    assert counts["design_central"] == (base.scenario == LOS) * designs


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

    @pytest.mark.parametrize("trials", [1, 2, 8, 500])
    def test_row_statistics_match_per_row_reductions(self, monkeypatch, trials):
        # One mean and one std over the (value, scheme, trial) array give the
        # bits of one np.mean and one np.std per row.
        rates = np.random.default_rng(trials).uniform(0.0, 12.0, (3, 2, trials))
        monkeypatch.setattr(experiments, "per_trial_rates", lambda *args: rates)
        rows = run_sweep(replace(SMALL_LOS, trials=trials), ("central", "side-index"), "snr_db", (0.0, 5.0, 10.0))
        for row, row_rates in zip(rows, rates.reshape(6, trials)):
            assert row.mean_rate_bits == float(np.mean(row_rates))
            if trials == 1:
                assert row.std_error_bits == 0.0
            else:
                assert row.std_error_bits == float(np.std(row_rates, ddof=1) / np.sqrt(trials))
            assert type(row.mean_rate_bits) is type(row.std_error_bits) is float

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL_LOS, (), "snr_db", (0.0,))
        with pytest.raises(ValueError):
            run_sweep(SMALL_LOS, ("central",), "snr_db", ())

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL_LOS, ("central",), "carrier_hz", (28e9,))

    @pytest.mark.parametrize(
        "variable,values",
        [("snr_db", (5.0, 5.0)), ("ris_elements", (16, 32, 16.0)), ("bandwidth_hz", np.array([1e9, 1e9]))],
    )
    def test_rejects_repeated_value(self, variable, values):
        # Two points with one value would write two rows with one CSV key.
        with pytest.raises(ValueError, match="named twice"):
            experiments.sweep_points(SMALL_LOS, variable, values)

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

    @pytest.mark.parametrize(
        "schemes,variable,values,field,message",
        [
            (("central",), "snr_db", (), "values", "need at least one sweep value"),
            (("central",), "carrier_hz", (28e9,), "sweep_variable", "unknown sweep variable 'carrier_hz'; known: "),
            (("central",), "snr_db", (5.0, 5.0), "values", "snr_db value 5 is named twice"),
            (("central",), "ris_elements", (8.5,), "values", "ris_elements must be an integer, got 8.5"),
            (("central",), "bandwidth_hz", (1e9, 1e12), "values", "bandwidth_hz must be in [0, 2*carrier_hz), got"),
            (("central",), "ris_elements", (4, 1 << 21), "values", "num_ris_elements must be an integer >= 1 with "),
            ((), "snr_db", (0.0,), "schemes", "need at least one scheme"),
            (("waterfilling",), "snr_db", (0.0,), "schemes", "unknown scheme 'waterfilling'; known schemes: "),
            (("mccm",), "snr_db", (0.0,), "schemes", "scheme 'mccm' is not available in the 'los' scenario"),
            (("central", "central"), "snr_db", (0.0,), "schemes", "scheme 'central' is named twice"),
        ],
    )
    def test_rejection_is_a_config_error_naming_the_input(self, schemes, variable, values, field, message, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the sweep was validated")

        monkeypatch.setattr(experiments, "sample_path_set", no_trials)
        with pytest.raises(experiments.ConfigError) as info:
            run_sweep(SMALL_LOS, schemes, variable, values)
        assert info.value.field == field
        assert str(info.value).startswith(message)

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
        odd = FrequencyGrid(28e9, 2e9, 11)
        assert central_subcarrier_index(odd) == 5
        assert odd.frequencies[5] == 28e9
        even = FrequencyGrid(28e9, 2e9, 128)
        assert central_subcarrier_index(even) == 63

    @pytest.mark.parametrize(
        "carrier_hz,bandwidth_hz", [(28e9, 2e9), (28e9, 0.0), (1e9, 1e9), (3.5e9, 1e8), (60e9, 8e9), (28e9, 55e9)]
    )
    @pytest.mark.parametrize("num_subcarriers", [1, 2, 6, 7, 64, 128, 131, 299])
    def test_central_subcarrier_index_takes_the_lower_middle(self, carrier_hz, bandwidth_hz, num_subcarriers):
        # Subcarrier k sits (2k - (K-1))/2 spacings from the carrier: the closest
        # one, ties to the lower, from exact integers rather than rounded
        # frequencies, which at 1 GHz over K = 6 put subcarrier 3 nearer than 2.
        # At zero bandwidth it is still the middle; every row is then the same.
        k = central_subcarrier_index(FrequencyGrid(carrier_hz, bandwidth_hz, num_subcarriers))
        assert k == int(np.argmin(np.abs(2 * np.arange(num_subcarriers) - (num_subcarriers - 1))))
        assert isinstance(k, int)
