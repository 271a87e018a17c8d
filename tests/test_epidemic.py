from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proximity_sim import epidemic
from proximity_sim.crypto import derive_seed
from proximity_sim.epidemic import (
    AbortCapExceeded,
    AlertPolicy,
    DailySeries,
    NoGrowthRoot,
    SimulationParams,
    _simulate,
    activation_level,
    expected_daily_incidence,
    fit_growth_factor,
    mean_completed_offspring,
    renewal_growth_factor,
    run_ensemble,
    run_replicate,
)

HEADLINE = SimulationParams()  # headline defaults: r0=3, 14 days, k=10, ramp 30+10

# root of (r0/T) * sum_{a=1..T} g^-a = 1 for r0=3, T=14, found by the
# bisection oracle below and frozen
GROWTH_ROOT_3_14 = 1.1970006094624788


def renewal_residual(g: float, r0: float, incubation: int) -> float:
    return (r0 / incubation) * sum(g ** (-a) for a in range(1, incubation + 1)) - 1.0


def conditional_z(params: SimulationParams, seed: int, rate: float) -> np.ndarray:
    """z of each day's new cases against their exact law given the days
    before, for runs in which every case transmits at `rate` per day on
    days s+1..s+incubation_days: Poisson(rate * cases infectious that day)."""
    series = run_replicate(params, seed).new_infected_per_day
    days = params.incubation_days
    lam = np.array([rate * series[max(0, d - days) : d].sum()
                    for d in range(1, len(series))])
    return (series[1:] - lam) / np.sqrt(lam)


def reference_simulate(params: SimulationParams, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The cohort engine as it was before it skipped draws that cannot
    reach the series: every replicate fills the count tensor, runs the
    einsum and calls every coin, probability 0 or not.  Kept as the
    oracle that `_simulate` must match bit for bit."""
    days, horizon = params.incubation_days, params.horizon_days
    spread = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
    coins = np.random.Generator(np.random.PCG64(derive_seed(seed, 1)))
    at_detection = params.alert_policy is AlertPolicy.AT_DETECTION
    never = days
    a, j = np.ogrid[: days + 1, : days + 1]
    weight = np.where((j <= a) & (j < never), 1.0 / params.quarantine_factor, 1.0)
    count = np.zeros((horizon + 1, days + 1, 2), np.int64)
    series = np.zeros(horizon + 1, np.int64)
    offspring = np.zeros(horizon + 1, np.int64)

    def create(day, total, alerted_by_source):
        cohort = np.zeros(days + 1, np.int64)
        if at_detection:
            cohort[np.arange(day - len(alerted_by_source), day) + days - day] = alerted_by_source
        else:
            cohort[0] = coins.binomial(total, params.efficiency * activation_level(day, params))
        cohort[never] = total - cohort.sum()
        if at_detection:
            count[day, :, 1] = coins.binomial(cohort, activation_level(day + days, params))
        count[day, :, 0] = cohort - count[day, :, 1]
        series[day] = total

    create(0, params.initial_infected, np.zeros(0, np.int64))
    for day in range(1, horizon + 1):
        lo = max(0, day - days)
        active = int(series[lo:day].sum())
        if active > params.max_active:
            raise AbortCapExceeded(day, active, DailySeries(series[:day].copy(), truncated=True))
        weighted = np.einsum("sj,sju->su", weight[day - lo : 0 : -1], count[lo:day])
        rates = weighted.sum(axis=1)
        born = spread.poisson(params.r0 / days * rates)
        offspring[lo:day] += born
        alerted = np.zeros(0, np.int64)
        if at_detection:
            share = np.divide(weighted[:, 1], rates, out=np.zeros_like(rates), where=rates > 0)
            alerted = coins.binomial(coins.binomial(born, share), params.efficiency)
        create(day, int(born.sum()), alerted)
    return series, offspring


class TestReferenceEngine:
    """`_simulate` skips the coins, the count tensor and the einsum where
    no alert can change a rate, and each zero-probability coin call; the
    series and offspring must not move by a bit."""

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    @pytest.mark.parametrize("efficiency", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("k", [1.0, 2.0, 10.0])
    def test_series_and_offspring_match(self, policy, efficiency, k):
        # activation at day 0, mid-run, on the horizon and after it
        for activation_day, ramp_days, seed in itertools.product(
                (0, 30, 40, 45), (0, 10), (3, 77)):
            params = SimulationParams(
                incubation_days=10, horizon_days=40, initial_infected=5, max_active=10**9,
                quarantine_factor=k, efficiency=efficiency, activation_day=activation_day,
                ramp_days=ramp_days, alert_policy=policy)
            expected = reference_simulate(params, seed)
            actual = _simulate(params, seed)
            assert np.array_equal(actual[0], expected[0])
            assert np.array_equal(actual[1], expected[1])

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    @pytest.mark.parametrize("efficiency, k", [(0.0, 10.0), (0.6, 1.0), (0.6, 10.0)])
    def test_abort_day_and_partial_series_match(self, policy, efficiency, k):
        params = SimulationParams(horizon_days=50, max_active=2_000, efficiency=efficiency,
                                  quarantine_factor=k, alert_policy=policy)
        with pytest.raises(AbortCapExceeded) as expected:
            reference_simulate(params, 11)
        with pytest.raises(AbortCapExceeded) as actual:
            _simulate(params, 11)
        assert (actual.value.day, actual.value.active) == (expected.value.day,
                                                            expected.value.active)
        assert np.array_equal(actual.value.series.new_infected_per_day,
                              expected.value.series.new_infected_per_day)

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    def test_mean_completed_offspring_matches(self, policy, monkeypatch):
        params = SimulationParams(horizon_days=45, efficiency=0.6, alert_policy=policy)
        actual = mean_completed_offspring(params, base_seed=5, replicates=3, after_day=20)
        monkeypatch.setattr(epidemic, "_simulate", reference_simulate)
        assert mean_completed_offspring(params, base_seed=5, replicates=3,
                                        after_day=20) == actual


class TestActivationLevel:
    def test_silent_before_activation(self):
        assert activation_level(29, HEADLINE) == 0.0
        assert activation_level(0, HEADLINE) == 0.0

    def test_ramp_endpoint(self):
        assert activation_level(40, HEADLINE) == 1.0
        assert activation_level(55, HEADLINE) == 1.0

    def test_linear_midpoint(self):
        assert activation_level(35, HEADLINE) == 0.5

    def test_zero_ramp_is_a_step(self):
        params = SimulationParams(ramp_days=0)
        assert activation_level(29, params) == 0.0
        assert activation_level(30, params) == 1.0

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_monotone(self, day):
        level = activation_level(day, HEADLINE)
        assert 0.0 <= level <= 1.0
        assert level <= activation_level(day + 1, HEADLINE)


class TestDailyOffspringRate:
    """A case infected on day s transmits r0/incubation_days a day (over k
    when alerted) on days s+1..s+incubation_days and never after."""

    NO_APP = SimulationParams(efficiency=0.0, initial_infected=10_000, horizon_days=28)

    def test_base_rate_within_incubation(self):
        # days 1..14: every case ever created is still infectious
        z = conditional_z(self.NO_APP, 7, 3 / 14)
        assert np.abs(z[:14]).max() < 5

    def test_zero_after_detection(self):
        # from day 15 on the founders and then each later cohort drop out
        z = conditional_z(self.NO_APP, 7, 3 / 14)
        assert np.abs(z[14:]).max() < 5

    def test_alerted_rate_divided_by_k(self):
        # full adoption and a switched-on app alert every case at creation
        params = SimulationParams(activation_day=0, ramp_days=0, initial_infected=1_000_000,
                                  horizon_days=30)
        z = conditional_z(params, 7, 3 / 140)
        assert np.abs(z).max() < 5


class TestRenewalGrowthFactor:
    def test_replacement_rate_gives_one(self):
        assert renewal_growth_factor(1.0, 14) == pytest.approx(1.0, abs=1e-9)
        assert renewal_growth_factor(1.0, 5) == pytest.approx(1.0, abs=1e-9)

    def test_headline_root(self):
        g = renewal_growth_factor(3.0, 14)
        assert g == pytest.approx(GROWTH_ROOT_3_14, abs=1e-8)
        assert abs(renewal_residual(g, 3.0, 14)) < 1e-10

    def test_subcritical_root_below_one(self):
        g = renewal_growth_factor(0.3, 14)
        assert g < 1.0
        assert abs(renewal_residual(g, 0.3, 14)) < 1e-10

    def test_nonpositive_r0_rejected(self):
        with pytest.raises(NoGrowthRoot):
            renewal_growth_factor(0.0, 14)
        with pytest.raises(NoGrowthRoot):
            renewal_growth_factor(-1.0, 14)

    @given(st.floats(min_value=0.1, max_value=20.0),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=80, deadline=None)
    def test_residual_vanishes_property(self, r0, incubation):
        g = renewal_growth_factor(r0, incubation)
        assert g > 0
        assert abs(renewal_residual(g, r0, incubation)) < 1e-9


class TestReplicates:
    def test_zero_r0_never_branches(self):
        series = run_replicate(SimulationParams(r0=0.0, initial_infected=7,
                                                horizon_days=20), 1)
        expected = np.zeros(21, np.int64)
        expected[0] = 7
        assert np.array_equal(series.new_infected_per_day, expected)

    def test_determinism(self):
        params = SimulationParams(horizon_days=40)
        a = run_replicate(params, 987654321)
        b = run_replicate(params, 987654321)
        assert np.array_equal(a.new_infected_per_day, b.new_infected_per_day)

    def test_null_effect_equivalences(self):
        seed = 24680
        baseline = run_replicate(HEADLINE.without_app(), seed)
        k_one = run_replicate(SimulationParams(quarantine_factor=1.0), seed)
        silent = run_replicate(SimulationParams(activation_day=61), seed)
        k_one_at_detection = run_replicate(
            SimulationParams(quarantine_factor=1.0, alert_policy=AlertPolicy.AT_DETECTION), seed)
        for twin in (k_one, silent, k_one_at_detection):
            assert np.array_equal(baseline.new_infected_per_day, twin.new_infected_per_day)

    def test_conservation(self):
        # every case after day 0 is credited as offspring to one infection day
        for policy in AlertPolicy:
            series, offspring = _simulate(
                SimulationParams(horizon_days=30, efficiency=0.5, alert_policy=policy), 13)
            assert offspring.sum() == series[1:].sum() > 0

    def test_abort_cap(self):
        params = SimulationParams(max_active=50, horizon_days=60)
        with pytest.raises(AbortCapExceeded) as info:
            run_replicate(params, 5)
        assert info.value.series.truncated
        assert len(info.value.series) == info.value.day

    def test_at_detection_policy_alerts_after_detection_only(self):
        # Every detected case rolls the upload coin at the level of its
        # detection day, and an upload alerts the app-user children from
        # that day on.  The exact ensemble mean (the engine with each draw
        # replaced by its expectation) gives mean[50]/mean[40] = 4.64237;
        # an alert one day late gives 4.929, an uploader that must be an
        # app user 5.245 and an upload coin read on the infection day 5.705.
        params = SimulationParams(alert_policy=AlertPolicy.AT_DETECTION, horizon_days=50,
                                  efficiency=0.6, replicates=200)
        ensemble = run_ensemble(params, 42)
        late = ensemble.daily[:, 50].astype(float)
        early = ensemble.daily[:, 40].astype(float)
        ratio = late.mean() / early.mean()
        se = (late - ratio * early).std(ddof=1) / (np.sqrt(len(late)) * early.mean())  # delta method
        assert abs(ratio - 4.64237) <= 3 * se

    def test_at_detection_slows_the_outbreak(self):
        fast = run_ensemble(SimulationParams(alert_policy=AlertPolicy.AT_DETECTION,
                                             replicates=20), 31)
        silent = run_ensemble(SimulationParams(efficiency=0.0, replicates=20), 31)
        assert fast.mean[-14:].sum() < silent.mean[-14:].sum()


class TestEnsemble:
    def test_single_replicate_equals_run_replicate(self):
        params = SimulationParams(replicates=1, horizon_days=30)
        ensemble = run_ensemble(params, 77)
        lone = run_replicate(params, derive_seed(77, 0))
        assert np.array_equal(ensemble.daily[0], lone.new_infected_per_day)
        assert np.array_equal(ensemble.mean, lone.new_infected_per_day.astype(float))

    def test_order_free_seed_derivation(self):
        params = SimulationParams(replicates=6, horizon_days=25)
        ensemble = run_ensemble(params, 55)
        # recompute replicate 3 in isolation
        lone = run_replicate(params, derive_seed(55, 3))
        assert np.array_equal(ensemble.daily[3], lone.new_infected_per_day)

    def test_relative_se_of_cumulative_is_small(self):
        # empirical fixture: 50 replicates keep the day-30 cumulative tight
        ensemble = run_ensemble(HEADLINE, 42)
        mean, se = ensemble.cumulative_stats(30)
        assert se / mean < 0.15

    def test_aborting_replicate_marks_truncation(self):
        params = SimulationParams(max_active=60, horizon_days=50, replicates=3)
        ensemble = run_ensemble(params, 4)
        assert ensemble.truncated
        assert ensemble.aborted_replicates  # reported, not dropped
        assert ensemble.daily.shape[0] == 3

    def test_growth_phase_matches_renewal_oracle(self):
        params = SimulationParams(efficiency=0.0, horizon_days=30)
        ensemble = run_ensemble(params, 42)
        fitted = fit_growth_factor(ensemble.mean, 15, 30)
        oracle = renewal_growth_factor(3.0, 14)
        assert abs(fitted - oracle) / oracle < 0.10


class TestExpectedDailyIncidence:
    def test_first_day_is_seed_cases_times_daily_rate(self):
        expected = expected_daily_incidence(HEADLINE)
        assert expected[0] == HEADLINE.initial_infected
        assert expected[1] == pytest.approx(HEADLINE.initial_infected * 3 / 14)

    def test_null_effect_total_matches_cumulative_moment_recursion(self):
        # the backward mean recursion of the benchmark's checks gives 607,778.8
        expected = expected_daily_incidence(SimulationParams(quarantine_factor=1.0))
        assert len(expected) == HEADLINE.horizon_days + 1
        assert expected.sum() == pytest.approx(607_778.8, abs=0.05)

    def test_headline_collapse(self):
        expected = expected_daily_incidence(HEADLINE)
        peak_day = int(expected.argmax())
        assert peak_day == 40
        assert expected[60] / expected[peak_day] == pytest.approx(0.10206, abs=5e-6)

    def test_growth_tends_to_renewal_root(self):
        expected = expected_daily_incidence(
            SimulationParams(efficiency=0.0, horizon_days=200))
        assert expected[-1] / expected[-2] == pytest.approx(GROWTH_ROOT_3_14, rel=1e-9)

    def test_matches_ensemble_mean(self):
        params = SimulationParams(replicates=100)
        ensemble = run_ensemble(params, 3)
        expected = expected_daily_incidence(params)
        z = (ensemble.mean[1:] - expected[1:]) / ensemble.se[1:]
        assert np.abs(z).max() < 4.5

    def test_at_detection_rejected(self):
        with pytest.raises(ValueError):
            expected_daily_incidence(SimulationParams(alert_policy=AlertPolicy.AT_DETECTION))


class TestPostRampOffspring:
    def test_cohort_mean_offspring_fully_alerted(self):
        # after the ramp with full adoption every case transmits at r0/k
        params = SimulationParams(horizon_days=80)
        mean, count = mean_completed_offspring(params, base_seed=7, replicates=40,
                                               after_day=54)
        assert count > 10_000
        assert mean == pytest.approx(0.3, abs=0.05)

    def test_cohort_mean_offspring_without_app(self):
        params = SimulationParams(efficiency=0.0, horizon_days=40, initial_infected=5)
        mean, count = mean_completed_offspring(params, base_seed=9, replicates=30,
                                               after_day=0)
        assert count > 1_000
        assert mean == pytest.approx(3.0, rel=0.10)

    def test_empty_cohort_window_rejected(self):
        params = SimulationParams(horizon_days=30)
        with pytest.raises(ValueError):
            mean_completed_offspring(params, 1, 2, after_day=54)


def test_fit_growth_factor_recovers_exact_exponential():
    series = 2.0 * (1.13 ** np.arange(0, 40))
    assert fit_growth_factor(series, 10, 35) == pytest.approx(1.13, rel=1e-9)


def test_fit_growth_factor_rejects_zeros():
    with pytest.raises(ValueError):
        fit_growth_factor(np.zeros(20), 5, 15)


def test_params_validation():
    with pytest.raises(ValueError):
        SimulationParams(efficiency=1.5)
    with pytest.raises(ValueError):
        SimulationParams(quarantine_factor=0.5)
    with pytest.raises(ValueError):
        SimulationParams(incubation_days=0)
    with pytest.raises(ValueError):
        SimulationParams(r0=-0.1)
    # sweeps may park activation beyond the horizon on purpose
    SimulationParams(activation_day=1000, horizon_days=60)
