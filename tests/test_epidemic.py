from __future__ import annotations

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proximity_sim import epidemic
from proximity_sim.crypto import derive_seed
from proximity_sim.epidemic import (
    AbortCapExceeded,
    AlertPolicy,
    NoGrowthRoot,
    SimulationParams,
    _simulate,
    activation_level,
    expected_daily_incidence,
    fit_growth_factor,
    mean_completed_offspring,
    renewal_growth_factor,
    run_ensemble,
    run_ensembles,
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
    series = run_replicate(params, seed)
    days = params.incubation_days
    lam = np.array([rate * series[max(0, d - days) : d].sum()
                    for d in range(1, len(series))])
    return (series[1:] - lam) / np.sqrt(lam)


def reference_simulate(params: SimulationParams, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The cohort engine as it was before it skipped draws that cannot
    reach the series: every replicate fills the count tensor, runs the
    einsum and calls every coin, probability 0 or not.  Kept as the
    oracle that every row of a `_simulate` batch must match bit for bit."""
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
            raise AbortCapExceeded(day, active, series[:day].copy())
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


def reference_rows(params: SimulationParams, seeds: list[int]) -> list:
    """`reference_simulate` replicate by replicate: (series, offspring) for a
    replicate that finishes, its AbortCapExceeded for one that aborts."""
    rows = []
    for seed in seeds:
        try:
            rows.append(reference_simulate(params, seed))
        except AbortCapExceeded as abort:
            rows.append(abort)
    return rows


def assert_batch_matches_reference(params: SimulationParams, seeds: list[int]) -> dict:
    """Run `seeds` as one batch and check every row against the reference:
    a finished row bit for bit, an aborted row by its abort day, active
    count and partial series.  Returns the batch's aborts."""
    return assert_rows_match_reference(params, seeds, *_simulate(params, seeds))


def assert_rows_match_reference(params: SimulationParams, seeds: list[int], series: np.ndarray,
                                offspring: np.ndarray, aborts: dict) -> dict:
    """Check a batch's rows, one per seed, as `assert_batch_matches_reference` does."""
    assert series.shape == offspring.shape == (len(seeds), params.horizon_days + 1)
    expected = reference_rows(params, seeds)
    assert sorted(aborts) == [r for r, row in enumerate(expected)
                              if isinstance(row, AbortCapExceeded)]
    for r, row in enumerate(expected):
        if isinstance(row, AbortCapExceeded):
            assert (aborts[r].day, aborts[r].active) == (row.day, row.active)
            assert np.array_equal(aborts[r].series, row.series)
            assert np.array_equal(series[r, : row.day], row.series)
        else:
            assert np.array_equal(series[r], row[0])
            assert np.array_equal(offspring[r], row[1])
    return aborts


class TestReferenceEngine:
    """`_simulate` advances a batch of replicates together and skips the
    coins, the count tensor and the einsum where no alert can change a
    rate, and each zero-probability coin call; every row must match the
    reference run alone, bit for bit."""

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    @pytest.mark.parametrize("efficiency", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("k", [1.0, 2.0, 10.0])
    def test_batch_matches_reference_row_by_row(self, policy, efficiency, k):
        # activation at day 0, mid-run, on the horizon and after it
        for activation_day, ramp_days in itertools.product((0, 30, 40, 45), (0, 10)):
            params = SimulationParams(
                incubation_days=10, horizon_days=40, initial_infected=5, max_active=10**9,
                quarantine_factor=k, efficiency=efficiency, activation_day=activation_day,
                ramp_days=ramp_days, alert_policy=policy)
            assert not assert_batch_matches_reference(params, [3, 77, 5])

    @pytest.mark.parametrize("policy, cap", [(AlertPolicy.FROM_INFECTION, 8_000),
                                             (AlertPolicy.AT_DETECTION, 10_000)])
    def test_rows_abort_on_their_own_days_while_the_rest_finish(self, policy, cap):
        params = SimulationParams(horizon_days=45, max_active=cap, efficiency=0.6,
                                  initial_infected=3, replicates=8, alert_policy=policy)
        seeds = [derive_seed(8, r) for r in range(params.replicates)]
        aborts = assert_batch_matches_reference(params, seeds)
        days = sorted(abort.day for abort in aborts.values())
        assert len(set(days)) >= 2 and len(aborts) < params.replicates  # not vacuous
        ensemble = run_ensemble(params, 8)
        assert ensemble.aborted_replicates == sorted(aborts)
        expected = reference_rows(params, seeds)
        for r, row in enumerate(expected):
            partial = row.series if isinstance(row, AbortCapExceeded) else row[0]
            assert np.array_equal(ensemble.daily[r], partial[: days[0]])

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    @pytest.mark.parametrize("efficiency, k", [(0.0, 10.0), (0.6, 1.0), (0.6, 10.0)])
    def test_batch_of_one(self, policy, efficiency, k):
        params = SimulationParams(horizon_days=50, efficiency=efficiency,
                                  quarantine_factor=k, alert_policy=policy)
        assert not assert_batch_matches_reference(params, [11])
        assert np.array_equal(run_replicate(params, 11), reference_simulate(params, 11)[0])
        capped = replace(params, max_active=2_000)
        assert assert_batch_matches_reference(capped, [11])
        with pytest.raises(AbortCapExceeded) as expected:
            reference_simulate(capped, 11)
        with pytest.raises(AbortCapExceeded) as actual:
            run_replicate(capped, 11)
        assert (actual.value.day, actual.value.active) == (expected.value.day,
                                                            expected.value.active)
        assert np.array_equal(actual.value.series, expected.value.series)

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    def test_rows_that_die_out_stop_drawing(self, policy):
        params = SimulationParams(r0=1.5, initial_infected=2, horizon_days=40, efficiency=0.3,
                                  activation_day=0, ramp_days=0, alert_policy=policy)
        seeds = list(range(12))
        assert_batch_matches_reference(params, seeds)
        series, _, _ = _simulate(params, seeds)
        window = series[:, -params.incubation_days:].sum(axis=1)
        assert 0 < (window == 0).sum() < len(seeds)  # some rows die out, some do not

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    def test_mean_completed_offspring_matches(self, policy):
        params = SimulationParams(horizon_days=45, efficiency=0.6, alert_policy=policy)
        born = np.arange(params.horizon_days + 1)
        cohorts = (born > 20) & (born <= params.horizon_days - params.incubation_days)
        rows = reference_rows(params, [derive_seed(5, r) for r in range(3)])
        offspring = sum(int(row[1][cohorts].sum()) for row in rows)
        cases = sum(int(row[0][cohorts].sum()) for row in rows)
        assert mean_completed_offspring(params, base_seed=5, replicates=3,
                                        after_day=20) == (offspring / cases, cases)


class TestFork:
    """`run_ensembles` runs each no-app twin once and resumes every set
    whose alerts can act from the twin's state on its fork day, the first
    day it could draw an alert coin.  Each column must equal its own
    `run_ensemble`, and each row of a shared run the reference run alone."""

    @staticmethod
    def assert_columns_match(columns: list[SimulationParams], base_seed: int) -> list:
        """Check `columns` (one twin for all) against each column run alone and
        the reference; return the shared run's (series, offspring, aborts)."""
        seeds = [derive_seed(base_seed, r) for r in range(columns[0].replicates)]
        sets = list(dict.fromkeys(epidemic._runs_as(params) for params in columns))
        runs = epidemic._simulate_sets(sets, seeds)
        for params, run in zip(sets, runs):
            assert_rows_match_reference(params, seeds, *run)
        ensembles = run_ensembles(columns, base_seed)
        assert len(ensembles) == len(columns)
        for params, ensemble in zip(columns, ensembles):
            alone = run_ensemble(params, base_seed)
            assert np.array_equal(ensemble.daily, alone.daily)
            assert ensemble.aborted_replicates == alone.aborted_replicates
        return runs

    @staticmethod
    def columns(base: SimulationParams) -> list[SimulationParams]:
        """The no-app baseline and alert settings of `base` with fork days on
        day 0, before, within and after the ramps of the others, past the
        horizon (the twin itself) and a k=1 column (the twin too)."""
        alerts = [replace(base, activation_day=day, ramp_days=ramp)
                  for day, ramp in ((0, 0), (0, 10), (10, 10), (20, 10), (29, 10), (38, 0))]
        return [base.without_app(), *alerts, replace(base, activation_day=base.horizon_days + 5),
                replace(base, quarantine_factor=1.0)]

    BASE = SimulationParams(incubation_days=10, horizon_days=40, initial_infected=5,
                            efficiency=0.6, replicates=6)

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    def test_forks_match_their_runs_alone(self, policy):
        base = replace(self.BASE, alert_policy=policy)
        columns = self.columns(base)
        forks = sorted({epidemic._fork_day(p) for p in columns if epidemic.alerts_can_act(p)})
        assert forks[0] == 0 and len(forks) >= 5  # a fork day 0, and days within the run
        assert not epidemic.alerts_can_act(columns[-2])  # a fork day past the horizon
        self.assert_columns_match(columns, 3)
        # no column needs the twin's whole series: it runs to the last fork day
        self.assert_columns_match(columns[2:-2], 3)

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    def test_caps_abort_before_and_after_the_fork_day(self, policy):
        base = replace(self.BASE, max_active=500, replicates=8, alert_policy=policy)
        columns = self.columns(base)
        _, _, aborts = self.assert_columns_match(columns, 8)[0]
        days = [abort.day for abort in aborts.values()]
        assert any(min(days) < epidemic._fork_day(p) <= max(days)  # not vacuous
                   for p in columns if epidemic.alerts_can_act(p))

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    def test_outbreaks_that_die_out_before_the_fork_day(self, policy):
        # r0=0.8: some rows die out before a fork day and some after it
        base = replace(self.BASE, r0=0.8, initial_infected=2, replicates=12, alert_policy=policy)
        columns = [base.without_app(), *(replace(base, activation_day=day, ramp_days=10)
                                         for day in (10, 20, 29))]
        series, _, _ = self.assert_columns_match(columns, 8)[0]
        fork = epidemic._fork_day(columns[2])
        gone = series[:, fork - base.incubation_days : fork].sum(axis=1) == 0
        assert 0 < gone.sum() < len(gone)  # not vacuous

    def test_columns_of_different_twins_and_blocks(self):
        # r0, replicates or horizon change the twin; 66 replicates make two
        # blocks, and the cap stops rows of both
        base = SimulationParams(horizon_days=35, activation_day=15, replicates=66, max_active=5000)
        columns = [base.without_app(), base, replace(base, alert_policy=AlertPolicy.AT_DETECTION),
                   replace(base, r0=2.5), replace(base, replicates=3),
                   replace(base, horizon_days=30), base]
        ensembles = run_ensembles(columns, 9)
        for params, ensemble in zip(columns, ensembles):
            alone = run_ensemble(params, 9)
            assert np.array_equal(ensemble.daily, alone.daily)
            assert ensemble.aborted_replicates == alone.aborted_replicates
        assert ensembles[1] is ensembles[-1]  # equal columns share one ensemble
        assert {1, 64} <= set(ensembles[0].aborted_replicates)

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    def test_the_twins_prefix_is_drawn_once(self, monkeypatch, policy):
        calls = {"poisson": 0, "binomial": 0}

        class CountingGenerator(np.random.Generator):
            def poisson(self, *args, **kwargs):
                calls["poisson"] += 1
                return super().poisson(*args, **kwargs)

            def binomial(self, *args, **kwargs):
                calls["binomial"] += 1
                return super().binomial(*args, **kwargs)

        def counted(params: list[SimulationParams]) -> dict[str, int]:
            before = dict(calls)
            run_ensembles(params, 5)
            return {name: calls[name] - before[name] for name in calls}

        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        base = SimulationParams(horizon_days=40, replicates=3, alert_policy=policy)
        twin = base.without_app()
        acting = [replace(base, activation_day=day) for day in (20, 25, 30)]
        expected = counted([twin])
        for params in acting:
            # the column's draws from its fork day on: its own run's, less its
            # twin's on the days before the fork day
            fork = epidemic._fork_day(params)
            alone, prefix = counted([params]), counted([replace(twin, horizon_days=fork - 1)])
            assert prefix["poisson"] > 0 and prefix["binomial"] == 0
            expected = {name: expected[name] + alone[name] - prefix[name] for name in calls}
        assert counted([twin, *acting]) == expected


def test_at_detection_state_beyond_the_rows_is_bounded_by_the_incubation_window():
    # the (j, u) counts are a window over the incubation days and blocks of
    # replicates advance in turn, so past the series and offspring rows the
    # engine holds O(incubation_days**2) per replicate of a block.  Every
    # array is allocated when its block starts, so the peak does not depend
    # on how long the outbreak lasts (the same to the byte at r0=0 and for
    # an outbreak alive on day 365); a subcritical r0 keeps the traced run
    # short, since tracemalloc slows each numpy call several times over
    params = SimulationParams(r0=0.5, activation_day=0, ramp_days=0, horizon_days=365,
                              replicates=200, alert_policy=AlertPolicy.AT_DETECTION)
    run_ensemble(replace(params, horizon_days=20, replicates=2), 1)  # first-call allocations
    tracemalloc.start()
    ensemble = run_ensemble(params, 3)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert ensemble.daily.shape == (200, 366) and ensemble.daily[:, 15:].any()
    assert peak < 4 * ensemble.daily.nbytes


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
        assert series.dtype == np.int64
        assert np.array_equal(series, expected)

    def test_determinism(self):
        params = SimulationParams(horizon_days=40)
        a = run_replicate(params, 987654321)
        b = run_replicate(params, 987654321)
        assert np.array_equal(a, b)

    def test_null_effect_equivalences(self):
        seed = 24680
        baseline = run_replicate(HEADLINE.without_app(), seed)
        k_one = run_replicate(SimulationParams(quarantine_factor=1.0), seed)
        silent = run_replicate(SimulationParams(activation_day=61), seed)
        k_one_at_detection = run_replicate(
            SimulationParams(quarantine_factor=1.0, alert_policy=AlertPolicy.AT_DETECTION), seed)
        for twin in (k_one, silent, k_one_at_detection):
            assert np.array_equal(baseline, twin)

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    def test_without_app_resets_only_fields_the_baseline_does_not_read(self, policy):
        params = SimulationParams(horizon_days=40, efficiency=0.6, quarantine_factor=4.0,
                                  activation_day=5, ramp_days=3, alert_policy=policy)
        twin = params.without_app()
        assert not epidemic.alerts_can_act(twin)
        assert (twin.r0, twin.incubation_days, twin.initial_infected, twin.horizon_days,
                twin.replicates, twin.max_active) == (3.0, 14, 10, 40, 50, 5_000_000)
        assert twin.without_app() == twin
        # the same series as resetting efficiency alone
        for seed in (1, 7):
            assert np.array_equal(run_replicate(twin, seed),
                                  run_replicate(replace(params, efficiency=0.0), seed))

    @pytest.mark.parametrize("policy", list(AlertPolicy))
    def test_no_coin_is_drawn_when_no_alert_can_act(self, monkeypatch, policy):
        calls = []

        class CountingGenerator(np.random.Generator):
            def binomial(self, *args, **kwargs):
                calls.append(args)
                return super().binomial(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        params = SimulationParams(horizon_days=45, efficiency=0.6, activation_day=20,
                                  alert_policy=policy)
        seeds = [3, 77, 5]
        for silent in (replace(params, quarantine_factor=1.0), replace(params, efficiency=0.0),
                       replace(params, activation_day=46)):
            assert not epidemic.alerts_can_act(silent)
            _simulate(silent, seeds)
            assert not calls
        _simulate(params, seeds)
        assert calls  # the counter sees the engine's coins

    def test_conservation(self):
        # every case after day 0 is credited as offspring to one infection day
        for policy in AlertPolicy:
            series, offspring, _ = _simulate(
                SimulationParams(horizon_days=30, efficiency=0.5, alert_policy=policy), [13, 14])
            assert np.array_equal(offspring.sum(axis=1), series[:, 1:].sum(axis=1))
            assert (offspring.sum(axis=1) > 0).all()

    def test_abort_cap(self):
        params = SimulationParams(max_active=50, horizon_days=60)
        with pytest.raises(AbortCapExceeded) as info:
            run_replicate(params, 5)
        # the partial series runs from day 0 up to the abort day
        assert len(info.value.series) == info.value.day
        assert info.value.day <= params.horizon_days

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
        assert np.array_equal(ensemble.daily[0], lone)
        assert np.array_equal(ensemble.mean, lone.astype(float))

    def test_order_free_seed_derivation(self):
        params = SimulationParams(replicates=6, horizon_days=25)
        ensemble = run_ensemble(params, 55)
        # recompute replicate 3 in isolation
        lone = run_replicate(params, derive_seed(55, 3))
        assert np.array_equal(ensemble.daily[3], lone)

    def test_relative_se_of_cumulative_is_small(self):
        # empirical fixture: 50 replicates keep the day-30 cumulative tight
        ensemble = run_ensemble(HEADLINE, 42)
        mean, se = ensemble.cumulative_stats(30)
        assert se / mean < 0.15
        cumulative = np.cumsum(ensemble.daily, axis=1)[:, 30].astype(float)
        assert mean == cumulative.mean()
        assert se == cumulative.std(ddof=1) / np.sqrt(len(cumulative))

    def test_aborting_replicate_marks_truncation(self):
        params = SimulationParams(max_active=60, horizon_days=50, replicates=3)
        ensemble = run_ensemble(params, 4)
        assert ensemble.aborted_replicates  # reported, not dropped
        assert ensemble.daily.shape[0] == 3
        assert ensemble.daily.shape[1] <= params.horizon_days  # cut to the partial series

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
        se = ensemble.daily[:, 1:].std(axis=0, ddof=1) / np.sqrt(params.replicates)
        z = (ensemble.mean[1:] - expected[1:]) / se
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
