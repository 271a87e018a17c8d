"""Branching-process Monte Carlo of an outbreak with and without tracing alerts.

Model, in brief: every infected individual is infectious for exactly
``incubation_days`` days after the day of infection and is then detected
and strictly quarantined (zero offspring afterwards).  While infectious it
produces Poisson(r0 / incubation_days) new cases per day, divided by the
quarantine factor k on days it is under an alert.  App adoption is a
per-individual Bernoulli(efficiency) draw.  Alerts switch on at
``activation_day`` and ramp up linearly over ``ramp_days``.

Two alert policies:

* FROM_INFECTION - a new app-user case is alerted at creation with
  probability equal to the current activation level, and then transmits
  at the reduced rate for its whole infectious window.
* AT_DETECTION - every case that reaches detection, app user or not,
  uploads with probability equal to the activation level of its detection
  day.  An upload alerts the uploader's app-user offspring from that day
  on; offspring created on that day are alerted at once.  It also alerts
  the app-user infector, to no effect: the infector's last infectious day
  comes before its child's detection day.

Day convention, which fixes the shape of the headline curve: a case
infected on day s is infectious on days s+1..s+incubation_days, so it
also transmits on its detection day; under FROM_INFECTION its alert coin
reads the activation level of its infection day s; and the ramp is 0 on
``activation_day`` itself and reaches 1 on ``activation_day + ramp_days``
(days 30 and 40 at the headline parameters).  ``expected_daily_incidence``
is the exact mean of the daily series under this convention.  At the
headline parameters its peak is on day 40 and its day-60/peak ratio is
0.10206; changing any one of the three conventions moves that ratio
(infectious days 1..13: 0.068; ramp ending on day 39: 0.092; alert level
read on the transmission day: 0.023).

Engine: a replicate counts cohorts, not people, and the replicates of an
ensemble advance together, a day at a time, in blocks of up to 64.  A set
whose alerts cannot act runs as its `without_app` twin, so there is one
path per policy.  A set is its twin until its fork day, the first day on
which it could draw an alert coin of nonzero probability, so
`run_ensembles` runs each twin once and each set whose alerts can act
from the twin's state on its fork day.  Under AT_DETECTION a replicate's
state is count[i, j, u]: the cases of age incubation_days-i whose alert
takes effect j days after infection (j = incubation_days: never alerted),
split by whether they will upload at detection (u); each day the window
slides up one slot and the newest cohort fills the last.  Under
FROM_INFECTION an alert takes effect at creation or never, so the state is
two counts per infection day: alerted at creation, and not.  A sum of
independent Poisson draws over n identical cases is one Poisson draw at n
times the rate, and thinning a Poisson count by independent coins gives
Poisson counts, so the recursion is exact.  On
day d each source day s in d-incubation_days..d-1 draws one Poisson for its
offspring, at rate r0/incubation_days times (cases not yet alerted +
alerted cases / k).  Binomial splits then place the new cases: under
FROM_INFECTION Binomial(total, efficiency * level(d)) are alerted at
creation; under AT_DETECTION each source day's offspring are split by the
uploaders' share of its rate and then by efficiency, and the app users
among the uploaders' offspring are alerted on day s+incubation_days.  Only
the upload of a case's own parent can change its transmission, so each
cohort's upload coins are drawn when it is created, reading the level of
its detection day; that has the law of a coin drawn on the detection day.
The cap, the rates, the offspring credit and the cohort split are one numpy
expression per day over the block; the draws are one call per replicate.
A replicate that passes `max_active` stops drawing and keeps its partial
series, and one with no infectious case left stops too (it has no more
cases), while the rest run on.

RNG discipline: replicate seed ``seed`` feeds two generators of its own,
derive_seed(seed, 0) for the transmission Poisson draws and
derive_seed(seed, 1) for the binomial coins, and each replicate calls them
in the same order as if it ran alone.  So a series depends on its seed
only, not on the block it runs in or on the other replicates, and an
ensemble does not depend on execution order.  A coin call of probability
0 is skipped: numpy draws nothing for it, so the coin stream is the same
as if it were made.  The series reads the coin stream only when an alert
can change a rate: some adoption, k > 1 and an activation level above 0
by the horizon.  Otherwise (k=1, efficiency=0, activation after the
horizon) the set runs as its `without_app` twin under FROM_INFECTION,
where every coin has probability 0 and every transmission rate is the
same whole number of cases times r0/incubation_days, so the series are
bit-identical by construction, under either policy.  The same argument
holds for a set whose alerts can act on the days before its fork day, so
it resumes from the twin's series, offspring and transmission generator
states on that day, with fresh coin generators and every case of the
window never alerted: its series is the one it would draw alone.
The batched rates are the same floats as one replicate's: each is a sum
over j that numpy's einsum takes in the same order for a block as for
one row, and under FROM_INFECTION that sum has one 1/k-weighted term, one
unit term and exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum

import numpy as np

from .crypto import derive_seed

__all__ = [
    "AlertPolicy",
    "SimulationParams",
    "EnsembleSeries",
    "AbortCapExceeded",
    "NoGrowthRoot",
    "activation_level",
    "alerts_can_act",
    "run_replicate",
    "run_ensemble",
    "run_ensembles",
    "expected_daily_incidence",
    "renewal_growth_factor",
    "fit_growth_factor",
    "mean_completed_offspring",
]


class AlertPolicy(Enum):
    FROM_INFECTION = "FromInfection"
    AT_DETECTION = "AtDetection"


class NoGrowthRoot(Exception):
    """The renewal equation has no positive growth root (r0 <= 0)."""


class AbortCapExceeded(Exception):
    """Active infectious count blew past the safety cap.

    Carries the partial series: new infections per day, day 0 up to but
    not including the abort day.
    """

    def __init__(self, day: int, active: int, series: np.ndarray) -> None:
        super().__init__(f"active count {active} exceeded cap on day {day}")
        self.day = day
        self.active = active
        self.series = series


@dataclass(frozen=True)
class SimulationParams:
    """All knobs of the branching model; defaults follow the headline scenario."""

    r0: float = 3.0
    incubation_days: int = 14
    quarantine_factor: float = 10.0
    activation_day: int = 30
    ramp_days: int = 10
    efficiency: float = 1.0
    initial_infected: int = 10
    horizon_days: int = 60
    replicates: int = 50
    max_active: int = 5_000_000
    alert_policy: AlertPolicy = AlertPolicy.FROM_INFECTION

    def __post_init__(self) -> None:
        for f in fields(self):  # NaN would pass every range check below
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.r0 < 0:
            raise ValueError("r0 must be nonnegative")
        if self.incubation_days < 1:
            raise ValueError("incubation_days must be at least 1")
        if self.quarantine_factor < 1:
            raise ValueError("quarantine_factor must be at least 1")
        if self.activation_day < 0:
            raise ValueError("activation_day must be nonnegative")
        if self.ramp_days < 0:
            raise ValueError("ramp_days must be nonnegative")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be within [0, 1]")
        if self.initial_infected < 1:
            raise ValueError("initial_infected must be at least 1")
        if self.horizon_days < 1:
            raise ValueError("horizon_days must be at least 1")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.max_active < 1:
            raise ValueError("max_active must be at least 1")

    def without_app(self) -> "SimulationParams":
        """The seed-coupled no-intervention twin of this parameter set: every
        alert-only field reset, so no alert can act (see `alerts_can_act`)."""
        return replace(self, efficiency=0.0, quarantine_factor=1.0, activation_day=0,
                       ramp_days=0, alert_policy=AlertPolicy.FROM_INFECTION)


@dataclass
class EnsembleSeries:
    """Replicate stack; its per-day mean is read from the stack."""

    daily: np.ndarray            # shape (replicates, days)
    aborted_replicates: list[int] = field(default_factory=list)

    @property
    def mean(self) -> np.ndarray:
        return self.daily.mean(axis=0)

    def cumulative_stats(self, day: int) -> tuple[float, float]:
        """(mean, standard error) of the cumulative count at a given day."""
        cum = self.daily[:, : day + 1].sum(axis=1).astype(float)
        n = cum.shape[0]
        se = cum.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
        return float(cum.mean()), float(se)


def activation_level(day: int, params: SimulationParams) -> float:
    """Fraction of the alert machinery switched on at a given day.

    Zero before the activation day.  With ramp_days > 0 it is also zero on
    the activation day itself and rises linearly to one on day
    activation_day + ramp_days; with ramp_days == 0 it is one from the
    activation day on.
    """
    if day < params.activation_day:
        return 0.0
    if params.ramp_days == 0:
        return 1.0
    return min(1.0, (day - params.activation_day) / params.ramp_days)


def alerts_can_act(params: SimulationParams) -> bool:
    """Whether an alert can change a transmission rate: someone adopts,
    k > 1 and the activation level (which never falls) leaves 0 by the
    horizon.  When none can, each rate is a whole number of cases and the
    series never reads the coins, so it is the same whatever the
    alert-only fields (efficiency, quarantine_factor, activation_day,
    ramp_days, alert_policy) hold."""
    return (params.efficiency > 0 and params.quarantine_factor > 1
            and activation_level(params.horizon_days, params) > 0)


# replicates advanced together: bounds the generators and cohort state held at once
_BLOCK = 64


def _runs_as(params: SimulationParams) -> SimulationParams:
    """The set whose run gives `params`'s series: itself, or its
    `without_app` twin when its alerts cannot act."""
    return params if alerts_can_act(params) else params.without_app()


def _fork_day(params: SimulationParams) -> int:
    """The first day on which a set whose alerts can act could draw an alert
    coin of nonzero probability; until that day it draws what its twin draws."""
    if params.alert_policy is AlertPolicy.AT_DETECTION:  # the upload coin reads the detection day
        return next(day for day in range(params.horizon_days + 1)
                    if activation_level(day + params.incubation_days, params) > 0)
    return next(day for day in range(params.horizon_days + 1)
                if params.efficiency * activation_level(day, params) > 0)


@dataclass
class _Fork:
    """A block of the no-app twin at the start of `day`: the state from which
    a set that shares the twin resumes on its fork day."""

    day: int
    series: np.ndarray       # the days before `day`
    offspring: np.ndarray    # the days before `day`, as credited so far
    spreads: list[dict]      # each row's transmission generator state
    live: list[int]
    aborts: dict[int, AbortCapExceeded]


def _simulate(params: SimulationParams, seeds: list[int]
              ) -> tuple[np.ndarray, np.ndarray, dict[int, AbortCapExceeded]]:
    """One replicate per seed: (new cases per day, offspring credited to
    each infection day), one row per seed, and the abort of each row that
    passed the cap.  A set whose alerts cannot act runs as its
    `without_app` twin."""
    return _simulate_sets([_runs_as(params)], seeds)[0]


def _simulate_sets(sets: list[SimulationParams], seeds: list[int],
                   twin: SimulationParams | None = None
                   ) -> list[tuple[np.ndarray, np.ndarray, dict[int, AbortCapExceeded]]]:
    """`_simulate` of each of `sets`: distinct sets of one `without_app`
    twin (`twin`, found from the sets when not given), each the twin itself
    or a set whose alerts can act.  Blocks of `_BLOCK` rows advance
    together.  In each block the twin runs once, as far as any set needs
    it, and each set with a fork day after day 0 resumes from the twin's
    state on that day; when no two sets would share the twin's run, each
    set runs alone from day 0."""
    forked: dict[SimulationParams, int] = {}
    if len(sets) > 1:
        if twin is None:
            twin = sets[0].without_app()
        forked = {p: day for p in sets if p != twin and (day := _fork_day(p)) > 0}
        if len(forked) + (twin in sets) < 2:
            forked = {}
    shape = (len(seeds), sets[0].horizon_days + 1)
    runs = {p: (np.zeros(shape, np.int64), np.zeros(shape, np.int64), {})
            for p in dict.fromkeys([*sets, twin] if forked else sets)}

    def advance(params: SimulationParams, block: slice, **state) -> dict[int, _Fork]:
        series, offspring, aborts = runs[params]
        aborted, forks = _advance(params, seeds[block], series[block], offspring[block], **state)
        aborts.update((block.start + r, abort) for r, abort in aborted.items())
        return forks

    for start in range(0, len(seeds), _BLOCK):
        block = slice(start, start + _BLOCK)
        if forked:
            forks = advance(twin, block, fork_days=frozenset(forked.values()),
                            until=None if twin in sets else max(forked.values()))
        for params in sets:
            if params in forked:
                advance(params, block, resume=forks[forked[params]])
            elif not forked or params != twin:
                advance(params, block)
    return [runs[p] for p in sets]


def _advance(params: SimulationParams, seeds: list[int], series: np.ndarray,
             offspring: np.ndarray, resume: _Fork | None = None, until: int | None = None,
             fork_days: frozenset[int] = frozenset()
             ) -> tuple[dict[int, AbortCapExceeded], dict[int, _Fork]]:
    """Advance one replicate per seed a day at a time, all together, into
    the zeroed rows of `series` and `offspring`: from day 0, or from the
    twin's state `resume` on this set's fork day, up to day `until` (by
    default through the horizon).  Return the abort of each row that passed
    the cap, and this run's state at the start of each of `fork_days`."""
    days, horizon, rows = params.incubation_days, params.horizon_days, len(seeds)
    spreads = [np.random.Generator(np.random.PCG64(derive_seed(seed, 0))) for seed in seeds]
    coins = [np.random.Generator(np.random.PCG64(derive_seed(seed, 1))) for seed in seeds]
    at_detection = params.alert_policy is AlertPolicy.AT_DETECTION
    never = days  # alert offset of cases that are never alerted
    if at_detection:
        # count[r, i, j, u]: row r's cases of age days-i whose alert takes
        # effect j days after infection, split by whether they will upload;
        # the window slides one slot a day.  weight[i, j]: slot i's relative rate
        count = np.zeros((rows, days, days + 1, 2), np.int64)
        a, j = np.arange(days, 0, -1)[:, None], np.arange(days + 1)
        weight = np.where((j <= a) & (j < never), 1.0 / params.quarantine_factor, 1.0)
    else:
        alerted = np.zeros((rows, horizon + 1), np.int64)  # at creation; the rest never
    live = list(range(rows))  # rows still drawing
    aborts: dict[int, AbortCapExceeded] = {}
    forks: dict[int, _Fork] = {}

    # numpy's binomial draws nothing at probability 0, so each coin call
    # below is skipped where its probability is 0 and leaves the coin
    # stream as drawing it would
    def create(day: int, alerted_by_source: np.ndarray) -> None:
        totals = series[:, day]
        if at_detection:
            # children of source day s are alerted on s's detection day s+days
            cohort = np.zeros((rows, days + 1), np.int64)
            cohort[:, days - alerted_by_source.shape[1] : days] = alerted_by_source
            cohort[:, never] = totals - cohort.sum(axis=1)
            uploads = np.zeros_like(cohort)
            upload_prob = activation_level(day + days, params)
            if upload_prob > 0:
                for r in live:
                    uploads[r] = coins[r].binomial(cohort[r], upload_prob)
            count[:, :-1] = count[:, 1:]
            count[:, -1] = np.stack((cohort - uploads, uploads), axis=2)
        else:
            alert_prob = params.efficiency * activation_level(day, params)
            if alert_prob > 0:
                for r in live:
                    alerted[r, day] = coins[r].binomial(int(totals[r]), alert_prob)

    def fork(day: int) -> _Fork:
        return _Fork(day, series[:, :day].copy(), offspring[:, :day].copy(),
                     [spread.bit_generator.state for spread in spreads], list(live), dict(aborts))

    if resume is None:
        series[:, 0] = params.initial_infected
        create(0, np.zeros((rows, 0), np.int64))
        first = 1
    else:
        # the coin generators stay fresh, since the twin draws no coin; and
        # before the fork day no coin could be drawn, so no case in the
        # window is alerted or will upload
        first = resume.day
        series[:, :first], offspring[:, :first] = resume.series, resume.offspring
        for spread, state in zip(spreads, resume.spreads):
            spread.bit_generator.state = state
        live, aborts = list(resume.live), dict(resume.aborts)
        if at_detection:
            window = min(first, days)
            count[:, days - window :, never, 0] = series[:, first - window : first]
    for day in range(first, horizon + 1 if until is None else until):
        if day in fork_days:
            forks[day] = fork(day)
        lo = max(0, day - days)
        active = series[:, lo:day].sum(axis=1).tolist()
        for r in live:
            if active[r] > params.max_active:
                aborts[r] = AbortCapExceeded(day, active[r], series[r, :day].copy())
        # an aborted row keeps its partial series; a row with no infectious
        # case has no more cases and its draws would all be of nothing
        live = [r for r in live if 0 < active[r] <= params.max_active]
        if not live:
            break
        if at_detection:
            # weighted cases per slot and upload flag; the last day - lo
            # slots hold source days lo..day-1 in day order
            weighted = np.einsum("qj,rqju->rqu", weight, count)[:, lo - day :]
            rates = weighted.sum(axis=2)
        else:
            # the einsum over the (j, u) tensor would sum one 1/k-weighted
            # term, one unit term and exact zeros: the same float as this
            early = alerted[:, lo:day]
            rates = early * (1.0 / params.quarantine_factor) + (series[:, lo:day] - early)
        lam = params.r0 / days * rates
        born = np.zeros((rows, day - lo), np.int64)
        for r in live:
            born[r] = spreads[r].poisson(lam[r])
        offspring[:, lo:day] += born
        series[:, day] = born.sum(axis=1)
        lineage = np.zeros_like(born)
        if at_detection:
            shares = np.divide(weighted[..., 1], rates, out=np.zeros_like(rates), where=rates > 0)
            uploading = weighted[..., 1].any(axis=1)
            for r in live:
                if uploading[r]:
                    lineage[r] = coins[r].binomial(coins[r].binomial(born[r], shares[r]),
                                                   params.efficiency)
        create(day, lineage)
    # the days the loop did not reach: it stopped at `until`, or no row is live
    forks.update((day, fork(day)) for day in fork_days if day not in forks)
    return aborts, forks


def run_replicate(params: SimulationParams, seed: int) -> np.ndarray:
    """One replicate's new infections per day, day 0 through the horizon
    (int64); bit-identical for identical inputs."""
    series, _, aborts = _simulate(params, [seed])
    if aborts:
        raise aborts[0]
    return series[0]


def run_ensemble(params: SimulationParams, base_seed: int) -> EnsembleSeries:
    """The daily series of `params.replicates` independent runs and their mean.

    Replicate r draws its seed from (base_seed, r) with a keyed digest, so
    results do not depend on execution order.  A replicate that hits the
    activity cap contributes its partial series, every row is cut to the
    shortest, and the capped replicates are listed in
    `aborted_replicates`; nothing is dropped silently.
    """
    return run_ensembles([params], base_seed)[0]


def run_ensembles(columns: list[SimulationParams], base_seed: int) -> list[EnsembleSeries]:
    """`run_ensemble(params, base_seed)` of each of `columns`, bit for bit.

    Columns with the same `without_app` twin share its run on the shared
    replicate seeds: a column whose alerts cannot act is its twin, and one
    whose alerts can act draws what the twin draws until its fork day, so
    it runs on from the twin's state on that day.  Equal columns share one
    ensemble.
    """
    twins: dict[SimulationParams, SimulationParams] = {}  # each key's twin
    keys = []
    for params in columns:
        twin = params.without_app()
        keys.append(key := params if alerts_can_act(params) else twin)
        twins.setdefault(key, twin)
    groups: dict[SimulationParams, list[SimulationParams]] = {}
    for key, twin in twins.items():
        groups.setdefault(twin, []).append(key)
    ensembles: dict[SimulationParams, EnsembleSeries] = {}
    for twin, sets in groups.items():
        seeds = [derive_seed(base_seed, r) for r in range(twin.replicates)]
        for key, (series, _, aborts) in zip(sets, _simulate_sets(sets, seeds, twin)):
            length = min((abort.day for abort in aborts.values()),
                         default=key.horizon_days + 1)
            ensembles[key] = EnsembleSeries(daily=series[:, :length],
                                            aborted_replicates=sorted(aborts))
    return [ensembles[key] for key in keys]


def expected_daily_incidence(params: SimulationParams) -> np.ndarray:
    """Exact expected new infections per day, day 0 through the horizon.

    The mean of `run_replicate`'s series under FROM_INFECTION (or without
    the app): the expected cases created on day s, split into alerted and
    not, each add r0/incubation_days (over k when alerted) to every day
    s+1..s+incubation_days, and a case created on day d is alerted with
    probability efficiency * activation_level(d).  AT_DETECTION alerts
    along lineage, which this recursion does not carry.
    """
    if params.alert_policy is AlertPolicy.AT_DETECTION:
        raise ValueError("expected_daily_incidence covers FromInfection only; "
                         "AtDetection alerts depend on lineage")
    rate = params.r0 / params.incubation_days
    total = np.zeros(params.horizon_days + 1)
    effective = np.zeros(params.horizon_days + 1)  # day-d cases weighted by 1/k if alerted
    total[0] = params.initial_infected
    for day in range(params.horizon_days + 1):
        if day > 0:
            total[day] = rate * effective[max(0, day - params.incubation_days) : day].sum()
        alerted = params.efficiency * activation_level(day, params)
        effective[day] = total[day] * (1.0 - alerted + alerted / params.quarantine_factor)
    return total


def renewal_growth_factor(r0: float, incubation_days: int) -> float:
    """Growth factor g per day solving the discrete renewal equation.

    g is the unique positive root of
    (r0/incubation_days) * sum_{a=1..incubation_days} g**(-a) = 1,
    found by bisection to a residual below 1e-10.  Serves as the
    independent oracle for the exponential phase of the simulation.
    """
    if r0 <= 0:
        raise NoGrowthRoot("growth root requires r0 > 0")
    rate = r0 / incubation_days

    def residual(g: float) -> float:
        return rate * sum(g ** (-a) for a in range(1, incubation_days + 1)) - 1.0

    lo, hi = 1e-9, 2.0
    while residual(hi) > 0:
        hi *= 2.0
    mid = 0.5 * (lo + hi)
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        value = residual(mid)
        if abs(value) < 1e-10:
            break
        if value > 0:
            lo = mid
        else:
            hi = mid
    return mid


def fit_growth_factor(daily_mean: np.ndarray, start_day: int, end_day: int) -> float:
    """Per-day growth factor from a log-linear fit over [start_day, end_day]."""
    days = np.arange(start_day, end_day + 1)
    values = np.asarray(daily_mean, dtype=float)[start_day : end_day + 1]
    if np.any(values <= 0):
        raise ValueError("growth window contains non-positive incidence")
    slope = np.polyfit(days, np.log(values), 1)[0]
    return float(np.exp(slope))


def mean_completed_offspring(
    params: SimulationParams,
    base_seed: int,
    replicates: int,
    after_day: int,
) -> tuple[float, int]:
    """Mean total offspring of cohorts infected strictly after `after_day`
    whose full infectious window fits inside the horizon.

    Reads the offspring each fresh replicate credits to its infection
    days; the observable behind the post-ramp offspring checks (expected
    value efficiency*r0/k + (1-efficiency)*r0 once the ramp saturates).
    """
    born = np.arange(params.horizon_days + 1)
    cohorts = (born > after_day) & (born <= params.horizon_days - params.incubation_days)
    series, offspring, aborts = _simulate(
        params, [derive_seed(base_seed, r) for r in range(replicates)])
    if aborts:
        raise aborts[min(aborts)]
    total = int(offspring[:, cohorts].sum())
    count = int(series[:, cohorts].sum())
    if count == 0:
        raise ValueError("cohort window is empty at these parameters")
    return total / count, count
