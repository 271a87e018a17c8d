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

Engine: a replicate counts cohorts, not people.  Its state is
count[s, j, u]: the cases infected on day s whose alert takes effect on
day s+j (j = incubation_days: never alerted), split by whether they will
upload at detection (u, used by AT_DETECTION only).  A sum of independent
Poisson draws over n identical cases is one Poisson draw at n times the
rate, and thinning a Poisson count by independent coins gives Poisson
counts, so the recursion is exact.  On day d each source day s in
d-incubation_days..d-1 draws one Poisson for its offspring, at rate
r0/incubation_days times (cases not yet alerted + alerted cases / k).
Binomial splits then place the new cases: under FROM_INFECTION
Binomial(total, efficiency * level(d)) are alerted at creation; under
AT_DETECTION each source day's offspring are split by the uploaders'
share of its rate and then by efficiency, and the app users among the
uploaders' offspring are alerted on day s+incubation_days.  Only the
upload of a case's own parent can change its transmission, so each
cohort's upload coins are drawn when it is created, reading the level of
its detection day; that has the law of a coin drawn on the detection day.

RNG discipline: replicate seed ``seed`` feeds two generators,
derive_seed(seed, 0) for the transmission Poisson draws and
derive_seed(seed, 1) for the binomial coins.  The series reads the coin
stream only when an alert can change a rate: some adoption, k > 1 and an
activation level above 0 by the horizon.  Otherwise (k=1, efficiency=0,
activation after the horizon) the engine calls no coin and every
transmission rate is the same whole number of cases times
r0/incubation_days, so the transmission stream sees the same rates and
the series are bit-identical by construction, under either policy.
Where alerts do matter, a coin call of probability 0 is skipped: numpy
draws nothing for it, so the coin stream is the same as if it were made.
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


def _simulate(params: SimulationParams, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One replicate: (new cases per day, offspring credited to each infection day)."""
    days, horizon = params.incubation_days, params.horizon_days
    spread = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
    coins = np.random.Generator(np.random.PCG64(derive_seed(seed, 1)))
    at_detection = params.alert_policy is AlertPolicy.AT_DETECTION
    alerts_matter = alerts_can_act(params)
    never = days  # alert offset of cases that are never alerted
    # weight[a, j]: relative rate, a days after infection, of a case whose
    # alert takes effect j days after infection
    a, j = np.ogrid[: days + 1, : days + 1]
    weight = np.where((j <= a) & (j < never), 1.0 / params.quarantine_factor, 1.0)
    count = np.zeros((horizon + 1, days + 1, 2), np.int64)  # [infection day, j, uploads]
    series = np.zeros(horizon + 1, np.int64)
    offspring = np.zeros(horizon + 1, np.int64)

    # numpy's binomial draws nothing at probability 0, so each coin call
    # below is skipped where its probability is 0 and leaves the coin
    # stream as drawing it would
    def create(day: int, total: int, alerted_by_source: np.ndarray) -> None:
        series[day] = total
        if not alerts_matter:
            return
        cohort = np.zeros(days + 1, np.int64)
        if at_detection:
            # children of source day s are alerted on s's detection day s+days
            cohort[days - len(alerted_by_source) : days] = alerted_by_source
        else:
            alert_prob = params.efficiency * activation_level(day, params)
            if alert_prob > 0:
                cohort[0] = coins.binomial(total, alert_prob)
        cohort[never] = total - cohort.sum()
        upload_prob = activation_level(day + days, params) if at_detection else 0.0
        if upload_prob > 0:
            count[day, :, 1] = coins.binomial(cohort, upload_prob)
        count[day, :, 0] = cohort - count[day, :, 1]

    create(0, params.initial_infected, np.zeros(0, np.int64))
    for day in range(1, horizon + 1):
        lo = max(0, day - days)
        active = int(series[lo:day].sum())
        if active > params.max_active:
            raise AbortCapExceeded(day, active, series[:day].copy())
        if alerts_matter:
            # weighted cases per source day and upload flag
            weighted = np.einsum("sj,sju->su", weight[day - lo : 0 : -1], count[lo:day])
            rates = weighted.sum(axis=1)
        else:
            rates = series[lo:day]  # the einsum's totals when no case is alerted
        born = spread.poisson(params.r0 / days * rates)
        offspring[lo:day] += born
        alerted = np.zeros(0, np.int64)
        if alerts_matter and at_detection and weighted[:, 1].any():
            share = np.divide(weighted[:, 1], rates, out=np.zeros_like(rates), where=rates > 0)
            alerted = coins.binomial(coins.binomial(born, share), params.efficiency)
        create(day, int(born.sum()), alerted)
    return series, offspring


def run_replicate(params: SimulationParams, seed: int) -> np.ndarray:
    """One replicate's new infections per day, day 0 through the horizon
    (int64); bit-identical for identical inputs."""
    return _simulate(params, seed)[0]


def run_ensemble(params: SimulationParams, base_seed: int) -> EnsembleSeries:
    """The daily series of `params.replicates` independent runs and their mean.

    Replicate r draws its seed from (base_seed, r) with a keyed digest, so
    results do not depend on execution order.  A replicate that hits the
    activity cap contributes its partial series, every row is cut to the
    shortest, and the capped replicates are listed in
    `aborted_replicates`; nothing is dropped silently.
    """
    rows: list[np.ndarray] = []
    aborted: list[int] = []
    for r in range(params.replicates):
        seed = derive_seed(base_seed, r)
        try:
            rows.append(run_replicate(params, seed))
        except AbortCapExceeded as abort:
            rows.append(abort.series)
            aborted.append(r)
    length = min(len(row) for row in rows)
    stack = np.stack([row[:length] for row in rows])
    return EnsembleSeries(daily=stack, aborted_replicates=aborted)


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
    total = 0
    count = 0
    for r in range(replicates):
        series, offspring = _simulate(params, derive_seed(base_seed, r))
        total += int(offspring[cohorts].sum())
        count += int(series[cohorts].sum())
    if count == 0:
        raise ValueError("cohort window is empty at these parameters")
    return total / count, count
