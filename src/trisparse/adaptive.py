"""Adaptive choice of the sampling rate: concentration-condition checks,
a grid recommendation, and the doubling search with multi-trial stability
deduction."""

from __future__ import annotations

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .graph import Graph
from .sparsify import SparsifyParams, estimate_triangles

# Base of the logarithm in the (log n)^(6+gamma) thresholds; shared with
# the sampling-budget formulas in baselines.
LOG_BASE = math.e

DELTA_DOMINANT = "delta_dominant"
TRIANGLE_DOMINANT = "triangle_dominant"

DEFAULT_GAMMA = 1.0
DEFAULT_P_FLOOR = 0.001
DEFAULT_TRIALS_PER_P = 6
DEFAULT_SPREAD_THRESHOLD = 0.1


# p^2*delta_max is a rounded product: at an exact tie such as p = n^-1/2,
# delta_max = n it can land an ulp or two below 1, so values this close
# to 1 count as the tie
_TIE_TOLERANCE = 4 * sys.float_info.epsilon


def _log(x: float) -> float:
    return math.log(x) / math.log(LOG_BASE)


@dataclass(frozen=True)
class ConditionReport:
    """Evaluation of the concentration hypotheses at one sampling rate.

    When p^2 * delta_max >= 1 the shared-edge term dominates and the check
    reads p*t/delta_max >= (log n)^(6+gamma); otherwise it reads
    p^3 * t >= (log n)^(6+gamma). The check is constant-free, so it can
    disagree with observed concentration at moderate n.
    """

    n: int
    t: float
    delta_max: float
    p: float
    gamma: float
    regime: str
    lhs: float
    rhs: float
    satisfied: bool
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "delta_max": self.delta_max,
            "p": self.p,
            "gamma": self.gamma,
            "regime": self.regime,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "satisfied": self.satisfied,
            "degenerate": self.degenerate,
        }


def check_conditions(n: int, t: float, delta_max: float, p: float,
                     gamma: float = DEFAULT_GAMMA) -> ConditionReport:
    """Classify the regime by the sign of p^2*delta_max - 1 (ties, up to
    a few ulps of rounding, go to the shared-edge regime) and compare the
    regime's statistic against (log n)^(6+gamma). Triangle-free inputs
    (t=0 or delta_max=0) are reported unsatisfied with the degenerate
    flag set."""
    if n < 3:
        raise ValueError(f"vertex count must be at least 3, got {n}")
    if t < 0:
        raise ValueError(f"triangle count must be nonnegative, got {t}")
    if delta_max < 0:
        raise ValueError(f"delta_max must be nonnegative, got {delta_max}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"sampling rate must lie in (0, 1], got {p}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")

    rhs = _log(n) ** (6.0 + gamma)
    if p * p * delta_max >= 1.0 - _TIE_TOLERANCE:
        regime = DELTA_DOMINANT
        lhs = p * t / delta_max
    else:
        regime = TRIANGLE_DOMINANT
        lhs = p ** 3 * t
    degenerate = (t == 0) or (delta_max == 0)
    satisfied = (not degenerate) and lhs >= rhs
    return ConditionReport(n=n, t=t, delta_max=delta_max, p=p, gamma=gamma,
                           regime=regime, lhs=lhs, rhs=rhs,
                           satisfied=satisfied, degenerate=degenerate)


def recommendation_grid(n: int) -> list[float]:
    """Doubling grid n^-1/2, 2*n^-1/2, ... capped at 1.0."""
    p = 1.0 / math.sqrt(n)
    grid = []
    while p < 1.0:
        grid.append(p)
        p *= 2.0
    grid.append(1.0)
    return grid


def recommend_p(n: int, t_hint: float | None = None, delta_hint: float | None = None,
                *, gamma: float = DEFAULT_GAMMA, p_floor: float = DEFAULT_P_FLOOR) -> float:
    """Suggest a sampling rate.

    With both hints, returns the smallest grid rate whose condition check
    passes at the given gamma; if none passes, warns and falls back to 1.0
    (exact counting is the only safe choice). Without hints, returns
    n^-1/2 clamped to [p_floor, 1].
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if t_hint is not None and not t_hint > 0:
        raise ValueError(f"triangle hint must be positive when given, got {t_hint}")
    if delta_hint is not None and not delta_hint > 0:
        raise ValueError(f"delta hint must be positive when given, got {delta_hint}")

    base = 1.0 / math.sqrt(n)
    if t_hint is None or delta_hint is None:
        return min(max(base, p_floor), 1.0)
    for p in recommendation_grid(max(n, 3)):
        if check_conditions(max(n, 3), t_hint, delta_hint, p, gamma).satisfied:
            return p
    warnings.warn(
        "no rate in the doubling grid satisfies the concentration conditions; "
        "falling back to exact counting (p = 1)",
        RuntimeWarning,
        stacklevel=2,
    )
    return 1.0


def batch_spread(estimates) -> float | None:
    """Relative range (max - min) / mean; None when the mean is 0."""
    mean = sum(estimates) / len(estimates)
    if mean <= 0:
        return None
    return (max(estimates) - min(estimates)) / mean


@dataclass(frozen=True)
class Batch:
    """One rung of the doubling ladder: all trials at a single rate."""

    p: float
    estimates: tuple[float, ...]
    spread: float | None
    concentrated: bool
    sparsify_time: float
    count_time: float

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "estimates": list(self.estimates),
            "spread": self.spread,
            "concentrated": self.concentrated,
            "sparsify_time": self.sparsify_time,
            "count_time": self.count_time,
        }


@dataclass(frozen=True)
class AdaptiveReport:
    """Full trace of a doubling search.

    ``p_star`` is the first rate whose batch concentrated and
    ``final_estimate`` is that batch's arithmetic mean. If no batch
    concentrated before the p = 1 cap, the capped batch is exact and
    counts as trivially concentrated, so p_star is always set.
    """

    trace: tuple[Batch, ...]
    p_star: float
    final_estimate: float
    p0: float
    trials_per_p: int
    spread_threshold: float
    counter: str
    seed: int
    total_trials: int
    total_time: float
    total_sparsify_time: float
    total_count_time: float

    def to_dict(self) -> dict:
        return {
            "trace": [b.to_dict() for b in self.trace],
            "p_star": self.p_star,
            "final_estimate": self.final_estimate,
            "p0": self.p0,
            "trials_per_p": self.trials_per_p,
            "spread_threshold": self.spread_threshold,
            "counter": self.counter,
            "seed": self.seed,
            "total_trials": self.total_trials,
            "total_time": self.total_time,
            "total_sparsify_time": self.total_sparsify_time,
            "total_count_time": self.total_count_time,
        }


def trial_seed(master_seed: int, batch_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed; every trial owns its own stream."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(batch_index, trial_index))
    return int(ss.generate_state(1)[0])


def default_p0(n: int, p_floor: float = DEFAULT_P_FLOOR) -> float:
    """Starting rate for the doubling search: max(n^-1/2, p_floor)."""
    if n < 1:
        return 1.0
    return min(max(1.0 / math.sqrt(n), p_floor), 1.0)


def _run_batch(g: Graph, p: float, batch_index: int, trials: int,
               threshold: float, counter: str, seed: int, threads: int) -> Batch:
    params = [SparsifyParams(p=p, seed=trial_seed(seed, batch_index, j))
              for j in range(trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda pr: estimate_triangles(g, pr, counter), params))
    else:
        results = [estimate_triangles(g, pr, counter) for pr in params]
    estimates = tuple(r.estimate for r in results)
    spread = batch_spread(estimates)
    if p >= 1.0:
        # nothing is sampled away at p = 1: the estimates are exact, so the
        # batch is trivially concentrated even if the graph is triangle-free
        concentrated = True
    else:
        concentrated = (min(estimates) > 0 and spread is not None
                        and spread <= threshold)
    return Batch(
        p=p,
        estimates=estimates,
        spread=spread,
        concentrated=concentrated,
        sparsify_time=sum(r.sparsify_time for r in results),
        count_time=sum(r.count_time for r in results),
    )


def doubling_search(g: Graph, p0: float | None = None,
                    trials_per_p: int = DEFAULT_TRIALS_PER_P,
                    spread_threshold: float = DEFAULT_SPREAD_THRESHOLD,
                    counter: str = "node", seed: int = 0,
                    threads: int = 1) -> AdaptiveReport:
    """Estimate repeatedly at p0, 2*p0, 4*p0, ... until the batch of
    trials stabilizes (relative range at most ``spread_threshold`` with
    all-positive estimates), then report that batch's mean.

    Batches containing a zero estimate, or with zero mean, never count as
    concentrated below p = 1: an all-quiet sample says nothing reliable.
    The rate is capped at 1, where counting is exact, so the search always
    terminates within ceil(log2(1/p0)) + 1 batches.
    """
    if p0 is None:
        p0 = default_p0(g.n)
    if not (0.0 < p0 <= 1.0):
        raise ValueError(f"starting rate must lie in (0, 1], got {p0}")
    if trials_per_p < 2:
        raise ValueError(f"need at least 2 trials per rate, got {trials_per_p}")
    if not spread_threshold > 0:
        raise ValueError(f"spread threshold must be positive, got {spread_threshold}")

    start = perf_counter()
    trace: list[Batch] = []
    p = p0
    batch_index = 0
    while True:
        batch = _run_batch(g, p, batch_index, trials_per_p, spread_threshold,
                           counter, seed, threads)
        trace.append(batch)
        if batch.concentrated or p >= 1.0:
            break
        p = min(2.0 * p, 1.0)
        batch_index += 1
    total_time = perf_counter() - start

    final = trace[-1]
    return AdaptiveReport(
        trace=tuple(trace),
        p_star=final.p,
        final_estimate=sum(final.estimates) / len(final.estimates),
        p0=p0,
        trials_per_p=trials_per_p,
        spread_threshold=spread_threshold,
        counter=counter,
        seed=seed,
        total_trials=sum(len(b.estimates) for b in trace),
        total_time=total_time,
        total_sparsify_time=sum(b.sparsify_time for b in trace),
        total_count_time=sum(b.count_time for b in trace),
    )
