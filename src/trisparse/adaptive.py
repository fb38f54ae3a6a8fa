"""Adaptive choice of the sampling rate: concentration-condition checks,
a grid recommendation, and the doubling search with multi-trial stability
deduction."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .exact import _in_order, check_threads
from .graph import Graph
from .sparsify import Estimate, SparsifyParams, estimate_triangles

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

    rhs = math.log(n) ** (6.0 + gamma)
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
                *, gamma: float = DEFAULT_GAMMA) -> float:
    """Suggest a sampling rate.

    With both hints, returns the smallest grid rate whose condition check
    passes at the given gamma; if none passes, warns and falls back to 1.0
    (exact counting is the only safe choice). Without hints, returns
    ``default_p0(n)``.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if t_hint is not None and not t_hint > 0:
        raise ValueError(f"triangle hint must be positive when given, got {t_hint}")
    if delta_hint is not None and not delta_hint > 0:
        raise ValueError(f"delta hint must be positive when given, got {delta_hint}")

    if t_hint is None or delta_hint is None:
        return default_p0(n)
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
    seed: int
    total_trials: int
    total_time: float
    total_sparsify_time: float
    total_count_time: float
    # every trial counts its sample with the forward node scan
    counter: str = field(default="node", init=False)


def trial_seed(master_seed: int, batch_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed; every trial owns its own stream."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(batch_index, trial_index))
    return int(ss.generate_state(1)[0])


def default_p0(n: int) -> float:
    """Starting rate for the doubling search: n^-1/2 clamped to
    [DEFAULT_P_FLOOR, 1], and 1 for an empty graph."""
    if n < 1:
        return 1.0
    return min(max(1.0 / math.sqrt(n), DEFAULT_P_FLOOR), 1.0)


def run_trials(g: Graph, p: float, seed: int, batch_index: int, trials: int,
               threads: int = 1) -> list[Estimate]:
    """Sparsify-and-count ``trials`` times at rate p on a pool of
    ``threads`` (at least 1) workers, or inline on the calling thread at
    one; trial j uses seed ``trial_seed(seed, batch_index, j)``. Results
    come back in trial order, whatever the thread count."""
    check_threads(threads)
    params = (SparsifyParams(p=p, seed=trial_seed(seed, batch_index, j)) for j in range(trials))
    return list(_in_order(lambda pr: estimate_triangles(g, pr), params, threads))


def check_search(p0: float | None, trials_per_p: int, spread_threshold: float) -> None:
    """Reject the search settings ``doubling_search`` cannot run with; a
    p0 of None stands for the default rate."""
    if p0 is not None and not (0.0 < p0 <= 1.0):
        raise ValueError(f"starting rate must lie in (0, 1], got {p0}")
    if trials_per_p < 2:
        raise ValueError(f"need at least 2 trials per rate, got {trials_per_p}")
    if not spread_threshold > 0:
        raise ValueError(f"spread threshold must be positive, got {spread_threshold}")


def doubling_search(g: Graph, p0: float | None = None,
                    trials_per_p: int = DEFAULT_TRIALS_PER_P,
                    spread_threshold: float = DEFAULT_SPREAD_THRESHOLD,
                    seed: int = 0, threads: int = 1) -> AdaptiveReport:
    """Estimate repeatedly at p0, 2*p0, 4*p0, ... until the batch of
    trials stabilizes (relative range at most ``spread_threshold`` with
    all-positive estimates), then report that batch's mean.

    Batches containing a zero estimate, or with zero mean, never count as
    concentrated below p = 1: an all-quiet sample says nothing reliable.
    The rate is capped at 1, where counting is exact, so the search always
    terminates within ceil(log2(1/p0)) + 1 batches.
    """
    check_search(p0, trials_per_p, spread_threshold)
    if p0 is None:
        p0 = default_p0(g.n)

    start = perf_counter()
    trace: list[Batch] = []
    p = p0
    while True:
        results = run_trials(g, p, seed, len(trace), trials_per_p, threads)
        estimates = tuple(r.estimate for r in results)
        spread = batch_spread(estimates)
        # nothing is sampled away at p = 1: the estimates are exact, so the
        # batch is trivially concentrated even if the graph is triangle-free
        concentrated = p >= 1.0 or (min(estimates) > 0 and spread is not None
                                    and spread <= spread_threshold)
        trace.append(Batch(p=p, estimates=estimates, spread=spread,
                           concentrated=concentrated,
                           sparsify_time=sum(r.sparsify_time for r in results),
                           count_time=sum(r.count_time for r in results)))
        if concentrated:
            break
        p = min(2.0 * p, 1.0)
    total_time = perf_counter() - start

    final = trace[-1]
    return AdaptiveReport(
        trace=tuple(trace),
        p_star=final.p,
        final_estimate=sum(final.estimates) / len(final.estimates),
        p0=p0,
        trials_per_p=trials_per_p,
        spread_threshold=spread_threshold,
        seed=seed,
        total_trials=sum(len(b.estimates) for b in trace),
        total_time=total_time,
        total_sparsify_time=sum(b.sparsify_time for b in trace),
        total_count_time=sum(b.count_time for b in trace),
    )
