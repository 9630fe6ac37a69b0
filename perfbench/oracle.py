"""Exact error reference for the collision-based testers.

Independent of the ``repro`` package: every function here takes plain
numbers or a probability vector and returns an exact probability, so the
benchmark can tell a fast route that agrees with its scalar twin from one
that is actually right.

The building block is the probability that ``s`` i.i.d. draws from ``μ``
are pairwise distinct, which is ``s!·e_s(μ)`` with ``e_s`` the elementary
symmetric polynomial of degree ``s`` in the probabilities (sum over the
``s``-subsets of distinct outcomes, times the ``s!`` orders they can be
drawn in).  See Diakonikolas, Gouleakis, Peebles and Price, "Collision-based
Testers are Optimal", for the same exact analysis.  Every network error
below combines that per-tester acceptance probability through the decision
rule:

- AND rule (Theorem 1.1; the Section 6 LOCAL tester over its MIS
  catchments): a node rejects iff all ``m`` of its ``s``-sample copies see a
  collision, and the network rejects iff any of its ``k`` nodes rejects.
- Threshold rule (Theorem 1.2; the Theorem 1.4 CONGEST tester over its
  ``ℓ`` packages of ``τ`` tokens): the network rejects iff at least ``T``
  of the ``k`` independent testers raise an alarm, a binomial tail.

All sums run in log space, so nothing underflows at large ``n`` or ``s``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _logsumexp(values: Sequence[float]) -> float:
    finite = [v for v in values if v != -math.inf]
    if not finite:
        return -math.inf
    top = max(finite)
    return top + math.log(sum(math.exp(v - top) for v in finite))


def _log_comb(n: int, j: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)


# ---------------------------------------------------------------------------
# Collision-free probability s!·e_s(μ)
# ---------------------------------------------------------------------------


def collision_free_dp(probs: Sequence[float], s: int) -> float:
    """``s!·e_s(μ)`` by the O(n·s) dynamic program over the probabilities.

    ``e[j]`` holds ``e_j`` of the outcomes seen so far; adding outcome
    ``x`` updates ``e[j] += μ(x)·e[j−1]`` from the top down.  The plain
    reference the grouped and closed-form versions are tested against.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    e = np.zeros(s + 1)
    e[0] = 1.0
    for p in np.asarray(probs, dtype=np.float64):
        e[1:] = e[1:] + p * e[:-1]
    return float(math.exp(math.lgamma(s + 1)) * e[s])


def log_collision_free(probs: Sequence[float], s: int) -> float:
    """``log(s!·e_s(μ))`` grouped by distinct probability value.

    Outcomes sharing a mass ``v`` contribute the factor ``(1 + v·x)^c`` to
    the generating polynomial ``∏(1 + μ(x)·x)``, whose coefficients are
    ``C(c, j)·v^j``; multiplying one factor per distinct value, truncated
    at degree ``s``, costs O(g·s²) for ``g`` distinct values — a handful for
    every distribution the benchmark uses.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    values, counts = np.unique(np.asarray(probs, dtype=np.float64), return_counts=True)
    log_e = [0.0] + [-math.inf] * s
    for v, c in zip(values.tolist(), counts.tolist()):
        if v <= 0.0:
            continue
        factor = [
            _log_comb(c, j) + j * math.log(v) if j <= c else -math.inf
            for j in range(s + 1)
        ]
        log_e = [
            _logsumexp([log_e[i] + factor[j - i] for i in range(j + 1)])
            for j in range(s + 1)
        ]
    return math.lgamma(s + 1) + log_e[s]


def collision_free(probs: Sequence[float], s: int) -> float:
    """``s!·e_s(μ)``: probability that ``s`` draws from ``μ`` are distinct."""
    return math.exp(log_collision_free(probs, s))


def collision_free_uniform(n: int, s: int) -> float:
    """Closed form for ``U_n``: ``∏_{i<s} (1 − i/n)``."""
    if s > n:
        return 0.0
    return math.exp(sum(math.log1p(-i / n) for i in range(s)))


def collision_free_support(m: int, a: float, b: float, s: int) -> float:
    """Closed form for mass ``a`` on ``m`` outcomes plus one outcome of
    mass ``b`` (the restricted-support family; ``b = 0`` is plain uniform
    over ``m``): ``s!·(C(m, s)·a^s + C(m, s−1)·a^{s−1}·b)``."""
    total = 0.0
    if s <= m:
        total += math.exp(_log_comb(m, s) + s * math.log(a))
    if b > 0.0 and 1 <= s <= m + 1:
        total += math.exp(_log_comb(m, s - 1) + (s - 1) * math.log(a)) * b
    return math.exp(math.lgamma(s + 1)) * total


# ---------------------------------------------------------------------------
# Binomial tails and decision rules
# ---------------------------------------------------------------------------


def _log_pmf(n: int, p: float, j: int) -> float:
    if p <= 0.0:
        return 0.0 if j == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if j == n else -math.inf
    return _log_comb(n, j) + j * math.log(p) + (n - j) * math.log1p(-p)


def _tail(n: int, p: float, start: int, step: int) -> float:
    """Sum of the pmf from *start* outward (``step`` = ±1) to the end.

    Only called on the side of the mode where the terms shrink, so the
    sum stops once a term falls below 1e-18 of the first one.
    """
    first = _log_pmf(n, p, start)
    if first == -math.inf:
        return 0.0
    total, j = 0.0, start
    while 0 <= j <= n:
        term = math.exp(_log_pmf(n, p, j) - first)
        total += term
        if term < 1e-18:
            break
        j += step
    return math.exp(first) * total


def binomial_upper(n: int, p: float, t: int) -> float:
    """``P(Bin(n, p) ≥ t)``."""
    if t <= 0:
        return 1.0
    if t > n:
        return 0.0
    if t > n * p:
        return min(1.0, _tail(n, p, t, +1))
    return max(0.0, 1.0 - _tail(n, p, t - 1, -1))


def binomial_lower(n: int, p: float, t: int) -> float:
    """``P(Bin(n, p) ≤ t)``."""
    if t < 0:
        return 0.0
    if t >= n:
        return 1.0
    if t < n * p:
        return min(1.0, _tail(n, p, t, -1))
    return max(0.0, 1.0 - _tail(n, p, t + 1, +1))


def and_rule_reject(accept_one: float, k: int, m: int) -> float:
    """Network rejection probability under the AND rule.

    ``accept_one`` is one ``s``-sample copy's collision-free probability;
    a node rejects with ``(1 − accept_one)^m`` and the network rejects iff
    any of its ``k`` nodes does.
    """
    node_reject = (1.0 - accept_one) ** m
    return -math.expm1(k * math.log1p(-node_reject)) if node_reject < 1.0 else 1.0


def threshold_reject(accept_one: float, k: int, threshold: int) -> float:
    """Network rejection probability under the threshold rule: at least
    ``threshold`` alarms among ``k`` independent testers."""
    return binomial_upper(k, 1.0 - accept_one, threshold)


def network_error(reject: float, is_uniform: bool) -> float:
    """Error of a tester that rejects with probability *reject*."""
    return reject if is_uniform else 1.0 - reject


# ---------------------------------------------------------------------------
# Monte-Carlo agreement
# ---------------------------------------------------------------------------

#: Two-sided tail mass below which a Monte-Carlo count is declared to
#: disagree with its exact probability.  Small enough that the tens of
#: thousands of checks the benchmark makes over its runs never reject a
#: correct route by chance.
ALPHA = 1e-9


def agrees(failures: int, trials: int, p: float, alpha: float = ALPHA) -> bool:
    """Whether ``failures`` of ``trials`` is plausible under ``Bin(trials, p)``.

    Both one-sided tails at the observed count must exceed ``alpha``.
    """
    if not 0 <= failures <= trials:
        return False
    return (
        binomial_lower(trials, p, failures) >= alpha
        and binomial_upper(trials, p, failures) >= alpha
    )
