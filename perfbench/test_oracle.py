"""Brute-force checks of the exact oracle on tiny domains.

Run with ``python -m pytest perfbench``.
"""

import itertools
import math

import numpy as np
import pytest

import oracle


def brute_collision_free(probs, s):
    """Sum the probability of every length-``s`` draw with distinct values."""
    total = 0.0
    for draw in itertools.product(range(len(probs)), repeat=s):
        if len(set(draw)) == s:
            total += math.prod(probs[x] for x in draw)
    return total


def brute_network_reject(probs, s, k, m, rule, threshold=None):
    """Enumerate every joint draw of ``k·m`` copies; score the decision rule."""
    accept = brute_collision_free(probs, s)
    # Each copy is an independent Bernoulli(accept); enumerate all patterns.
    total = 0.0
    for pattern in itertools.product((True, False), repeat=k * m):
        weight = math.prod(accept if a else 1.0 - accept for a in pattern)
        copies = np.array(pattern).reshape(k, m)
        node_rejects = ~copies.any(axis=1) if rule == "and" else ~copies[:, 0]
        if rule == "and":
            rejected = node_rejects.any()
        else:
            rejected = node_rejects.sum() >= threshold
        total += weight * rejected
    return total


DISTS = [
    [0.25, 0.25, 0.25, 0.25],
    [0.5, 0.3, 0.2],
    [0.4, 0.4, 0.2, 0.0],
    [0.1, 0.2, 0.3, 0.15, 0.25],
    [1.0 / 3, 1.0 / 3, 1.0 / 3, 0.0, 0.0],
]


@pytest.mark.parametrize("probs", DISTS)
@pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
def test_collision_free_matches_enumeration(probs, s):
    expected = brute_collision_free(probs, s)
    assert oracle.collision_free_dp(probs, s) == pytest.approx(expected, abs=1e-12)
    assert oracle.collision_free(probs, s) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n,s", [(4, 2), (5, 3), (6, 4), (50_000, 27), (2048, 14)])
def test_uniform_closed_form(n, s):
    probs = np.full(n, 1.0 / n)
    expected = oracle.collision_free_uniform(n, s)
    assert oracle.collision_free(probs, s) == pytest.approx(expected, rel=1e-10)
    if n <= 6:
        assert brute_collision_free(list(probs), s) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("m,b,s", [(3, 0.0, 2), (3, 0.1, 3), (4, 0.05, 4), (25_000, 1e-5, 8)])
def test_support_closed_form(m, b, s):
    a = (1.0 - b) / m
    probs = [a] * m + ([b] if b else []) + [0.0, 0.0]
    expected = oracle.collision_free_support(m, a, b, s)
    assert oracle.collision_free(probs, s) == pytest.approx(expected, rel=1e-10)
    if m <= 4:
        assert brute_collision_free(probs, s) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("probs", DISTS[:3])
def test_and_rule_matches_enumeration(probs):
    s, k, m = 2, 3, 2
    accept = oracle.collision_free(probs, s)
    expected = brute_network_reject(probs, s, k, m, "and")
    assert oracle.and_rule_reject(accept, k, m) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("threshold", [0, 1, 2, 3, 4, 5])
def test_threshold_rule_matches_enumeration(threshold):
    probs, s, k = [0.5, 0.3, 0.2], 2, 4
    accept = oracle.collision_free(probs, s)
    expected = brute_network_reject(probs, s, k, 1, "threshold", threshold)
    assert oracle.threshold_reject(accept, k, threshold) == pytest.approx(
        expected, abs=1e-12
    )


def test_binomial_tails_sum_to_one():
    for n, p, t in [(10, 0.3, 4), (640, 0.03, 21), (1, 0.5, 0), (5, 0.0, 0)]:
        assert oracle.binomial_lower(n, p, t - 1) + oracle.binomial_upper(
            n, p, t
        ) == pytest.approx(1.0, abs=1e-12)


def test_agreement_accepts_the_mean_and_rejects_far_counts():
    assert oracle.agrees(300, 1000, 0.3)
    assert not oracle.agrees(500, 1000, 0.3)
    assert not oracle.agrees(1, 1000, 0.3)
    assert oracle.agrees(0, 64, 0.0)
    assert not oracle.agrees(1, 64, 0.0)
