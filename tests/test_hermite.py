"""Multidimensional Hermite recursion against the generating-function oracle."""

import math

import numpy as np
import pytest

from tomobell.errors import AsymmetricR, OrderOverflow
from tomobell.hermite import HermiteParams, hermite_box, hermite_eval

from oracles import hermite_oracle

ORACLE_RTOL = 1e-10

rng = np.random.default_rng(7)


def _random_context():
    a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    r = (a + a.T) / 2
    x = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    return HermiteParams(r, x)


def test_recursion_matches_oracle_200_cases():
    # total order |k| = k1+k2+k3+k4 capped at 6, inside the oracle's range
    done = 0
    while done < 200:
        k = tuple(int(v) for v in rng.integers(0, 7, 4))
        if sum(k) > 6:
            continue
        ctx = _random_context()
        got = hermite_eval(ctx, k)
        want = hermite_oracle(ctx, k)
        assert abs(got - want) <= ORACLE_RTOL * max(abs(want), 1e-12)
        done += 1


def test_zero_order_is_one():
    ctx = _random_context()
    assert hermite_eval(ctx, (0, 0, 0, 0)) == 1.0


def test_reduces_to_probabilists_hermite_in_one_variable():
    # with R = diag(1,0,0,0) the recursion collapses to He_n(x);
    # He_3(x) = x^3 - 3x
    ctx = HermiteParams(np.diag([1.0, 0, 0, 0]).astype(complex),
                        np.array([2.0, 0, 0, 0], dtype=complex))
    assert hermite_eval(ctx, (3, 0, 0, 0)) == pytest.approx(2.0, abs=1e-12)


def test_box_matches_scalar_evaluations():
    # every entry of the box up to corner order |k| = 8, the oracle's limit
    ctx = _random_context()
    box = hermite_box(ctx, (3, 3, 3, 3))
    assert box.shape == (3, 3, 3, 3)
    for k in np.ndindex(box.shape):
        want = hermite_oracle(ctx, k)
        assert abs(box[k] - want) <= ORACLE_RTOL * max(abs(want), 1e-12)


def test_asymmetric_r_rejected():
    r = np.zeros((4, 4), dtype=complex)
    r[0, 1] = 0.5
    with pytest.raises(AsymmetricR):
        HermiteParams(r, np.zeros(4, dtype=complex))


def test_order_overflow_guard():
    ctx = HermiteParams(np.eye(4, dtype=complex), np.zeros(4, dtype=complex),
                        max_order=4)
    with pytest.raises(OrderOverflow):
        hermite_eval(ctx, (5, 0, 0, 0))


def test_negative_index_rejected():
    ctx = _random_context()
    with pytest.raises((ValueError, OrderOverflow)):
        hermite_eval(ctx, (-1, 0, 0, 0))


def test_hermite_diagonal_symmetry_of_squeezed_r():
    # the squeezed-state R couples the two modes symmetrically, so
    # swapping the mode labels (1<->2 in both photon slots) leaves the
    # polynomial invariant
    a = (3 * math.sqrt(35) - 7 * math.sqrt(3)) / 42
    b = -(3 * math.sqrt(35) + 7 * math.sqrt(3)) / 42
    r = np.zeros((4, 4))
    r[0, 1] = r[1, 0] = r[2, 3] = r[3, 2] = a
    r[0, 3] = r[3, 0] = r[1, 2] = r[2, 1] = b
    x = np.array([0.3, -0.7, 0.3, -0.7], dtype=complex)
    ctx = HermiteParams(r.astype(complex), x)
    swapped = HermiteParams(r.astype(complex), x[[1, 0, 3, 2]])
    v1 = hermite_eval(ctx, (2, 3, 2, 3))
    v2 = hermite_eval(swapped, (3, 2, 3, 2))
    assert abs(v1 - v2) <= 1e-10 * max(abs(v1), 1e-12)
