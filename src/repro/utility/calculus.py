"""Numeric machinery for the Lagrangian rate subproblem.

Algorithm 1 maximizes, for a single flow ``i`` with fixed populations and
prices,

    h(r) = sum_j n_j * U_j(r)  -  r * price        (equation 7)

over ``r in [r_min, r_max]``.  Because every ``U_j`` is strictly concave,
``h`` is strictly concave, so its derivative

    h'(r) = sum_j n_j * U_j'(r)  -  price

is strictly decreasing and the maximizer is unique:

* ``h'(r_min) <= 0``  ->  ``r_min``
* ``h'(r_max) >= 0``  ->  ``r_max``
* otherwise the root of ``h'`` in ``(r_min, r_max)``.

This module provides the generic bracketed root finder plus fast paths for
single-term objectives with closed-form inverse derivatives (which cover the
paper's workloads: every class on a flow shares a shape, so the weighted sum
collapses to one scaled utility).  It is the only eq. 7 solver: the
reference engine calls it per flow, and the vectorized engine calls it for
the flows its batched closed forms do not cover, so both engines return the
same float for the same terms and price.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.utility.base import UtilityFunction
from repro.utility.functions import LogUtility, PowerUtility

#: Bisection stops once the bracket is narrower than
#: ``_ROOT_XTOL + _ROOT_RTOL * |midpoint|``.
_ROOT_XTOL = 1e-10
_ROOT_RTOL = 1e-12


def weighted_value(
    terms: Sequence[tuple[float, UtilityFunction]], rate: float
) -> float:
    """Return ``sum_j weight_j * U_j(rate)``."""
    return sum(weight * utility.value(rate) for weight, utility in terms)


def weighted_derivative(
    terms: Sequence[tuple[float, UtilityFunction]], rate: float
) -> float:
    """Return ``sum_j weight_j * U_j'(rate)``."""
    return sum(weight * utility.derivative(rate) for weight, utility in terms)


def _closed_form_rate(
    terms: Sequence[tuple[float, UtilityFunction]], price: float
) -> float | None:
    """Closed-form unconstrained maximizer, or ``None`` if unavailable.

    Two collapsible cases, which together cover all the paper's workloads:

    * every term is a :class:`LogUtility` with the same offset:
      ``sum(w*s) / (o + r) = price``;
    * every term is a :class:`PowerUtility` with the same exponent:
      ``sum(w*s) * k * r**(k-1) = price``.

    Single-term objectives with any closed-form ``inverse_derivative`` are
    also handled.
    """
    if len(terms) == 1:
        weight, utility = terms[0]
        try:
            return utility.inverse_derivative(price / weight)
        except NotImplementedError:
            return None

    first = terms[0][1]
    if isinstance(first, LogUtility) and all(
        isinstance(u, LogUtility) and u.offset == first.offset for _, u in terms
    ):
        total_scale = sum(w * u.scale for w, u in terms)
        return total_scale / price - first.offset
    if isinstance(first, PowerUtility) and all(
        isinstance(u, PowerUtility) and u.exponent == first.exponent
        for _, u in terms
    ):
        total_scale = sum(w * u.scale for w, u in terms)
        collapsed = PowerUtility(scale=total_scale, exponent=first.exponent)
        return collapsed.inverse_derivative(price)
    return None


def solve_rate(
    terms: Sequence[tuple[float, UtilityFunction]],
    price: float,
    rate_min: float,
    rate_max: float,
) -> float:
    """Maximize ``sum_j w_j U_j(r) - r * price`` over ``[rate_min, rate_max]``.

    ``terms`` pairs each utility with its weight (the admitted population
    ``n_j`` in LRGP).  Terms with zero weight are ignored; if all weights are
    zero, or ``price`` is zero or negative, the objective is maximized at a
    boundary.

    This is the single-flow Lagrangian subproblem of Algorithm 1, step 2.
    """
    if rate_min > rate_max:
        raise ValueError(f"rate_min {rate_min} exceeds rate_max {rate_max}")
    if rate_min < 0.0:
        raise ValueError(f"rate_min must be non-negative, got {rate_min}")
    if math.isnan(price):
        raise ValueError("price must not be NaN")

    active = [(w, u) for w, u in terms if w > 0.0]
    if not active:
        # No admitted consumers: utility term vanishes, objective is
        # -r * price.  Send the minimum unless rate is effectively free.
        return rate_min if price > 0.0 else rate_max
    if price <= 0.0:
        # Utilities are increasing, so with no (or negative) price pressure
        # the unconstrained maximizer is unbounded; clamp to the cap.
        return rate_max

    # Resolve boundary optima first: besides being cheap, this guarantees
    # the closed forms below only see *interior* solutions, where ratios
    # like ``price / weight`` cannot underflow or overflow (a denormal
    # price, for instance, always lands on ``rate_max`` here).
    if weighted_derivative(active, rate_max) >= price:
        return rate_max
    if weighted_derivative(active, rate_min) <= price:
        return rate_min

    closed = _closed_form_rate(active, price)
    if closed is not None:
        return min(max(closed, rate_min), rate_max)

    # Bisection on the strictly decreasing derivative.  The boundary checks
    # above bracket the root; the loop also ends when the midpoint can no
    # longer split the bracket in floating point.
    low, high = rate_min, rate_max
    while True:
        mid = 0.5 * (low + high)
        if not low < mid < high:
            break
        if weighted_derivative(active, mid) > price:
            low = mid
        else:
            high = mid
        if high - low <= _ROOT_XTOL + _ROOT_RTOL * abs(mid):
            break
    return 0.5 * (low + high)


def numeric_derivative(
    utility: UtilityFunction, rate: float, step: float = 1e-6
) -> float:
    """Central-difference derivative, used by tests to cross-check
    closed-form derivatives."""
    low = max(rate - step, 0.0)
    high = rate + step
    return (utility.value(high) - utility.value(low)) / (high - low)
