"""Renewal sequence, window weights, closed-form constants."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from partition_fields import (
    FinitePmf,
    bn_sq_growth_constant,
    c_alpha,
    make_hs_pmf,
    make_karlin_pmf,
    p_alpha_weight,
    renewal_sequence,
    replicate_generator,
    var_xstar,
    weights,
)
from partition_fields.fields import Axis, AxisKind
from partition_fields.renewal import (
    RenewalConvergenceWarning,
    cached_renewal_sequence,
    p_alpha_tail,
    p_alpha_weights,
)
from partition_fields.suites import enumerate_renewal_probability


def test_renewal_basics_hand_values():
    rs = renewal_sequence(FinitePmf((0.5, 0.5)), 8)
    assert rs.q[0] == 1.0
    assert rs.q[1] == pytest.approx(0.5, abs=1e-15)
    assert rs.q[2] == pytest.approx(0.75, abs=1e-15)  # p2 + p1^2


def test_renewal_recursion_vs_enumeration_oracle():
    rng = replicate_generator("0123", 0)
    raw = rng.random(5) + 0.05
    probs = tuple(raw / raw.sum())
    rs = renewal_sequence(FinitePmf(probs), 15, method="direct")
    for k in range(16):
        assert rs.q[k] == pytest.approx(enumerate_renewal_probability(probs, k), abs=1e-12)


@pytest.mark.parametrize("pmf", [make_hs_pmf(0.25), make_hs_pmf(0.45), FinitePmf((0.3, 0.2, 0.5))])
def test_newton_matches_direct(pmf):
    kmax = 4096
    direct = renewal_sequence(pmf, kmax, method="direct").q
    newton = renewal_sequence(pmf, kmax, method="newton").q
    assert np.max(np.abs(direct - newton)) < 1e-10


def test_q_is_probability_and_square_summable():
    rs = renewal_sequence(make_hs_pmf(0.25), 1 << 16, method="newton")
    assert np.all((rs.q >= 0) & (rs.q <= 1))
    # increments of the squared sum die out; the density decays like k**(a-1)
    assert rs.q[-1] ** 2 < 1e-8
    c = math.sin(math.pi * 0.25) / math.pi
    assert rs.q[-1] == pytest.approx(c * rs.kmax ** (0.25 - 1.0), rel=0.01)


def test_var_xstar_degenerate_chain_flags_divergence():
    rs = renewal_sequence(FinitePmf((1.0,)), 512)
    assert np.all(rs.q == 1.0)
    with pytest.warns(RenewalConvergenceWarning):
        v = var_xstar(rs)
    assert v == pytest.approx(1.0 / 513.0)


def test_var_xstar_power_tail_estimate_does_not_warn():
    # the last q_k^2 is not small, but the power-decay tail estimate covers it
    rs = cached_renewal_sequence(make_hs_pmf(0.4), 1 << 21)
    assert rs.q[-1] ** 2 >= 1e-10 and rs.sum_sq_tail_estimate > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RenewalConvergenceWarning)
        var_xstar(rs)


def test_var_xstar_against_line_meeting_oracle():
    """1/sum(q^2) equals P(two independent ancestral lines meet only at 0)."""
    alpha = 0.25
    pmf = make_hs_pmf(alpha)
    rs = renewal_sequence(pmf, 1 << 18, method="newton")
    analytic = var_xstar(rs)

    reps = 10**5
    depth = 10**6
    rng = replicate_generator("0456", 0)
    pool = pmf.sample(rng, 4 * 10**6)
    pos = 0

    def next_jump():
        nonlocal pos, pool
        if pos == len(pool):
            pool = pmf.sample(rng, 10**6)
            pos = 0
        pos += 1
        return int(pool[pos - 1])

    meets = 0
    for _ in range(reps):
        a = -next_jump()
        b = -next_jump()
        while a != b and a > -depth and b > -depth:
            if a > b:
                a -= next_jump()
            else:
                b -= next_jump()
        meets += int(a == b)
    mc = 1.0 - meets / reps
    se = math.sqrt(mc * (1 - mc) / reps)
    depth_slack = rs.tail_sum_sq_from(depth // 2)
    assert abs(mc - analytic) < 3 * se + depth_slack, (mc, analytic, se)


def test_weights_hand_values():
    rs = renewal_sequence(FinitePmf((0.5, 0.5)), 64)
    prof1 = weights(rs, 1)
    assert prof1.b_at(1) == pytest.approx(1.0)
    prof2 = weights(rs, 2)
    assert prof2.b_at(1) == pytest.approx(1.5)      # q0 + q1
    assert prof2.b_at(2) == pytest.approx(1.0)      # q0
    assert prof2.b_at(0) == pytest.approx(1.25)     # q1 + q2
    assert prof2.b_at(-10**9) == 0.0


def test_weights_nonnegative_and_saturating():
    rs = renewal_sequence(make_hs_pmf(0.3), 1 << 14, method="newton")
    prof = weights(rs, 512)
    assert np.all(prof.b >= 0)
    inside = prof.b[(np.arange(prof.j_lo, prof.n + 1) >= 1)]
    assert np.all(np.diff(inside) <= 1e-12)  # nonincreasing as j rises toward n


def test_weights_precondition():
    rs = renewal_sequence(make_hs_pmf(0.3), 256, method="direct")
    with pytest.raises(ValueError):
        weights(rs, 100)


def test_c_alpha_values_and_domain():
    val = c_alpha(0.25)
    assert val == pytest.approx(
        math.sin(math.pi / 4) / (math.pi * 0.25 * 1.5 * gamma(0.5)), abs=1e-12
    )
    assert val == pytest.approx(0.33864, abs=5e-5)
    assert c_alpha(0.1) > 0 and c_alpha(0.4) > 0
    for bad in (0.0, 0.5, -0.1, 0.6):
        with pytest.raises(ValueError):
            c_alpha(bad)


def test_growth_constant_relation_to_c_alpha():
    for a in (0.1, 0.25, 0.4):
        ratio = bn_sq_growth_constant(a) / c_alpha(a)
        assert ratio == pytest.approx((gamma(1 - 2 * a) / gamma(1 - a)) ** 2, rel=1e-12)


def test_growth_constant_matches_quadrature():
    from scipy.integrate import quad

    for a in (0.15, 0.25, 0.35):
        integral = quad(lambda x: ((1 + x) ** a - x**a) ** 2, 0, np.inf, limit=200)[0]
        c = math.sin(math.pi * a) / math.pi
        direct = (c / a) ** 2 * (1.0 / (2 * a + 1) + integral)
        assert bn_sq_growth_constant(a) == pytest.approx(direct, rel=1e-9)


def _limit_var(*axes: Axis) -> float:
    return math.prod(f for axis in axes for f in axis.variance_factors)


def test_sigma_sq_karlin2d_closed_form():
    urn = Axis(AxisKind.URN, 0.5, 1)
    assert _limit_var(urn, urn) == pytest.approx(math.pi / 2, abs=1e-12)


def test_sigma_sq_forest_formula_shapes():
    # the forest axis takes Var(X*) from the renewal sequence at kmax 2^18
    rs = renewal_sequence(make_hs_pmf(0.25), 1 << 18, method="newton")
    v = var_xstar(rs)
    forest, urn = Axis(AxisKind.FOREST, 0.25, 1), Axis(AxisKind.URN, 0.5, 1)
    assert _limit_var(forest, forest) == pytest.approx(bn_sq_growth_constant(0.25) ** 2 * v * v, rel=1e-12)
    assert _limit_var(forest, urn) == pytest.approx(
        bn_sq_growth_constant(0.25) * v * gamma(0.5) * 2**-0.5, rel=1e-12
    )


def test_p_alpha_weight_values():
    assert p_alpha_weight(0.3, 1) == pytest.approx(0.3)
    assert p_alpha_weight(0.5, 2) == pytest.approx(0.125)
    vec = p_alpha_weights(0.5, 10)
    assert vec[0] == 0.5 and vec[1] == pytest.approx(0.125)
    assert np.all(np.diff(vec) < 0)


def test_p_alpha_total_mass_with_exact_tail():
    # partial sums alone converge only like R**(-alpha); the telescoped tail
    # Gamma(R+1-a)/(Gamma(1-a) Gamma(R+1)) restores the identity exactly
    for a in (0.2, 0.5, 0.8):
        partial = float(p_alpha_weights(a, 10**4).sum())
        assert partial + p_alpha_tail(a, 10**4) == pytest.approx(1.0, abs=1e-11)
        assert abs(partial - 1.0) > 1e-5  # the raw partial sum is NOT at 1e-6 yet


def test_p_alpha_odd_sum_converges_at_the_analytic_rate():
    # gap to 2**(a-1) is an odd-index tail, bracketed by [T/2, T] where T is
    # the full tail from the same argument; this pins the convergence rate
    for a in (0.3, 0.5, 0.7):
        big_r = 2000
        partial = float(p_alpha_weights(a, 2 * big_r)[0::2].sum())
        gap = 2.0 ** (a - 1.0) - partial
        t = p_alpha_tail(a, 2 * big_r)
        assert 0.5 * t <= gap <= t, (a, gap, t)
