"""Renewal sequence, window weights, closed-form constants."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma

from partition_fields import (
    FinitePmf,
    bn_sq_growth_constant,
    c_alpha,
    make_hs_pmf,
    make_karlin_pmf,
    renewal_sequence,
    replicate_generator,
    var_xstar,
    weights,
)
import partition_fields
from partition_fields import renewal
from partition_fields.distributions import PmfKind, invert_hs_tail
from partition_fields.fields import Axis
from partition_fields.renewal import (
    _fftconvolve,
    cached_renewal_sequence,
    p_alpha_tail,
    p_alpha_weights,
    q_sq_tail_bound,
)
from partition_fields.suites import enumerate_renewal_probability

from conftest import q_direct_oracle


def test_renewal_basics_hand_values():
    rs = renewal_sequence(FinitePmf((0.5, 0.5)), 8)
    assert rs.q[0] == 1.0
    assert rs.q[1] == pytest.approx(0.5, abs=1e-15)
    assert rs.q[2] == pytest.approx(0.75, abs=1e-15)  # p2 + p1^2


def test_renewal_recursion_vs_enumeration_oracle():
    rng = replicate_generator("0123", 0)
    raw = rng.random(5) + 0.05
    probs = tuple(raw / raw.sum())
    rs = renewal_sequence(FinitePmf(probs), 15)
    for k in range(16):
        assert rs.q[k] == pytest.approx(enumerate_renewal_probability(probs, k), abs=1e-12)


@pytest.mark.parametrize("pmf", [make_hs_pmf(0.25), make_hs_pmf(0.45), FinitePmf((0.3, 0.2, 0.5))])
def test_newton_matches_direct(pmf):
    # sizes on both sides of powers of two, where the Newton schedule changes
    for kmax in (1, 2, 3, 15, 100, 1024, 1025, 2048, 2049, 4096):
        direct = q_direct_oracle(pmf.pmf_block(1, kmax + 1), kmax)
        newton = renewal_sequence(pmf, kmax).q
        assert np.max(np.abs(direct - newton)) < 1e-10, kmax
        assert newton[0] == 1.0, kmax


def test_newton_runs_one_full_size_step(monkeypatch):
    # at 2^10 + 1 terms a doubling schedule would run the full-size step twice:
    # once at 2^10 terms and once more for the last coefficient
    n, sizes = (1 << 10) + 1, []

    def counting(a, b):
        sizes.append(a.size + b.size - 1)
        return _fftconvolve(a, b)

    monkeypatch.setattr(renewal, "_fftconvolve", counting)
    renewal_sequence(make_hs_pmf(0.25), n - 1)
    assert sum(size >= n for size in sizes) == 2, sizes


def test_q_is_probability_and_square_summable():
    rs = renewal_sequence(make_hs_pmf(0.25), 1 << 16)
    assert np.all((rs.q >= 0) & (rs.q <= 1))
    # increments of the squared sum die out; the density decays like k**(a-1)
    assert rs.q[-1] ** 2 < 1e-8
    c = math.sin(math.pi * 0.25) / math.pi
    assert rs.q[-1] == pytest.approx(c * rs.kmax ** (0.25 - 1.0), rel=0.01)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.4, 0.45, 0.49])
def test_q_sq_tail_bound_holds_over_the_computed_horizon(alpha):
    # the bound rests on q_k <= c k^(alpha-1), c = sin(pi alpha)/pi, at every k
    rs = renewal_sequence(make_hs_pmf(alpha), 1 << 18)
    k = np.arange(1, rs.kmax + 1)
    c = math.sin(math.pi * alpha) / math.pi
    assert np.all(rs.q[1:] * k ** (1.0 - alpha) <= c)
    for depth in (2000, 10**5):
        computed = float(np.sum(np.square(rs.q[depth + 1 :], dtype=np.longdouble)))
        # K q_K^2 / (1 - 2 alpha) takes q_k k^(1-alpha) as constant past K, but
        # it still rises there, so this falls short of the true tail; the bound
        # must lie above it too, and within 0.25% of it
        known = computed + rs.kmax * rs.q[-1] ** 2 / (1.0 - 2.0 * alpha)
        bound = q_sq_tail_bound(alpha, depth)
        assert computed <= known <= bound <= 1.0025 * known, (depth, bound, known)


def test_var_xstar_rejects_a_law_without_the_exact_tail():
    # under the one-point law every q_k is 1, up to the rounding of the FFT
    # products, so the sum of q^2 diverges
    rs = renewal_sequence(FinitePmf((1.0,)), 512)
    assert np.max(np.abs(rs.q - 1.0)) < 1e-12
    for law_rs in (rs, renewal_sequence(make_karlin_pmf(0.25), 512)):
        with pytest.raises(ValueError, match="exact-tail"):
            var_xstar(law_rs)


def test_var_xstar_adds_the_closed_form_tail_past_kmax():
    # the last q_k^2 is not small, and the closed-form tail past kmax covers it
    rs = cached_renewal_sequence(make_hs_pmf(0.4), 1 << 21)
    assert rs.q[-1] ** 2 >= 1e-10
    assert var_xstar(rs) == 1.0 / (rs.sum_sq + q_sq_tail_bound(0.4, rs.kmax))


def test_var_xstar_does_not_depend_on_the_horizon():
    # near alpha = 1/2 the q^2 tail past K = 2^18 is a large share of sum q^2;
    # the closed form takes it to within 1e-5 of the value at K = 2^21
    pmf = make_hs_pmf(0.45)
    near = var_xstar(cached_renewal_sequence(pmf, 1 << 18))
    far = var_xstar(cached_renewal_sequence(pmf, 1 << 21))
    assert abs(near / far - 1.0) < 1e-5, near / far - 1.0


def test_var_xstar_against_line_meeting_oracle():
    """1/sum(q^2) equals P(two independent ancestral lines meet only at 0)."""
    alpha = 0.25
    pmf = make_hs_pmf(alpha)
    rs = renewal_sequence(pmf, 1 << 18)
    analytic = var_xstar(rs)

    reps = 10**5
    depth = 10**6
    rng = replicate_generator("0456", 0)
    pool = invert_hs_tail(alpha, rng.random(4 * 10**6))
    pos = 0

    def next_jump():
        nonlocal pos, pool
        if pos == len(pool):
            pool = invert_hs_tail(alpha, rng.random(10**6))
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
    depth_slack = float(np.sum(np.square(rs.q[depth // 2 + 1 :]))) + rs.kmax * rs.q[-1] ** 2 / (1 - 2 * alpha)
    assert abs(mc - analytic) < 3 * se + depth_slack, (mc, analytic, se)


def test_fftconvolve_matches_scipy_signal_bitwise():
    from scipy.signal import fftconvolve

    gen = np.random.default_rng(8)
    sizes = [(1, 1), (1, 7), (9, 1), (2, 2), (3, 5000)]
    sizes += [tuple(int(v) for v in gen.integers(1, 3000, size=2)) for _ in range(40)]
    for na, nb in sizes:
        a, b = gen.standard_normal(na), gen.standard_normal(nb)
        got, want = _fftconvolve(a, b), fftconvolve(a, b)
        assert got.shape == want.shape == (na + nb - 1,)
        assert got.tobytes() == want.tobytes(), (na, nb)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.45])
@pytest.mark.parametrize("kmax", [4096, 1 << 18])
def test_renewal_sequence_bitwise_equal_to_scipy_signal_path(monkeypatch, alpha, kmax):
    from scipy.signal import fftconvolve

    pmf = make_hs_pmf(alpha)
    q = renewal_sequence(pmf, kmax).q
    monkeypatch.setattr(renewal, "_fftconvolve", fftconvolve)
    assert q.tobytes() == renewal_sequence(pmf, kmax).q.tobytes()


def test_import_leaves_scipy_signal_unloaded():
    # nor any other SciPy module: the package runs without SciPy
    src = str(Path(partition_fields.__file__).parents[1])
    code = "import sys, partition_fields; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def weights_oracle(rs, n: int) -> tuple[np.ndarray, float]:
    """b_{n,j} and b_n^2 by clipped fancy indexing over j = n-kmax..n."""
    cq = rs.cum_q

    def partial(m):
        # sum of q_0..q_m, zero for m < 0, saturating at kmax
        return np.where(m >= 0, cq[np.clip(m, 0, rs.kmax)], 0.0)

    j = np.arange(n - rs.kmax, n + 1, dtype=np.int64)
    b = partial(n - j) - partial(-j)
    return b, float(np.sum(np.square(b, dtype=np.longdouble)))


@pytest.mark.parametrize("pmf", [make_hs_pmf(0.1), make_hs_pmf(0.45), FinitePmf((0.3, 0.2, 0.5))])
@pytest.mark.parametrize("kmax", [4096, 1 << 18])
def test_weights_bitwise_equal_to_indexing_oracle(pmf, kmax):
    rs = renewal_sequence(pmf, kmax)
    for n in (1, 2, 100, kmax // 16):
        prof = weights(rs, n)
        b, b_sq = weights_oracle(rs, n)
        assert prof.j_lo == n - kmax
        assert prof.b.tobytes() == b.tobytes(), n
        assert prof.b_sq == b_sq


def test_weights_hand_values():
    rs = renewal_sequence(FinitePmf((0.5, 0.5)), 64)
    prof1 = weights(rs, 1)
    assert prof1.b[1 - prof1.j_lo] == pytest.approx(1.0)
    prof2 = weights(rs, 2)
    assert prof2.b[1 - prof2.j_lo] == pytest.approx(1.5)      # q0 + q1
    assert prof2.b[2 - prof2.j_lo] == pytest.approx(1.0)      # q0
    assert prof2.b[0 - prof2.j_lo] == pytest.approx(1.25)     # q1 + q2


def test_weights_nonnegative_and_saturating():
    rs = renewal_sequence(make_hs_pmf(0.3), 1 << 14)
    prof = weights(rs, 512)
    assert np.all(prof.b >= 0)
    inside = prof.b[(np.arange(prof.j_lo, prof.n + 1) >= 1)]
    assert np.all(np.diff(inside) <= 1e-12)  # nonincreasing as j rises toward n


def test_weights_precondition():
    rs = renewal_sequence(make_hs_pmf(0.3), 256)
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
    urn = Axis(PmfKind.KARLIN_ZIPF, 0.5, 1)
    assert _limit_var(urn, urn) == pytest.approx(math.pi / 2, abs=1e-12)


def test_sigma_sq_forest_formula_shapes():
    # the forest axis takes Var(X*) from the renewal sequence at kmax 2^18
    rs = renewal_sequence(make_hs_pmf(0.25), 1 << 18)
    v = var_xstar(rs)
    forest, urn = Axis(PmfKind.HS_TAIL, 0.25, 1), Axis(PmfKind.KARLIN_ZIPF, 0.5, 1)
    assert _limit_var(forest, forest) == pytest.approx(bn_sq_growth_constant(0.25) ** 2 * v * v, rel=1e-12)
    assert _limit_var(forest, urn) == pytest.approx(
        bn_sq_growth_constant(0.25) * v * gamma(0.5) * 2**-0.5, rel=1e-12
    )


def test_p_alpha_weight_values():
    assert p_alpha_weights(0.3, 1)[0] == pytest.approx(0.3)
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
