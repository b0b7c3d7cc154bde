import math
from decimal import Decimal, localcontext

import pytest

from pagiant import theory as T

INF = math.inf


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# critical point and edge probability
# ---------------------------------------------------------------------------


def test_m_crit_values():
    assert T.m_crit(1.0, 1000) == 250
    assert T.m_crit(INF, 1000) == 500
    assert T.m_crit(-3, 1000) == 750


def test_m_crit_rejects_singular_shapes():
    for bad in (0, -1, -2, -0.5):
        with pytest.raises(ValueError):
            T.m_crit(bad, 1000)


def test_p_edge():
    n = 1000
    assert T.p_edge(1.0, n, n / 2) == 0.5
    assert T.p_edge(1.0, n, 0) == 0.0
    assert abs(T.p_edge(1.0, n, n / 4) - 1 / 3) < 1e-15


def test_limit_edge_probability_matches_p_edge_limit():
    # p_n at m = m_c (1+eps) equals (1+eps)/(a+2+eps) for every n
    for a in (0.5, 1.0, 3.0):
        for eps in (0.0, 0.5, 2.0):
            n = 10 ** 6
            m = T.m_crit(a, n) * (1 + eps)
            assert abs(T.p_edge(a, n, m) - T.limit_edge_probability(a, eps)) < 1e-12


# ---------------------------------------------------------------------------
# degree models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", [
    T.NegBinomial(1.0, 0.5),
    T.NegBinomial(0.3, 0.7),
    T.NegBinomial(1e6, 2e-6),
    T.Poisson(1.7),
    T.Binomial(3, 0.6),
])
def test_pmf_sums_to_one(model):
    total = 0.0
    for k in range(100_000):
        total += model.pmf(k)
        if 1 - total < 1e-13:
            break
    assert abs(total - 1) < 1e-12


@pytest.mark.parametrize("model", [
    T.NegBinomial(1.0, 0.5),
    T.NegBinomial(2.5, 0.3),
    T.Poisson(2.0),
    T.Binomial(4, 0.3),
])
def test_first_factorial_moment_equals_pgf_slope(model):
    assert abs(model.factorial_moment(1) - model.pgf_prime(1.0)) < 1e-10
    # numeric derivative of the pgf at 1
    h = 1e-6
    num = (model.pgf(1 + h) - model.pgf(1 - h)) / (2 * h)
    assert abs(num - model.pgf_prime(1.0)) < 1e-5


def test_nb_pgf_matches_series():
    model = T.NegBinomial(1.5, 0.4)
    for x in (0.3, 0.9, 1.2):
        series = sum(model.pmf(k) * x ** k for k in range(400))
        assert abs(model.pgf(x) - series) < 1e-12


def test_nb_factorial_moment_formula():
    assert T.nb_factorial_moment(2.0, 1 / 3, 0) == 1.0
    assert abs(T.nb_factorial_moment(2.0, 1 / 3, 1) - 1.0) < 1e-12
    assert abs(T.nb_factorial_moment(2.0, 1 / 3, 2) - 1.5) < 1e-12


@pytest.mark.parametrize("alpha,p,k", [(2.0, 1 / 3, 2), (1.0, 0.5, 3), (0.7, 0.6, 2)])
def test_nb_factorial_moment_against_pmf_summation(alpha, p, k):
    model = T.NegBinomial(alpha, p)
    direct = 0.0
    for j in range(2000):
        term = model.pmf(j)
        for i in range(k):
            term *= j - i
        direct += term
    assert abs(T.nb_factorial_moment(alpha, p, k) - direct) < 1e-9


def test_second_factorial_moment_identity_at_pn():
    # E Y(Y-1) = (2m/n)^2 (1 + 1/alpha) at p = p_n
    for alpha in (0.5, 1.0, 4.0):
        n, m = 1000, 700
        p = T.p_edge(alpha, n, m)
        lhs = T.nb_factorial_moment(alpha, p, 2)
        assert abs(lhs - (2 * m / n) ** 2 * (1 + 1 / alpha)) < 1e-9


def test_mr_criterion():
    assert abs(T.mr_criterion(T.NegBinomial(1.0, 1 / 3))) < 1e-12
    assert abs(T.mr_criterion(T.Poisson(1.0))) < 1e-12
    crit = T.mr_criterion(T.NegBinomial(1.0, T.limit_edge_probability(1.0, 0.5)))
    assert abs(crit - 0.375) < 1e-12
    # cross-check by direct pmf summation
    model = T.NegBinomial(1.0, T.limit_edge_probability(1.0, 0.5))
    direct = sum(k * (k - 2) * model.pmf(k) for k in range(500))
    assert abs(crit - direct) < 1e-9


def test_mr_criterion_sign_matches_eps():
    for a in (0.5, 1.0, 10.0):
        for eps in (-0.5, -0.1, 0.1, 1.0):
            p = (1 + eps) / (a + 2 + eps)
            crit = T.mr_criterion(T.NegBinomial(a, p))
            assert math.copysign(1, crit) == math.copysign(1, eps)


# ---------------------------------------------------------------------------
# fixed point and giant fraction
# ---------------------------------------------------------------------------


def test_solve_xi_closed_form_a1():
    # at a=1, eps=1/2 the fixed point solves 9 xi^2 - 33 xi + 16 = 0
    exact = (33 - math.sqrt(513)) / 18
    assert abs(T.solve_xi(1.0, 0.5) - exact) < 1e-12
    # sanity bracket by sign evaluation of the defining equation
    def gap(xi):
        return (2 / (3.5 - 1.5 * xi)) ** 2 - xi
    assert gap(0.57) * gap(0.58) < 0
    assert 0.57 < T.solve_xi(1.0, 0.5) < 0.58


def test_solve_xi_poisson_against_independent_root():
    rho_star = bisect(lambda r: 1 - r - math.exp(-2 * r), 1e-9, 1 - 1e-9)
    assert abs(T.solve_xi(INF, 1.0) - (1 - rho_star)) < 1e-10
    assert abs(T.rho(INF, 1.0) - rho_star) < 1e-10
    assert abs(rho_star - 0.7968) < 5e-4


def test_solve_xi_vanishes_for_large_eps():
    assert T.solve_xi(1.0, 1e3) < 1e-3


def test_solve_xi_domain_errors():
    with pytest.raises(ValueError):
        T.solve_xi(1.0, 0.0)
    with pytest.raises(ValueError):
        T.solve_xi(1.0, -0.5)
    with pytest.raises(ValueError):
        T.solve_xi(-2, 0.1)
    with pytest.raises(ValueError):
        T.solve_xi(-3, 1.5)  # binomial parameter would exceed 1
    # past what double precision can bracket: xi underflows, or (1+eps)u/(a+1) does
    for a, eps in ((1.0, 1e30), (INF, 1e3), (1e308, 0.2)):
        with pytest.raises(ValueError, match="outside the solver's domain"):
            T.predict(a, eps=eps)


def test_negative_shape_closed_form():
    # for a=-3 the fixed point is exactly 1 - 4 eps/(1+eps)^2
    for eps in (0.2, 0.05, 1e-3):
        u = 4 * eps / (1 + eps) ** 2
        assert abs(T.solve_xi(-3, eps) - (1 - u)) < 1e-12
        assert abs(T.rho(-3, eps) - (1 - (1 - u) ** 1.5)) < 1e-12
    assert abs(T.rho(-3, 0.2) - 19 / 27) < 1e-12


def test_rho_values():
    exact_xi = (33 - math.sqrt(513)) / 18
    assert abs(T.rho(1.0, 0.5) - (1 - math.sqrt(exact_xi))) < 1e-12
    assert abs(T.rho(1.0, 0.5) - 0.242) < 1e-3
    assert abs(T.rho(1.0, 0.01) - 2 * 0.01 / 3) < 5e-4


def test_rho_form_consistency_grid():
    for a in (0.1, 1.0, 10.0, INF):
        for eps in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            xi = T.solve_xi(a, eps)
            product = (1 - xi) if a == INF else (1 - xi) * (1 - (1 + eps) * xi / (a + 1))
            assert abs(T.rho(a, eps) - product) < 1e-10
    for a in (-3.0, -5.0):
        for eps in (1e-3, 1e-2, 0.1, min(0.9, -a - 2.1)):
            xi = T.solve_xi(a, eps)
            product = (1 - xi) * (1 - (1 + eps) * xi / (a + 1))
            assert abs(T.rho(a, eps) - product) < 1e-10


def test_rho_below_two_eps_for_positive_shapes():
    for a in (0.1, 1.0, 10.0, INF):
        for eps in (1e-3, 1e-1, 1.0, 10.0):
            assert 0 < T.rho(a, eps) < 2 * eps


def test_rho_solves_every_point_of_the_domain():
    # a grid of shapes against eps = 1e-15 ... 1e12: every point the domain
    # check accepts solves, and both cross-checks of the giant fraction hold
    # (the forms agree to 1e-10, and 0 < rho < 2 eps for positive shapes)
    accepted = 0
    for a in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6, INF, -3, -5, -10):
        for k in range(-15, 13):
            eps = 10.0 ** k
            try:
                T.solve_xi(a, eps)
            except ValueError:
                continue
            accepted += 1
            assert T.rho(a, eps) > 0
    assert accepted == 244


def _decimal_rho(a, eps):
    # the giant fraction from a 60-digit bisection of u = 1 - xi
    with localcontext() as ctx:
        ctx.prec = 60
        e, one = Decimal(eps), Decimal(1)

        def log_xi(u):
            if a == INF:
                return -(1 + e) * u
            return -(Decimal(a) + 1) * ((1 + e) * u / (Decimal(a) + 1) + 1).ln()

        lo, hi = Decimal("1e-40"), one
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid + log_xi(mid).exp() - 1 < 0:
                lo = mid
            else:
                hi = mid
        if a == INF:
            return lo
        return 1 - (Decimal(a) / (Decimal(a) + 1) * log_xi(lo)).exp()


@pytest.mark.parametrize("a", [0.5, 1.0, 1e3, INF, -3])
@pytest.mark.parametrize("eps", [1e-15, 1e-9, 0.2, 0.9, 1e3])
def test_rho_has_full_relative_accuracy(a, eps):
    # the small-eps gap and xi = exp(K(u)) keep rho to a few ulps at both
    # ends, where u + expm1(K) and 1 - u cancel
    try:
        got = T.rho(a, eps)
    except ValueError:
        return
    want = _decimal_rho(a, eps)
    assert abs(Decimal(got) - want) <= Decimal("4e-15") * want


def test_rho_monotone_and_limits():
    grid = [0.01, 0.1, 0.5, 1.0, 3.0, 10.0]
    for a in (0.5, 1.0, 5.0, INF):
        vals = [T.rho(a, e) for e in grid]
        assert all(x < y for x, y in zip(vals, vals[1:]))
    assert T.rho(1.0, 1e4) > 0.99
    # convergence to the Poisson limit as the shape grows
    for eps in (0.1, 0.5, 2.0):
        assert abs(T.rho(1e6, eps) - T.rho(INF, eps)) < 1e-4


def test_rho_slope():
    assert abs(T.rho_slope(1.0) - 2 / 3) < 1e-15
    assert T.rho_slope(INF) == 2.0
    assert abs(T.rho_slope(-3) - 6.0) < 1e-15
    # cross-check the negative slope against the solver as eps -> 0
    eps = 1e-6
    assert abs(T.rho(-3, eps) / eps - 6.0) < 1e-4
    with pytest.raises(ValueError):
        T.rho_slope(-2)
    with pytest.raises(ValueError):
        T.rho_slope(-0.5)


def test_rho_linear_error_constant_is_finite():
    # |rho - slope*eps| <= C eps^2 with a modest fitted C across shapes
    for a in (0.5, 1.0, 10.0, INF, -3.0):
        slope = T.rho_slope(a)
        worst = 0.0
        eps = 1e-4
        while eps <= 0.1:
            worst = max(worst, abs(T.rho(a, eps) - slope * eps) / eps ** 2)
            eps *= 2
        assert worst < 50


# ---------------------------------------------------------------------------
# critical window constant
# ---------------------------------------------------------------------------


def test_critical_window_l1():
    model = T.NegBinomial(1.0, T.limit_edge_probability(1.0, 0.0))
    assert abs(T.critical_window_l1(model, 1.0) - 4 / 3) < 1e-10
    assert abs(T.critical_constant(1.0) - 4 / 3) < 1e-15
    assert abs(T.critical_window_l1(T.Poisson(1.0), 1.0) - 2.0) < 1e-12
    assert T.critical_window_l1(T.Poisson(1.0), 0.0) == 0.0
    with pytest.raises(ValueError):
        T.critical_window_l1(T.Binomial(2, 0.5), 1.0)


# ---------------------------------------------------------------------------
# cross-formulations
# ---------------------------------------------------------------------------


def test_pittel_cstar_value_and_equality():
    cstar = T.pittel_cstar(1.0, 0.75)
    assert abs(cstar - 0.327) < 1e-3
    assert abs((1 - (1 + cstar) / 1.75) - T.rho(1.0, 0.5)) < 1e-8


def test_pittel_cstar_degenerates_at_critical_density():
    assert abs(T.pittel_cstar(1.0, 0.5 + 1e-7) - 0.5) < 1e-3
    with pytest.raises(ValueError):
        T.pittel_cstar(1.0, 0.5)


def test_pittel_equality_grid():
    for a in (0.5, 1.0, 2.0, 5.0, 10.0):
        for eps in (0.05, 0.2, 0.5, 1.0):
            c_a = a / (a + 1)
            c = (1 + eps) * c_a
            cstar = T.pittel_cstar(a, c)
            lhs = 1 - ((a + cstar) / (a + c)) ** a
            assert abs(lhs - T.rho(a, eps)) < 1e-8


def test_bnk_map_and_giant():
    n = 1000
    t = T.bnk_map(n, n / 4)
    assert abs(t - 1 / 3) < 1e-15
    assert abs(T.bnk_giant(t)) < 1e-12
    eps = 0.09
    t = T.bnk_map(n, (1 + eps) * n / 4)
    assert abs(t - (1 / 3 + 2 * eps / 9)) < 0.1 * eps ** 2
    eps = 0.01
    t = T.bnk_map(n, (1 + eps) * n / 4)
    assert abs(T.bnk_giant(t) - T.rho(1.0, eps)) < 10 * eps ** 2


# ---------------------------------------------------------------------------
# susceptibility
# ---------------------------------------------------------------------------


def test_susceptibility_closed_values():
    assert T.susceptibility_closed(1.0, 0.0) == 1.0
    assert abs(T.susceptibility_closed(1.0, 0.125) - 1.5) < 1e-15
    assert abs(T.susceptibility_closed(INF, 0.25) - 2.0) < 1e-15
    with pytest.raises(ValueError):
        T.susceptibility_closed(1.0, 0.25)
    with pytest.raises(ValueError):
        T.susceptibility_closed(1.0, 0.3)


def test_susceptibility_closed_solves_ode():
    h = 1e-6
    for a in (0.5, 1.0, 4.0, INF):
        tc = T.susceptibility_blowup_time(a)
        for frac in (0.05, 0.2, 0.4, 0.6, 0.8):
            t = frac * tc
            if t - h < 0:
                continue
            num = (T.susceptibility_closed(a, t + h) - T.susceptibility_closed(a, t - h)) / (2 * h)
            rhs = T.susceptibility_ode_rhs(a, t, T.susceptibility_closed(a, t))
            assert abs(num - rhs) < 1e-6


# ---------------------------------------------------------------------------
# k-core thresholds
# ---------------------------------------------------------------------------


def test_kcore_threshold_increasing_in_k():
    vals = [T.kcore_threshold(1.0, k) for k in (2, 3, 4, 5)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_kcore_threshold_against_brute_grid():
    # independent check: dense log-grid minimization of the same objective
    for (alpha, k) in ((1.0, 3), (2.0, 4)):
        best = math.inf
        for i in range(100_000):
            mu = math.exp(math.log(1e-4) + (math.log(1e2) - math.log(1e-4)) * i / 99_999)
            p = mu / (alpha + mu)
            z = T.NegBinomial(alpha + 1, p)
            tail = 1 - sum(z.pmf(j) for j in range(k - 1))
            if tail > 0:
                best = min(best, mu / tail)
        assert abs(T.kcore_threshold(alpha, k) - 0.5 * best) < 1e-6


def test_kcore_threshold_er_limit():
    # huge shape approaches the Poisson-tail optimization
    best = math.inf
    for i in range(200_000):
        mu = math.exp(math.log(0.1) + (math.log(50.0) - math.log(0.1)) * i / 199_999)
        tail = 1 - math.exp(-mu) * (1 + mu)
        if tail > 0:
            best = min(best, mu / tail)
    c3_er = 0.5 * best
    assert abs(c3_er - 1.675) < 1e-2
    assert abs(T.kcore_threshold(1e6, 3) - c3_er) < 1e-3 * c3_er


def test_kcore_threshold_domain():
    with pytest.raises(ValueError):
        T.kcore_threshold(1.0, 1)
    with pytest.raises(ValueError):
        T.kcore_threshold(INF, 3)


# ---------------------------------------------------------------------------
# prediction record
# ---------------------------------------------------------------------------


def test_predict_record_fields():
    pred = T.predict(1.0, eps=0.5, n=100_000)
    assert pred.m_c == 25_000
    assert abs(pred.m - 37_500) < 1e-9
    assert abs(pred.p_n - T.p_edge(1.0, 100_000, 37_500)) < 1e-15
    assert abs(pred.xi - T.solve_xi(1.0, 0.5)) < 1e-15
    assert abs(pred.rho - T.rho(1.0, 0.5)) < 1e-15
    assert abs(pred.edd2 - 0.375) < 1e-12
    assert pred.c_star is not None
    d = pred.to_json_dict()
    assert d["alpha"] == 1.0 and "3" in d["c_k"]


def test_predict_from_m():
    pred = T.predict(1.0, m=37_500, n=100_000)
    assert abs(pred.eps - 0.5) < 1e-12


def test_predict_critical_point():
    pred = T.predict(1.0, eps=0.0)
    assert pred.rho == 0.0
    assert pred.edd2 == 0.0
    assert pred.xi == 1.0
    assert abs(pred.c_star - 0.5) < 1e-15


def test_predict_poisson_sentinel():
    pred = T.predict(INF, eps=1.0)
    assert pred.to_json_dict()["alpha"] == "inf"
    assert abs(pred.rho - 0.7968) < 5e-4
    assert pred.c_star is None and pred.c_k == {}
