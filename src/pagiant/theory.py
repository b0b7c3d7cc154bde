"""Closed forms and fixed points for the attachment process phase transition.

Conventions used throughout:
  * alpha (or a) is a positive real, math.inf, or a negative integer <= -3.
    math.inf dispatches to the Poisson forms; a negative integer a = -r
    dispatches to the binomial degree law with the same algebraic fixed
    point, valid for 0 < eps < r - 2.
  * eps is the relative distance above the critical edge count,
    m = m_c (1 + eps).

The supercritical fixed point is solved in the variable u = 1 - xi with
expm1/log1p so the root keeps full absolute accuracy down to eps ~ 1e-4,
where xi is within O(eps) of 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

INF = math.inf

# the survival gap is solved for u = 1 - xi in [_U_LO, 1]
_U_LO = 1e-16
_KCORE_GRID_POINTS = 200
_KCORE_MU_LO = 1e-6
_KCORE_MU_HI = 1e3


class SolverError(RuntimeError):
    """A solved fixed point failed a cross-check of the giant fraction."""


def _check_shape(a) -> float:
    """Validate a weight-shape parameter: positive, inf, or integer <= -3."""
    if a == INF:
        return INF
    a = float(a)
    if a > 0:
        return a
    if a < 0 and a == int(a) and a <= -3:
        return a
    raise ValueError(f"shape parameter must be positive, inf, or an integer <= -3: {a}")


# ---------------------------------------------------------------------------
# degree models
# ---------------------------------------------------------------------------


class DegreeModel:
    """Common surface: pmf, pgf, pgf derivative, factorial moments."""

    def pmf(self, k: int) -> float:
        raise NotImplementedError

    def pgf(self, x: float) -> float:
        raise NotImplementedError

    def pgf_prime(self, x: float) -> float:
        raise NotImplementedError

    def factorial_moment(self, k: int) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        return self.factorial_moment(1)


@dataclass(frozen=True)
class NegBinomial(DegreeModel):
    """NB(alpha, p): pmf(k) = C(alpha+k-1, k) (1-p)^alpha p^k."""

    alpha: float
    p: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0 <= self.p < 1:
            raise ValueError("p must lie in [0, 1)")

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        if self.p == 0:
            return 1.0 if k == 0 else 0.0
        a = self.alpha
        if k <= 4096:
            # C(a+k-1, k) as a running log product: immune to the lgamma
            # cancellation that dominates for very large shapes
            log_binom = 0.0
            for j in range(1, k + 1):
                log_binom += math.log((a + j - 1) / j)
        else:
            log_binom = math.lgamma(a + k) - math.lgamma(k + 1) - math.lgamma(a)
        return math.exp(log_binom + a * math.log1p(-self.p) + k * math.log(self.p))

    def pgf(self, x: float) -> float:
        if self.p > 0 and abs(x) >= 1 / self.p:
            raise ValueError("pgf diverges for |x| >= 1/p")
        return math.exp(self.alpha * (math.log1p(-self.p) - math.log1p(-self.p * x)))

    def pgf_prime(self, x: float) -> float:
        if self.p == 0:
            return 0.0
        if abs(x) >= 1 / self.p:
            raise ValueError("pgf diverges for |x| >= 1/p")
        a = self.alpha
        return a * self.p * math.exp(a * math.log1p(-self.p) - (a + 1) * math.log1p(-self.p * x))

    def factorial_moment(self, k: int) -> float:
        return nb_factorial_moment(self.alpha, self.p, k)


@dataclass(frozen=True)
class Poisson(DegreeModel):
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("rate must be nonnegative")

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        if self.lam == 0:
            return 1.0 if k == 0 else 0.0
        return math.exp(-self.lam + k * math.log(self.lam) - math.lgamma(k + 1))

    def pgf(self, x: float) -> float:
        return math.exp(self.lam * (x - 1))

    def pgf_prime(self, x: float) -> float:
        return self.lam * math.exp(self.lam * (x - 1))

    def factorial_moment(self, k: int) -> float:
        return self.lam ** k


@dataclass(frozen=True)
class Binomial(DegreeModel):
    r: int
    p: float

    def __post_init__(self):
        if self.r < 0 or self.r != int(self.r):
            raise ValueError("r must be a nonnegative integer")
        if not 0 <= self.p <= 1:
            raise ValueError("p must lie in [0, 1]")

    def pmf(self, k: int) -> float:
        if k < 0 or k > self.r:
            return 0.0
        return math.comb(self.r, k) * self.p ** k * (1 - self.p) ** (self.r - k)

    def pgf(self, x: float) -> float:
        return (1 - self.p + self.p * x) ** self.r

    def pgf_prime(self, x: float) -> float:
        if self.r == 0:
            return 0.0
        return self.r * self.p * (1 - self.p + self.p * x) ** (self.r - 1)

    def factorial_moment(self, k: int) -> float:
        out = self.p ** k
        for j in range(k):
            out *= self.r - j
        return out


def nb_factorial_moment(alpha: float, p: float, k: int) -> float:
    """E (Y)_k = (E Y)^k * prod_{1<=j<k} (1 + j/alpha), with E Y = alpha p/(1-p)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 <= p < 1:
        raise ValueError("p must lie in [0, 1)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    mean = alpha * p / (1 - p)
    out = mean ** k
    for j in range(1, k):
        out *= 1 + j / alpha
    return out


def mr_criterion(model: DegreeModel) -> float:
    """E D(D-2) = E D(D-1) - E D; positive iff a giant component exists."""
    return model.factorial_moment(2) - model.factorial_moment(1)


# ---------------------------------------------------------------------------
# critical point and limit degree law
# ---------------------------------------------------------------------------


def m_crit(alpha, n: float) -> float:
    """Critical edge count n*alpha / (2(alpha+1)); n/2 in the uniform limit."""
    a = _check_shape(alpha)
    if a == INF:
        return n / 2
    return n * a / (2 * (a + 1))


def p_edge(alpha: float, n: float, m: float) -> float:
    """Finite-n edge probability parameter 2m/(n*alpha + 2m), for alpha > 0."""
    if alpha == INF or not alpha > 0:
        raise ValueError("p_edge requires finite alpha > 0")
    if m == 0:
        return 0.0
    return 2 * m / (n * alpha + 2 * m)


def limit_edge_probability(a, eps: float) -> float:
    """Limiting parameter of the degree law at m = m_c(1+eps).

    NB(a, .) gets (1+eps)/(a+2+eps); the Poisson limit corresponds to
    parameter 0 with rate 1+eps; the binomial case a = -r gets
    (1+eps)/(r-1).
    """
    a = _check_shape(a)
    if a == INF:
        return 0.0
    if a < 0:
        return (1 + eps) / (-a - 1)
    return (1 + eps) / (a + 2 + eps)


def _check_supercritical(a, eps: float) -> float:
    """The shape, once (a, eps) is known to lie in the solver's domain."""
    a = _check_shape(a)
    if not eps > 0:
        raise ValueError(f"eps must be positive: {eps}")
    if a < 0 and not eps < -a - 2:
        # binomial parameter (1+eps)/(r-1) must stay below 1
        raise ValueError(f"eps must be below {-a - 2} when the shape is {a}")
    low, high = (u + math.expm1(_exponent(a, eps, u)) for u in (_U_LO, 1.0))
    if not low < 0 < high:
        # in double precision the root leaves [_U_LO, 1]: xi = 1 - u
        # underflows for eps far above criticality, and (1+eps) u / (a+1)
        # underflows for a near the largest float
        raise ValueError(f"(shape {a}, eps {eps}) is outside the solver's domain: "
                         f"the survival gap does not change sign on [{_U_LO}, 1] "
                         "in double precision")
    return a


# ---------------------------------------------------------------------------
# supercritical fixed point
# ---------------------------------------------------------------------------


def _exponent(a: float, eps: float, u: float) -> float:
    """K(u) = -(a+1) log1p((1+eps) u / (a+1)), and -(1+eps) u in the
    Poisson limit; at the root xi = exp(K(u))."""
    if a == INF:
        return -(1 + eps) * u
    return -(a + 1) * math.log1p((1 + eps) * u / (a + 1))


def _survival_gap(a: float, eps: float, u: float) -> float:
    """g(u) = u + expm1(K(u)) whose root in (0,1) gives xi = 1-u; g < 0
    near 0 and g(1) > 0.  Near the root of a small eps, u and expm1(K)
    cancel down to about eps u, so where |K| <= 1/8 g is summed as
    (expm1(K) - K) + (a+1)(z - log1p(z)) - eps u, z = (1+eps) u/(a+1) (the
    middle part is 0 in the Poisson limit), the first two by their series.
    """
    k = _exponent(a, eps, u)
    if k < -0.125:
        return u + math.expm1(k)
    # expm1(K) - K = sum_{j>=2} K^j / j!
    term = gap = 0.5 * k * k
    j = 2
    while abs(term) > 2 ** -53 * gap:
        j += 1
        term *= k / j
        gap += term
    if a != INF:
        z = (1 + eps) * u / (a + 1)
        tail = z - math.log1p(z)
        if abs(z) <= 0.25:
            # z - log1p(z) = sum_{j>=2} (-z)^j / j
            tail, power, j = 0.0, z * z, 2
            while abs(power) > 2 ** -53 * j * tail:
                tail += power / j
                power *= -z
                j += 1
        gap += (a + 1) * tail
    return gap - eps * u


def _survival_gap_prime(a: float, eps: float, u: float) -> float:
    kp = -(1 + eps) if a == INF else -(1 + eps) / (1 + (1 + eps) * u / (a + 1))
    return 1 + math.exp(_exponent(a, eps, u)) * kp


def _bisect_newton(f: Callable[[float], float], fprime: Callable[[float], float],
                   lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi], with f < 0 below the root and f >= 0 above it.

    Bisects until the bracket is at most tol or 2^-50 lo, whichever is
    larger, then polishes the midpoint with at most three Newton steps,
    each kept only if it stays inside the final bracket.
    """
    while hi - lo > max(tol, 2 ** -50 * lo):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(3):
        d = fprime(x)
        if d == 0:
            break
        nxt = x - f(x) / d
        if not lo <= nxt <= hi:
            break
        x = nxt
    return x


def _solve_u(a: float, eps: float) -> float:
    """Root of the survival gap in u = 1 - xi, bracketed then polished, for
    a shape and eps that _check_supercritical accepted."""
    return _bisect_newton(lambda u: _survival_gap(a, eps, u),
                          lambda u: _survival_gap_prime(a, eps, u), _U_LO, 1.0, 0.0)


def solve_xi(a, eps: float) -> float:
    """Unique xi in (0, 1) with E D xi^{D-1} = xi E D for the limit law at eps."""
    a = _check_supercritical(a, eps)
    return math.exp(_exponent(a, eps, _solve_u(a, eps)))


def rho(a, eps: float) -> float:
    """Limiting giant fraction at m = m_c(1+eps): 1 - xi^{a/(a+1)} (1-xi in
    the Poisson limit).  The equivalent product form (1-xi)(1-(1+eps)xi/(a+1))
    is evaluated as a cross-check; both read xi as exp(K(u)), not 1 - u."""
    a = _check_supercritical(a, eps)
    u = _solve_u(a, eps)
    power_form = product_form = u
    if a != INF:
        k = _exponent(a, eps, u)
        power_form = -math.expm1(a / (a + 1) * k)
        product_form = u * (1 - (1 + eps) * math.exp(k) / (a + 1))
    if abs(power_form - product_form) > 1e-10:
        raise SolverError(
            f"giant-fraction forms disagree at a={a}, eps={eps}: "
            f"{power_form} vs {product_form}"
        )
    if a > 0 and not 0 < power_form < 2 * eps:
        # the 2*eps upper bound holds for positive shapes only
        raise SolverError(f"giant fraction out of range at a={a}, eps={eps}")
    return power_form


def rho_slope(a) -> float:
    """Initial slope of the giant fraction, 2a/(a+2); 2 in the uniform limit."""
    if a == INF:
        return 2.0
    a = float(a)
    if -2 <= a <= 0:
        raise ValueError(f"slope undefined for shape in [-2, 0]: {a}")
    return 2 * a / (a + 2)


def critical_window_l1(model: DegreeModel, hat_mu: float) -> float:
    """Largest-component scale at criticality: (2 E D / E D(D-1)(D-2)) * hat_mu."""
    f3 = model.factorial_moment(3)
    if f3 <= 0:
        raise ValueError("third factorial moment must be positive")
    return 2 * model.factorial_moment(1) / f3 * hat_mu


def critical_constant(a) -> float:
    """2(1 + 1/a)/(1 + 2/a): the prefactor relating the critical-window
    largest component to the degree fluctuation scale."""
    if a == INF:
        return 2.0
    a = float(a)
    if -2 <= a <= 0:
        raise ValueError(f"constant undefined for shape in [-2, 0]: {a}")
    return 2 * (1 + 1 / a) / (1 + 2 / a)


# ---------------------------------------------------------------------------
# cross-formulations
# ---------------------------------------------------------------------------


def pittel_cstar(alpha: float, c: float) -> float:
    """The root x in (0, c_a) of x/(alpha+x)^{alpha+2} = c/(alpha+c)^{alpha+2},
    where c_a = alpha/(alpha+1); solved in logs (the map is increasing on
    (0, c_a), with its maximum exactly at c_a)."""
    if alpha == INF or not alpha > 0:
        raise ValueError("requires finite alpha > 0")
    c_a = alpha / (alpha + 1)
    if not c > c_a:
        raise ValueError(f"c must exceed the critical density {c_a}")

    def log_phi(t: float) -> float:
        return math.log(t) - (alpha + 2) * math.log(alpha + t)

    target = log_phi(c)
    return _bisect_newton(lambda x: log_phi(x) - target,
                          lambda x: 1 / x - (alpha + 2) / (alpha + x), 1e-300, c_a, 2.5e-13)


def bnk_map(n: float, m: float) -> float:
    """Edge count to kinetic time: t = (1 + n/(2m))^{-1}."""
    if m <= 0:
        raise ValueError("m must be positive")
    return 2 * m / (2 * m + n)


def bnk_giant(t: float) -> float:
    """Kinetic-theory giant fraction 3(t - 1/3); alpha = 1, small eps only."""
    return 3 * (t - 1 / 3)


# ---------------------------------------------------------------------------
# susceptibility
# ---------------------------------------------------------------------------


def susceptibility_blowup_time(alpha) -> float:
    if alpha == INF:
        return 0.5
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return alpha / (2 * (alpha + 1))


def susceptibility_closed(alpha, t: float) -> float:
    """s(t) = (alpha - 2t)/(alpha - 2(alpha+1)t) on [0, t_c); 1/(1-2t) in the
    uniform limit.  Raises once t reaches the blow-up time."""
    tc = susceptibility_blowup_time(alpha)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t >= tc:
        raise ValueError(f"susceptibility diverges at t_c = {tc}; got t = {t}")
    if alpha == INF:
        return 1 / (1 - 2 * t)
    return (alpha - 2 * t) / (alpha - 2 * (alpha + 1) * t)


def susceptibility_ode_rhs(alpha, t: float, s: float) -> float:
    """Right-hand side 2((2+alpha)s - 2)^2 / (2t + alpha)^2 of the mean-field
    susceptibility equation; 2 s^2 in the uniform limit."""
    if alpha == INF:
        return 2 * s * s
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return 2 * ((2 + alpha) * s - 2) ** 2 / (2 * t + alpha) ** 2


# ---------------------------------------------------------------------------
# k-core threshold
# ---------------------------------------------------------------------------


def _kcore_objective(alpha: float, k: int, mu: float) -> float:
    """mu / P(Z >= k-1) with Z ~ NB(alpha+1, mu/(alpha+mu)); the tail is one
    minus the head pmf sum, which is a short exact sum for desk-scale k."""
    z = NegBinomial(alpha + 1, mu / (alpha + mu))
    head = sum(z.pmf(j) for j in range(k - 1))
    tail = 1.0 - head
    if tail <= 0:
        return INF
    return mu / tail


def kcore_threshold(alpha: float, k: int) -> float:
    """c_k = (1/2) inf_mu mu / P(Z_alpha(mu) >= k-1): coarse log-grid scan to
    bracket the global minimum, then golden-section refinement."""
    if k < 2:
        raise ValueError("k-core threshold needs k >= 2")
    if alpha == INF or not alpha > 0:
        raise ValueError("requires finite alpha > 0")
    lo_log, hi_log = math.log(_KCORE_MU_LO), math.log(_KCORE_MU_HI)
    grid = [
        math.exp(lo_log + (hi_log - lo_log) * i / (_KCORE_GRID_POINTS - 1))
        for i in range(_KCORE_GRID_POINTS)
    ]
    values = [_kcore_objective(alpha, k, mu) for mu in grid]
    best = min(range(len(grid)), key=values.__getitem__)
    a = math.log(grid[max(best - 1, 0)])
    b = math.log(grid[min(best + 1, len(grid) - 1)])
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _kcore_objective(alpha, k, math.exp(c))
    fd = _kcore_objective(alpha, k, math.exp(d))
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _kcore_objective(alpha, k, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _kcore_objective(alpha, k, math.exp(d))
    return 0.5 * _kcore_objective(alpha, k, math.exp(0.5 * (a + b)))


# ---------------------------------------------------------------------------
# prediction record
# ---------------------------------------------------------------------------


@dataclass
class TheoryPrediction:
    """All closed-form quantities for one (alpha, eps) or (alpha, m, n)."""

    alpha: float
    eps: float
    n: int | None
    m: float | None
    m_c: float | None
    m_c_over_n: float
    p_n: float | None
    p_limit: float
    ed: float
    edd2: float
    xi: float
    rho: float
    rho_slope: float
    critical_constant: float
    c_star: float | None
    c_k: dict[int, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """JSON-ready fields: alpha inf as "inf", c_k keyed by str(k).
        Writers dump with sort_keys=True."""
        out = asdict(self)
        if self.alpha == INF:
            out["alpha"] = "inf"
        out["c_k"] = {str(k): v for k, v in self.c_k.items()}
        return out


def predict(alpha, *, eps: float | None = None, m: float | None = None,
            n: int | None = None, ks=(3,)) -> TheoryPrediction:
    """Assemble the full prediction record.

    Exactly one of eps or m must be given, and finite; m requires n, an
    integer >= 1.  eps = 0 is allowed and reports the critical values
    (rho = 0, xi = 1).
    """
    a = _check_shape(alpha)
    if (eps is None) == (m is None):
        raise ValueError("give exactly one of eps or m")
    for name, x in (("eps", eps), ("m", m)):
        if x is not None and not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if m is not None:
        if n is None:
            raise ValueError("m requires n")
        eps = m / m_crit(a, n) - 1
    mc_over_n = m_crit(a, 1)
    mc = m_crit(a, n) if n is not None else None
    if m is None and n is not None:
        m = mc * (1 + eps)
    if eps < 0:
        raise ValueError(f"subcritical eps not supported here: {eps}")

    p_lim = limit_edge_probability(a, eps)
    ed = (1 + eps) if a == INF else (1 + eps) / (1 + 1 / a)
    edd2 = eps * (1 + eps) if a == INF else eps * (1 + eps) / (1 + 1 / a)

    if eps > 0:
        xi = solve_xi(a, eps)
        rho_val = rho(a, eps)
    else:
        xi = 1.0
        rho_val = 0.0

    p_n = None
    if n is not None and m is not None and a != INF and a > 0:
        p_n = p_edge(a, n, m)
    elif n is not None and m is not None and a != INF and a < 0:
        p_n = 2 * m / (n * -a)

    c_star = None
    if a != INF and a > 0:
        c_a = a / (a + 1)
        c_star = pittel_cstar(a, (1 + eps) * c_a) if eps > 0 else c_a

    c_k = {}
    if a != INF and a > 0:
        c_k = {int(k): kcore_threshold(a, int(k)) for k in ks}

    return TheoryPrediction(
        alpha=a,
        eps=eps,
        n=n,
        m=m,
        m_c=mc,
        m_c_over_n=mc_over_n,
        p_n=p_n,
        p_limit=p_lim,
        ed=ed,
        edd2=edd2,
        xi=xi,
        rho=rho_val,
        rho_slope=rho_slope(a),
        critical_constant=critical_constant(a),
        c_star=c_star,
        c_k=c_k,
    )
