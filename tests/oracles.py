"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately primitive: recursive adaptive Simpson
quadrature, direct series summation with asymptotic tail corrections, and
plain bisection.  Only the Python standard library is used, so no code path
is shared with the package under test (which delegates to scipy).
"""

import math


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature on a finite interval
# ---------------------------------------------------------------------------


def _simpson(fa, fm, fb, a, b):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    if lm <= a or rm >= b:  # interval at machine resolution
        return whole
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _adapt(f, a, fa, lm, flm, m, fm, left, half, depth - 1) + _adapt(
        f, m, fm, rm, frm, b, fb, right, half, depth - 1
    )


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=40):
    """Integral of f over [a, b] by recursive adaptive Simpson refinement."""
    if a == b:
        return 0.0
    tol = max(tol, 1e-16)
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, a, b)
    return _adapt(f, a, fa, m, fm, b, fb, whole, tol, max_depth)


# ---------------------------------------------------------------------------
# Densities, written from their closed forms with math.lgamma only
# ---------------------------------------------------------------------------


def normal_density(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def chisq_density(x, df):
    if x <= 0.0:
        return 0.0
    h = df / 2.0
    return math.exp((h - 1.0) * math.log(x) - x / 2.0 - h * math.log(2.0) - math.lgamma(h))


def t_density(x, df):
    c = math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    return math.exp(c - 0.5 * (df + 1.0) * math.log1p(x * x / df))


def f_density(x, df1, df2):
    if x <= 0.0:
        return 0.0
    h1, h2 = df1 / 2.0, df2 / 2.0
    logb = math.lgamma(h1) + math.lgamma(h2) - math.lgamma(h1 + h2)
    return math.exp(
        h1 * math.log(df1) + h2 * math.log(df2) + (h1 - 1.0) * math.log(x)
        - (h1 + h2) * math.log(df2 + df1 * x) - logb
    )


def gamma_integrand(t, k):
    if t < 0.0:
        return 0.0
    if t == 0.0:
        if k > 1.0:
            return 0.0
        return 1.0 if k == 1.0 else math.inf
    return math.exp((k - 1.0) * math.log(t) - t)


# ---------------------------------------------------------------------------
# CDF oracles by quadrature (finite intervals only; tails by symmetry/decay)
# ---------------------------------------------------------------------------


def normal_cdf_oracle(x, tol=1e-13):
    if x == 0.0:
        return 0.5
    body = adaptive_simpson(normal_density, 0.0, abs(x), tol)
    return 0.5 + body if x > 0 else 0.5 - body


def t_cdf_oracle(x, df, tol=1e-13):
    if x == 0.0:
        return 0.5
    body = adaptive_simpson(lambda u: t_density(u, df), 0.0, abs(x), tol)
    return 0.5 + body if x > 0 else 0.5 - body


def _chunked(f, a, b, width, tol):
    # Peaked integrands on long intervals can hide from the three Simpson
    # probes; integrating in fixed-width chunks keeps every feature visible.
    n = max(1, math.ceil((b - a) / width))
    per = max(tol / n, 2e-16)
    total = 0.0
    lo = a
    for i in range(n):
        hi = min(b, a + (i + 1) * (b - a) / n)
        total += adaptive_simpson(f, lo, hi, per)
        lo = hi
    return total


def chisq_cdf_oracle(x, df, tol=1e-13):
    if x <= 0.0:
        return 0.0
    if df < 2.0:
        # t = u^2 removes the integrable endpoint singularity at 0
        return _chunked(
            lambda u: 2.0 * u * chisq_density(u * u, df), 0.0, math.sqrt(x), 4.0, tol
        )
    return _chunked(lambda u: chisq_density(u, df), 0.0, x, max(4.0, df), tol)


def f_cdf_oracle(x, df1, df2, tol=1e-13):
    if x <= 0.0:
        return 0.0
    return _chunked(lambda u: f_density(u, df1, df2), 0.0, x, 2.0, tol)


def lower_regularized_gamma_oracle(k, x, tol=1e-13):
    if x <= 0.0:
        return 0.0
    if k < 1.0:
        # t = u^m with m >= 1/k turns t^{k-1} dt into m u^{mk-1} du, which is
        # bounded at the origin
        m = max(2.0, math.ceil(1.0 / k))

        def integrand(u):
            if u <= 0.0:
                return 0.0
            return m * u ** (m * k - 1.0) * math.exp(-(u**m))

        raw = _chunked(integrand, 0.0, x ** (1.0 / m), 4.0, tol)
    else:
        raw = _chunked(lambda t: gamma_integrand(t, k), 0.0, x, max(4.0, k), tol)
    return raw / math.gamma(k)


# ---------------------------------------------------------------------------
# Series oracles with Euler-Maclaurin tails
# ---------------------------------------------------------------------------


def digamma_oracle(x, n=4000):
    """log n minus the harmonic-type partial sum, with an asymptotic tail."""
    s = math.fsum(1.0 / (x + k) for k in range(n))
    z = x + n
    tail = (
        math.log(z) - 1.0 / (2.0 * z) - 1.0 / (12.0 * z**2)
        + 1.0 / (120.0 * z**4) - 1.0 / (252.0 * z**6)
    )
    return tail - s


def trigamma_oracle(x, n=4000):
    """Partial sum of 1/(x+k)^2 plus an asymptotic tail bound."""
    s = math.fsum(1.0 / (x + k) ** 2 for k in range(n))
    z = x + n
    tail = (
        1.0 / z + 1.0 / (2.0 * z**2) + 1.0 / (6.0 * z**3)
        - 1.0 / (30.0 * z**5) + 1.0 / (42.0 * z**7)
    )
    return s + tail


def log_gamma_oracle(x, tol=1e-13):
    """Quadrature of the defining integral, recursed down from x+20."""
    # Shift to a large argument so the integrand is well concentrated, then
    # walk back with lgamma(x) = lgamma(x+1) - log(x).
    shift = 0
    xx = x
    while xx < 20.0:
        shift += math.log(xx)
        xx += 1.0
    mode = xx - 1.0
    width = 12.0 * math.sqrt(xx)

    def integrand(t):
        if t <= 0.0:
            return 0.0
        return math.exp((xx - 1.0) * math.log(t) - t - (mode * math.log(mode) - mode))

    body = adaptive_simpson(integrand, max(mode - width, 0.0), mode + width, tol)
    return math.log(body) + mode * math.log(mode) - mode - shift


# ---------------------------------------------------------------------------
# Gamma precision quantities in plain float arithmetic: the package defines
# each once, as numpy ufunc arithmetic on floats and arrays alike
# ---------------------------------------------------------------------------


def cumulant(v):
    return math.lgamma(v) - v * math.log(v) + v


def cumulant_d1(v):
    return digamma_oracle(v) - math.log(v)


def cumulant_d2(v):
    return trigamma_oracle(v) - 1.0 / v


def precision_deviance(n, varphi_hat, varphi):
    """The closed-form profile deviance of the precision, clamped at 0."""
    d = 2.0 * n * ((varphi_hat - varphi) * cumulant_d1(varphi_hat)
                   + cumulant(varphi) - cumulant(varphi_hat))
    return max(d, 0.0)


def modified_root(signed_root, correction):
    """z_p + log(m / z_p) / z_p; z_p itself when m equals z_p."""
    if correction == signed_root:
        return signed_root
    return signed_root + math.log(correction / signed_root) / signed_root


def corrected_deviance(deviance, correction):
    """d_p + log(m) / (2 d_p), clamped at 0; d_p itself when m is 1."""
    if correction == 1.0:
        return deviance
    return max(deviance + math.log(correction) / (2.0 * deviance), 0.0)


def precision_correction_factor(n, varphi_hat, quad, varphi):
    """The Skovgaard factor of the precision; None where it or its
    denominator is not positive."""
    denom = n * cumulant_d2(varphi) - quad / varphi
    if denom <= 0.0:
        return None
    m = n * cumulant_d2(varphi_hat) / denom
    return m if m > 0.0 else None


# ---------------------------------------------------------------------------
# Plain bisection (quantile oracle on top of the CDF oracles)
# ---------------------------------------------------------------------------


def bisect_oracle(f, lo, hi, tol=1e-13, max_iter=200):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("oracle bisection needs a sign change")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) <= tol:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def normal_quantile_oracle(p, tol=1e-13):
    return bisect_oracle(lambda x: normal_cdf_oracle(x) - p, -10.0, 10.0, tol)


def chisq_quantile_oracle(p, df, tol=1e-12):
    return bisect_oracle(lambda x: chisq_cdf_oracle(x, df) - p, 1e-12, 20.0 * df + 100.0, tol)


def t_quantile_oracle(p, df, tol=1e-13):
    return bisect_oracle(lambda x: t_cdf_oracle(x, df) - p, -300.0, 300.0, tol)


def f_quantile_oracle(p, df1, df2, tol=1e-12):
    return bisect_oracle(lambda x: f_cdf_oracle(x, df1, df2) - p, 1e-12, 500.0, tol)
