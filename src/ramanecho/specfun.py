"""Complex-parameter special functions: the independent oracle of the
switch maps.

The textbook switch transients live on Bessel functions whose ORDER is
complex (order imaginary part = detuning ratio / 2) while the argument stays
real and moderate (Rabi frequency over switch rate).  `switching` evaluates
them as 0F1 series instead; the tests check those against the Bessel form
built from this module.  scipy only exposes real orders, hence this module.

Accuracy targets (validated against 50-digit reference values): gamma better
than 1e-12 for |z| <= 100; Bessel better than 1e-10 for arguments up to 20
via series / backward recurrence, with an ODE continuation above that.
"""
from __future__ import annotations

import cmath
import math
import sys

from .params import DomainError

__all__ = [
    "complex_gamma",
    "reciprocal_gamma",
    "bessel_j",
]

# sin(pi z), which the gamma reflection needs for Re z < 1/2, overflows once
# pi |Im z| passes log(largest double): |Im z| ~ 225.9.  Reflected gamma
# arguments and Bessel orders from there on raise DomainError.
ORDER_IMAG_LIMIT = math.log(sys.float_info.max) / math.pi

# g = 7, 8-term Lanczos coefficients (double-precision classic set)
_LANCZOS_G = 7.0
_LANCZOS = (
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real)


def _sin_pi(z: complex) -> complex:
    """sin(pi z) of the reflection formula.  Within 0.05 of an integer n,
    where math.pi * z rounds away the distance to the pole, it is taken as
    (-1)^n sin(pi (z - n))."""
    if abs(z.imag) >= ORDER_IMAG_LIMIT:
        raise DomainError(f"sin(pi z) overflows at |Im z| = {abs(z.imag):g} "
                          f">= {ORDER_IMAG_LIMIT:.4g}")
    n = round(z.real)
    n = n if abs(z - n) < 0.05 else 0
    return (-1) ** n * cmath.sin(math.pi * (z - n))


def complex_gamma(z: complex) -> complex:
    """Gamma function on the complex plane (Lanczos, reflection for
    Re z < 1/2).  Raises DomainError at the poles."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise DomainError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: gamma(z) gamma(1-z) = pi / sin(pi z)
        return math.pi / (_sin_pi(z) * complex_gamma(1.0 - z))
    zz = z - 1.0
    x = 0.99999999999980993
    for i, c in enumerate(_LANCZOS):
        x += c / (zz + i + 1.0)
    t = zz + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (zz + 0.5) * cmath.exp(-t) * x


def reciprocal_gamma(z: complex) -> complex:
    """Entire function 1/gamma(z); zero at the nonpositive integers."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        return 0.0 + 0.0j
    if z.real < 0.5:
        return _sin_pi(z) * complex_gamma(1.0 - z) / math.pi
    g = complex_gamma(z)
    if g == 0:
        raise DomainError(f"gamma underflows to zero at z = {z}; "
                          "1/gamma is not representable")
    return 1.0 / g


# ===================== Bessel J, complex order =====================

# The ascending series in ratio form loses accuracy once terms alternate with
# large magnitude; beyond this condition estimate we switch to backward
# recurrence from a larger anchor order, where the series is benign.
_SERIES_CONDITION_LIMIT = 1.0e4
_SERIES_MAX_TERMS = 400
_DIRECT_ARG_LIMIT = 20.0


def _check_order(nu: complex) -> complex:
    nu = complex(nu)
    if abs(nu.imag) >= ORDER_IMAG_LIMIT:
        raise DomainError(
            f"|Im order| = {abs(nu.imag):g} exceeds supported range "
            f"{ORDER_IMAG_LIMIT:g}")
    if not (math.isfinite(nu.real) and math.isfinite(nu.imag)):
        raise DomainError("order must be finite")
    return nu


def _bessel_series(nu: complex, x: float):
    """Ascending series; returns (value, condition estimate).

    Exact negative-integer orders reroute through J_{-n} = (-1)^n J_n:
    their leading reciprocal-gamma factors are exactly zero and the
    multiplicative term recurrence cannot climb back out of that zero.
    Every other order has no gamma pole in the term chain.
    """
    half = 0.5 * x
    if nu.imag == 0.0 and nu.real < 0.0 and nu.real == int(nu.real):
        n = int(-nu.real)
        val, cond = _bessel_series(-nu, x)
        return ((-1) ** n) * val, cond
    term = cmath.exp(nu * cmath.log(half)) * reciprocal_gamma(nu + 1.0)
    total = term
    biggest = abs(term)
    h2 = half * half
    m = 1
    while m < _SERIES_MAX_TERMS:
        term *= -h2 / (m * (m + nu))
        total += term
        mag = abs(term)
        if mag > biggest:
            biggest = mag
        if mag < 1e-18 * max(abs(total), 1e-300):
            break
        m += 1
    cond = biggest / max(abs(total), 1e-300)
    return total, cond


def _bessel_backward(nu: complex, x: float) -> complex:
    """Backward recurrence J_{m-1} = (2m/x) J_m - J_{m+1} starting from two
    series anchors at order nu + n_extra, which is large enough for the
    series to be monotone there."""
    n_extra = max(int(x * x / 4.0 - nu.real) + 20, 12)
    mu = nu + n_extra
    j_hi, _ = _bessel_series(mu + 1.0, x)
    j_lo, _ = _bessel_series(mu, x)
    for m in range(n_extra, 0, -1):
        j_hi, j_lo = j_lo, (2.0 * (nu + m) / x) * j_lo - j_hi
    return j_lo


def _bessel_direct(nu: complex, x: float) -> complex:
    value, cond = _bessel_series(nu, x)
    if cond < _SERIES_CONDITION_LIMIT:
        return value
    return _bessel_backward(nu, x)


def _bessel_ode(nu: complex, x: float, x0: float = _DIRECT_ARG_LIMIT) -> complex:
    """Continue J_nu from a trusted anchor by integrating its defining
    second-order equation (as a 4-dim real first-order system)."""
    from scipy.integrate import solve_ivp  # lazily, as in switching
    j0 = _bessel_direct(nu, x0)
    j0m1 = _bessel_direct(nu - 1.0, x0)
    dj0 = j0m1 - (nu / x0) * j0

    def rhs(t, y):
        f = complex(y[0], y[1])
        df = complex(y[2], y[3])
        d2f = -df / t - (1.0 - nu * nu / (t * t)) * f
        return [df.real, df.imag, d2f.real, d2f.imag]

    scale = max(abs(j0), abs(dj0), 1e-30)
    sol = solve_ivp(rhs, (x0, x), [j0.real, j0.imag, dj0.real, dj0.imag],
                    method="DOP853", rtol=1e-12, atol=1e-13 * scale,
                    dense_output=False)
    if not sol.success:
        raise DomainError(f"Bessel ODE continuation failed at order {nu}, "
                          f"argument {x}: {sol.message}")
    y = sol.y[:, -1]
    return complex(y[0], y[1])


def bessel_j(order: complex, x: float) -> complex:
    """Bessel function of the first kind, complex order, real argument >= 0."""
    nu = _check_order(order)
    x = float(x)
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"argument must be finite and >= 0, got {x}")
    if x == 0.0:
        if nu == 0.0:
            return 1.0 + 0.0j
        if nu.imag == 0.0 and nu.real < 0.0 and nu.real == int(nu.real):
            return 0.0 + 0.0j    # J_{-n}(0) = (-1)^n J_n(0) = 0
        if nu.real > 0.0:
            return 0.0 + 0.0j
        raise DomainError(f"J_nu(0) diverges for Re order <= 0 "
                          f"(order = {nu})")
    if x <= _DIRECT_ARG_LIMIT:
        return _bessel_direct(nu, x)
    return _bessel_ode(nu, x)

