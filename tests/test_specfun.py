import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ramanecho.params import DomainError
from ramanecho.specfun import (
    ORDER_IMAG_LIMIT,
    bessel_j,
    complex_gamma,
    reciprocal_gamma,
)

# Reference values computed with 50-digit arithmetic and rounded to double
# precision, frozen before the implementation existed.
GAMMA_CASES = [
    (1.0 + 1.0j,
     0.4980156681183560427136911 - 0.1549498283018106851249551j),
    (0.5 - 3.25j,
     0.01260434335074952893392614 - 0.008503761908515773402991478j),
    (-2.5 + 0.75j,
     -0.1307096380865729467050555 - 0.1443199840556442643912927j),
]

BESSEL_CASES = [
    (0.5 + 0.5j, 1.0,
     0.7259524308796467483793771 - 0.2464566306315213667361773j),
    (0.5 - 2.0j, 3.0,
     2.41022493684782928404564 - 2.665089676142964972732638j),
    (-0.5 + 1.5j, 0.25,
     -7.424605787485609536341817 - 9.259812420564497567356942j),
    (0.5 + 7.5j, 18.0,
     -6628.681190560534666495375 + 7008.624584030143925992744j),
]

# The normaliser M = J_p J_{1-p} + J_{-p} J_{p-1} = 2 sin(pi p) / (pi x) of
# the Bessel form of the switch-off map, p = (1 + i alpha) / 2.
CROSS_PRODUCT_CASES = [
    (1.5, 3.0, 1.129523087265483428869),
    (0.0, 1.0, 0.6366197723675813430755),
    (4.0, 0.5, 340.9057646958817782839),
    (-2.25, 10.0, 1.091800133368126070928),
]


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ---------- gamma ----------

@pytest.mark.parametrize("z,want", GAMMA_CASES)
def test_gamma_reference_values(z, want):
    assert _rel(complex_gamma(z), want) < 1e-13


def test_gamma_small_integers():
    for n, fact in ((1, 1.0), (2, 1.0), (3, 2.0), (5, 24.0), (8, 5040.0)):
        assert _rel(complex_gamma(complex(n)), fact) < 1e-14


def test_gamma_poles_raise():
    for z in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(DomainError):
            complex_gamma(complex(z))


def test_reciprocal_gamma_entire_at_poles():
    for z in (0.0, -1.0, -2.0, -6.0):
        assert reciprocal_gamma(complex(z)) == 0.0


def test_reciprocal_gamma_consistent_with_gamma():
    for z in (0.3 + 1.2j, 2.5 - 0.4j, -1.25 + 0.5j):
        assert _rel(reciprocal_gamma(z), 1.0 / complex_gamma(z)) < 1e-13


@given(re=st.floats(-3.5, 3.5), im=st.floats(-3.5, 3.5))
def test_gamma_reflection_identity(re, im):
    z = complex(re, im)
    assume(abs(im) > 0.05 or min(abs(re - round(re)),
                                 abs((1 - re) - round(1 - re))) > 0.05)
    lhs = complex_gamma(z) * complex_gamma(1.0 - z)
    rhs = cmath.pi / cmath.sin(cmath.pi * z)
    assert _rel(lhs, rhs) < 1e-10


# ---------- Bessel ----------

@pytest.mark.parametrize("order,x,want", BESSEL_CASES)
def test_bessel_reference_values(order, x, want):
    assert _rel(bessel_j(order, x), want) < 1e-12


def test_bessel_half_integer_closed_form():
    x = math.pi / 2.0
    want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)   # = 2/pi here
    assert _rel(bessel_j(0.5, x), want) < 1e-13
    assert _rel(bessel_j(0.5, x), 2.0 / math.pi) < 1e-13


def test_bessel_negative_integer_orders():
    for n in (1, 2, 5):
        for x in (0.7, 4.0, 23.0):
            want = (-1.0) ** n * bessel_j(float(n), x)
            assert _rel(bessel_j(float(-n), x), want) < 1e-10


def test_bessel_at_origin():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.0, 0.0) == 0.0
    assert bessel_j(2.5 + 1.0j, 0.0) == 0.0
    with pytest.raises(DomainError):
        bessel_j(-0.5, 0.0)          # divergent at the origin


def test_bessel_rejects_negative_argument():
    with pytest.raises(DomainError):
        bessel_j(0.5, -1.0)


def test_bessel_rejects_runaway_imaginary_order():
    with pytest.raises(DomainError):
        bessel_j(1e5j, 1.0)


def test_order_next_to_a_negative_integer():
    # a term of the series divides by m + nu ~ 4e-16 and amplifies the
    # relative error of sin(pi z) at the reflection; J_{-2} = J_2
    nu = -1.9999999999999996
    assert _rel(bessel_j(nu, 1.0), bessel_j(2.0, 1.0)) < 1e-12
    for z in (-1.0 + 1e-15, 3e-16 - 1e-17j, -4.0 - 2e-15):
        want = complex(mpmath.rgamma(mpmath.mpc(z.real, z.imag)))
        assert _rel(reciprocal_gamma(z), want) < 1e-13


def test_reflection_overflow_is_a_domain_error():
    # sin(pi z) overflows from |Im z| ~ 225.9 on; both used to raise a bare
    # OverflowError there
    assert 225.0 < ORDER_IMAG_LIMIT < 226.0
    assert abs(bessel_j(-1.5 + 225.0j, 5.0)) > 0.0
    with pytest.raises(DomainError):
        bessel_j(-1.5 + 230.0j, 5.0)
    for f in (reciprocal_gamma, complex_gamma):
        with pytest.raises(DomainError):
            f(-0.5 + 230.0j)


def test_bessel_against_mpmath_including_large_argument():
    mpmath.mp.dps = 30
    orders = [0.3 + 0.4j, -1.2 + 2.0j, 2.5 - 1.5j, 0.5 + 0.5j,
              3.7 + 0.1j, -0.5 - 2.2j]
    xs = [0.5, 5.0, 15.0, 19.5, 20.5, 30.0, 45.0]
    for nu in orders:
        for x in xs:
            want = complex(mpmath.besselj(mpmath.mpc(nu), x))
            assert _rel(bessel_j(nu, x), want) < 5e-10, (nu, x)


def test_bessel_continuous_across_backend_switch():
    # series/recurrence below x = 20, ODE continuation above: the two
    # branches must agree through the seam
    for nu in (0.5 + 0.5j, -1.2 + 2.0j, 3.0 - 1.0j):
        lo = bessel_j(nu, 20.0 - 1e-9)
        hi = bessel_j(nu, 20.0 + 1e-9)
        assert abs(lo - hi) / max(abs(lo), 1e-30) < 1e-7


@given(re=st.floats(-3.0, 3.0), im=st.floats(-2.0, 2.0),
       x=st.floats(0.5, 35.0))
def test_bessel_three_term_recurrence(re, im, x):
    nu = complex(re, im)
    jm = bessel_j(nu - 1.0, x)
    jp = bessel_j(nu + 1.0, x)
    jc = bessel_j(nu, x)
    scale = max(abs(jm), abs(jp), abs(2.0 * nu / x * jc))
    assume(scale > 1e-20)
    assert abs(jm + jp - 2.0 * nu / x * jc) / scale < 1e-8


# ---------- cross product ----------

@pytest.mark.parametrize("alpha,x,want", CROSS_PRODUCT_CASES)
def test_cross_product_reference_values(alpha, x, want):
    p = 0.5 * (1.0 + 1j * alpha)
    got = (bessel_j(p, x) * bessel_j(1.0 - p, x)
           + bessel_j(-p, x) * bessel_j(p - 1.0, x))
    assert _rel(got, want) < 1e-12


@given(a_re=st.floats(-3.0, 3.0), a_im=st.floats(-1.5, 1.5),
       x=st.floats(0.3, 20.0))
def test_cross_product_matches_bessel_identity(a_re, a_im, x):
    # J_p J_{1-p} + J_{-p} J_{p-1} = 2 sin(pi p) / (pi x), p = (1+i a)/2
    alpha = complex(a_re, a_im)
    p = 0.5 * (1.0 + 1j * alpha)
    lhs = (bessel_j(p, x) * bessel_j(1.0 - p, x)
           + bessel_j(-p, x) * bessel_j(p - 1.0, x))
    rhs = 2.0 * cmath.sin(math.pi * p) / (math.pi * x)
    assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-8
