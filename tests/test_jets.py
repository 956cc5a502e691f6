"""The jet engine against mpmath Taylor series of the closed forms, to order 8."""

import mpmath
import numpy as np
import pytest

from carleman._jets import Jet

ORDER = 8
# the higher coefficients of the inner function u(t) = u0 + t + ...
TAIL = [1.0, -0.3, 0.2, 0.1, -0.05, 0.03, 0.02, -0.01]


def taylor(F, *coeffs):
    """Taylor coefficients at t = 0, to ORDER, of F(u(t), ...) for the
    polynomials u(t) = sum_j coeffs[j] t^j, in 40-digit arithmetic."""
    polys = [[mpmath.mpmathify(complex(c)) for c in cs] for cs in coeffs]
    with mpmath.workdps(40):
        return np.array([complex(c) for c in mpmath.taylor(
            lambda t: F(*(mpmath.polyval(p[::-1], t) for p in polys)), 0, ORDER)])


def jet(u0, tail=TAIL):
    return Jet(np.array([u0] + tail))


def check(got, want, tol=1e-14):
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert np.max(err) <= tol, err


U0S = [0.8, 0.8 + 0.5j]
UNARY = {
    "exp": (Jet.exp, mpmath.exp),
    "log": (Jet.log, mpmath.log),
    "pow 1/2": (lambda u: u.pow(0.5), lambda u: mpmath.power(u, 0.5)),
    "pow -1/3": (lambda u: u.pow(-1.0 / 3.0), lambda u: mpmath.power(u, -1.0 / 3.0)),
    "cosh": (Jet.cosh, mpmath.cosh),
}


@pytest.mark.parametrize("name", list(UNARY))
@pytest.mark.parametrize("u0", U0S, ids=["real", "complex"])
def test_elementary_functions(name, u0):
    ours, closed = UNARY[name]
    u = jet(u0)
    check(ours(u).c, taylor(closed, u.c))


@pytest.mark.parametrize("name", list(UNARY))
def test_elementary_functions_on_a_trailing_axis(name):
    # one jet holding the expansions at three points at once
    ours, closed = UNARY[name]
    u0 = np.array([0.3, 1.2, 2.5])
    c = np.array([u0] + [t * np.array([1.0, -0.5, 2.0]) for t in TAIL])
    got = ours(Jet(c)).c
    assert got.shape == (ORDER + 1, 3)
    for i in range(3):
        check(got[:, i], taylor(closed, c[:, i]))


@pytest.mark.parametrize("u0", [0.0, 1e-3, 2.0, 150.0])
def test_cosh_across_its_range(u0):
    # cosh(u0 + t): cosh(u0)/k! at even k, sinh(u0)/k! at odd k; near 0 the
    # odd ones vanish, so there they are bounded absolutely
    got = Jet.variable(u0, ORDER).cosh().c
    want = taylor(mpmath.cosh, [u0, 1.0])
    check(got[::2], want[::2])
    if u0 < 1.0:
        assert np.max(np.abs(got[1::2] - want[1::2])) <= 1e-16
    else:
        check(got[1::2], want[1::2])


@pytest.mark.parametrize("u0, w0", [(0.8, 1.5), (-0.8, -1.5), (0.8 + 0.5j, 1.5 - 0.2j)],
                         ids=["real", "negative", "complex"])
def test_division(u0, w0):
    u, w = jet(u0), jet(w0, TAIL[::-1])
    check((u / w).c, taylor(lambda a, b: a / b, u.c, w.c))
    check((2.0 / w).c, taylor(lambda b: 2 / b, w.c))


@pytest.mark.parametrize("u0", U0S, ids=["real", "complex"])
def test_compose(u0):
    # sin(u) from the Taylor coefficients of sin at u0
    u = jet(u0)
    outer = taylor(mpmath.sin, [u0, 1.0])
    check(u.compose(outer).c, taylor(mpmath.sin, u.c))
