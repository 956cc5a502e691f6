import numpy as np
import pytest

from carleman.errors import DomainError
from carleman.specfun import (_ZETA, complex_gamma, eta_phase,
                              recip_gamma_log_series, recip_gamma_taylor)


def fd_recip_gamma_derivative(j, h=0.02):
    """Richardson-extrapolated central differences of 1/Gamma(1-z) at 0.

    Independent oracle for the low-order series coefficients: uses only the
    package's gamma evaluator at real points away from the origin.
    """
    from math import comb

    def f(z):
        return 1.0 / np.real(complex_gamma(1.0 - z))

    def central(h):
        return sum((-1) ** i * comb(j, i) * f((j / 2.0 - i) * h)
                   for i in range(j + 1)) / h ** j

    a, b = central(h), central(h / 2.0)
    # central differences are O(h^2); one Richardson step gives O(h^4)
    return (4.0 * b - a) / 3.0


def fd_recip_gamma_derivative_hp(j, dps=40):
    """Same central-difference + Richardson construction, but evaluated in
    extended precision (the j ~ 8 stencils amplify double roundoff to ~1e-7,
    which is exactly the agreement level under test)."""
    mp = pytest.importorskip("mpmath")
    from math import comb

    with mp.workdps(dps):
        def f(z):
            return 1 / mp.gamma(1 - mp.mpf(z))

        def central(h):
            return sum((-1) ** i * comb(j, i) * f((j / 2.0 - i) * h)
                       for i in range(j + 1)) / mp.mpf(h) ** j

        h = mp.mpf(1) / 16
        tower = [central(h / 2 ** l) for l in range(3)]
        # two Richardson levels: O(h^6)
        r1 = [(4 * tower[i + 1] - tower[i]) / 3 for i in range(2)]
        return float((16 * r1[1] - r1[0]) / 15)


def test_gamma_classical_values():
    assert abs(complex_gamma(1.0) - 1.0) < 1e-14
    assert abs(complex_gamma(0.5) - np.sqrt(np.pi)) < 1e-14
    assert abs(complex_gamma(5.0) - 24.0) < 1e-12


def test_gamma_modulus_on_critical_line():
    # |Gamma(1/2 - i)|^2 = pi / cosh(pi), via the reflection identity
    val = abs(complex_gamma(0.5 - 1.0j)) ** 2
    assert abs(val - np.pi / np.cosh(np.pi)) < 1e-13


def test_gamma_against_mpmath_strip():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(120):
        z = complex(rng.uniform(-10, 10), rng.uniform(-100, 100))
        if abs(z.imag) < 0.2 and z.real < 0.5 and \
                abs(z.real - round(z.real)) < 0.2:
            continue
        ref = complex(mp.gamma(z))
        worst = max(worst, abs(complex_gamma(z) - ref) / abs(ref))
    assert worst < 1e-12


def test_gamma_pole_rejected():
    with pytest.raises(DomainError):
        complex_gamma(-3.0)


def test_recip_gamma_series_basic():
    s = recip_gamma_taylor(0)
    assert s.c.tolist() == [1.0]
    s = recip_gamma_taylor(14)
    assert s.c[0] == 1.0
    assert abs(s.c[1] + 0.5772156649015329) < 1e-13
    gamma_e = 0.5772156649015329
    assert abs(s.c[2] - (gamma_e ** 2 - np.pi ** 2 / 6) / 2) < 1e-13


def test_recip_gamma_against_fd_oracle_low_orders():
    s = recip_gamma_taylor(2)
    assert abs(s.c[1] - fd_recip_gamma_derivative(1)) < 1e-9
    assert abs(s.c[2] - fd_recip_gamma_derivative(2) / 2.0) < 1e-8


def test_recip_gamma_against_fd_oracle():
    s = recip_gamma_taylor(8)
    fact = 1.0
    for j in range(1, 9):
        fact *= j
        fd = fd_recip_gamma_derivative_hp(j)
        assert abs(s.c[j] - fd / fact) < 1e-7, f"j={j}"


def test_recip_gamma_series_reproduces_function():
    mp = pytest.importorskip("mpmath")
    s = recip_gamma_taylor(12)
    for z in np.linspace(-0.4, 0.4, 17):
        ref = float(1.0 / mp.gamma(1.0 - z))
        assert abs(np.polynomial.polynomial.polyval(z, s.c) - ref) < 1e-8


def test_recip_gamma_order_bounds():
    with pytest.raises(DomainError):
        recip_gamma_taylor(31)
    with pytest.raises(DomainError):
        recip_gamma_taylor(-1)


def test_zeta_table_is_correctly_rounded():
    special = pytest.importorskip("scipy.special")
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        exact = [float(mp.zeta(k)) for k in range(2, 31)]
    assert list(_ZETA) == exact
    assert list(_ZETA) == [float(special.zeta(k)) for k in range(2, 31)]


def test_recip_gamma_series_as_built_from_scipy_zeta():
    # the order-30 series of the same recurrence on scipy.special.zeta, bitwise
    special = pytest.importorskip("scipy.special")
    logc = np.zeros(31)
    logc[1] = -0.5772156649015329
    for k in range(2, 31):
        logc[k] = -float(special.zeta(k)) / k
    c = np.zeros(31)
    c[0] = 1.0
    for k in range(1, 31):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * logc[j] * c[k - j]
        c[k] = acc / k
    assert np.array_equal(recip_gamma_log_series(30), logc)
    assert np.array_equal(recip_gamma_taylor(30).c, c)


def test_eta_basics():
    assert eta_phase(0.0) == 0.0
    for xi in (0.5, 2.0, 10.0):
        assert abs(eta_phase(xi) + eta_phase(-xi)) < 1e-14


def test_eta_stirling():
    # eta(50) = 50 ln 50 - 50 + 1/(24*50) + O(xi^-3)
    val = eta_phase(50.0)
    assert abs(val - (50 * np.log(50.0) - 50.0)) < 1e-2
    assert abs(val - (50 * np.log(50.0) - 50.0 + 1.0 / 1200.0)) < 1e-5


def test_eta_continuity_grid():
    xi = np.arange(-100.0, 100.0, 0.01)
    steps = np.abs(np.diff(eta_phase(xi)))
    assert np.max(steps) < np.pi / 2


def test_eta_matches_loggamma():
    mp = pytest.importorskip("mpmath")
    for xi in (0.3, 4.7, 23.1, 77.7):
        ref = float(-mp.im(mp.loggamma(mp.mpf(1) / 2 - 1j * mp.mpf(xi))))
        assert abs(eta_phase(xi) - ref) < 1e-11


@pytest.mark.parametrize("xi", [300.0, 461.13, 600.0, 3419.95, 1e5])
def test_eta_matches_loggamma_far_out(xi):
    # Gamma(1/2 - i xi) ~ e^{-pi xi / 2} underflows past xi ~ 450; eta must not
    mp = pytest.importorskip("mpmath")
    for x in (xi, -xi):
        with mp.workdps(30):
            ref = float(-mp.im(mp.loggamma(mp.mpf(1) / 2 - 1j * mp.mpf(x))))
        assert abs(eta_phase(x) - ref) <= 1e-13 * max(1.0, abs(ref)), x
