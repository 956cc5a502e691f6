import numpy as np
import pytest

from carleman.errors import ConfigurationError, DomainError
from carleman.profile import (ChangeOfVariables, WeightProfile, a1_constant,
                              decay_parameters, v_derivatives)

A1_N2 = -0.2151705566585365  # frozen: two independent quadratures + x(xi) fit


def test_cosh_value_and_evenness():
    p = WeightProfile("cosh")
    assert abs(p.v(0.0) - np.sqrt(np.pi)) < 1e-14
    d = v_derivatives(p, 0.0, 3)
    assert abs(d[1]) < 1e-14  # even function
    xs = np.linspace(0.1, 30.0, 40)
    assert np.max(np.abs(p.v(xs) - p.v(-xs))) < 1e-14
    assert np.all(p.v(xs) > 0)


def test_cosh_log_derivative():
    p = WeightProfile("cosh")
    d = v_derivatives(p, 10.0, 1)
    ref = -(np.pi / 2) * np.tanh(10 * np.pi)
    assert abs(d[1] / d[0] - ref) < 1e-12


def test_bad_parameters_rejected():
    with pytest.raises(ConfigurationError):
        WeightProfile("power_law", alpha=-1.0)
    with pytest.raises(ConfigurationError):
        WeightProfile("stretched_exp", alpha=1.0, beta=0.0)
    with pytest.raises(ConfigurationError):
        WeightProfile("unknown")


def test_derivative_order_cap():
    with pytest.raises(DomainError):
        v_derivatives(WeightProfile("cosh"), 0.0, 13)


def test_change_of_variables_basics(cov2):
    assert cov2.x_of_xi(0.0) == 0.0
    xs = np.linspace(-20, 20, 81)
    assert np.max(np.abs(cov2.x_of_xi(xs) + cov2.x_of_xi(-xs))) < 1e-10
    assert np.all(cov2.x_prime(xs) > 0)
    assert np.max(np.abs(cov2.xi_of_x(cov2.x_of_xi(xs)) - xs)) < 1e-10


def test_round_trip_at_five(cov2):
    assert abs(cov2.xi_of_x(cov2.x_of_xi(5.0)) - 5.0) < 1e-10


def test_overflow_guard():
    cov = ChangeOfVariables(WeightProfile("cosh"), 1)
    with pytest.raises(DomainError):
        cov.x_of_xi(80.0)


def test_inverse_asymptotic_slope(cov2):
    # xi(x) ~ (n/pi)(ln(a0 x) - a1/x): the correction decays like 1/x
    x = np.geomspace(1e2, 1e5, 17)
    xi = cov2.xi_of_x(x)
    lead = (2 / np.pi) * np.log(cov2.a0 * x)
    resid = np.abs(xi - lead + (2 / np.pi) * cov2.a1 / x)
    A = np.vstack([np.log(x), np.ones_like(x)]).T
    slope = np.linalg.lstsq(A, np.log(resid), rcond=None)[0][0]
    assert slope < -1.8  # next term is O(x^-2)
    # and the displayed form itself has slope -1
    resid1 = np.abs(xi - lead)
    slope1 = np.linalg.lstsq(A, np.log(resid1), rcond=None)[0][0]
    assert -1.2 < slope1 < -0.8


def test_a1_two_rules_and_fit(cov2):
    g = a1_constant(2, "gauss")
    s = a1_constant(2, "simpson")
    assert abs(g - s) < 1e-8
    assert abs(g - A1_N2) < 1e-10
    # cancellation-free fit at xi = 15 reproduces a1 to 1e-6
    shift = cov2.asymptotic_shift(15.0)
    assert abs(shift - g) < 1e-6


def test_a1_finite_for_all_n():
    for n in range(1, 9):
        val = a1_constant(n)
        assert np.isfinite(val)
    assert abs(a1_constant(1)) < 1e-12  # pure sinh map has no shift


def test_decay_parameters_cosh():
    gamma, delta = decay_parameters(WeightProfile("cosh"), 2)
    assert abs(gamma - 1.0) < 0.05
    assert abs(delta) < 0.05


def test_decay_parameters_power_law():
    alpha, n = 1.0, 2
    gamma, delta = decay_parameters(WeightProfile("power_law", alpha=alpha), n)
    assert abs(gamma - 2 * alpha / (2 * alpha + n)) < 0.05
    assert abs(delta - 1.0 / alpha) < 0.1


def test_decay_parameters_stretched():
    gamma, _ = decay_parameters(WeightProfile("stretched_exp", alpha=1.3,
                                              beta=1.0), 2)
    assert abs(gamma - 1.0) < 0.05


def test_derivative_bound_and_decay_condition(cov2):
    # |v^(p)| <= C_p v^(1+delta p) with delta ~ 0, and v^2 <= C |x|^(-n gamma)
    p = cov2.profile
    xs = np.linspace(5.0, 40.0, 36)
    d = v_derivatives(p, xs, 4)
    v = d[0]
    for order in range(1, 5):
        ratio = np.abs(d[order]) / v
        assert np.max(ratio) < 30.0  # C_p finite, delta = 0
    x = cov2.x_of_xi(xs)
    assert np.max(v ** 2 * np.abs(x) ** 2) < 10.0  # gamma = 1, n = 2


def test_xi_jets_match_asymptotics(cov2):
    j = cov2.xi_jet_of_x(np.array([1e4]), 3).derivative_values()
    assert abs(j[1][0] * 1e4 * np.pi / 2 - 1.0) < 1e-3
    assert abs(j[2][0] * 1e8 * np.pi / 2 + 1.0) < 1e-3


def test_x_of_xi_cache_is_bounded():
    # power_law x(xi) grows like a power of xi, so a large x needs a huge
    # xi; the cache refuses instead of allocating millions of cells
    cov = ChangeOfVariables(WeightProfile("power_law", alpha=1.0), 4)
    with pytest.raises(DomainError, match="power_law"):
        cov.xi_of_x(1e12)
    assert cov._grid.size - 1 <= ChangeOfVariables.MAX_CELLS
