import numpy as np
import pytest

from carleman.errors import DomainError
from carleman.statphase import (_CHEB_DEG, _PANEL_BUDGET, bound_constants, evaluate_J,
                                leading_term, verify_remainder)


def omega_fresnel(y):
    return np.asarray(y) ** 2


def gauss_amp(s):
    return lambda y: np.exp(-np.asarray(y) ** 2 / (2 * s * s))


def bump_amp(s):
    return lambda y: (1.0 + 1.5 * np.asarray(y)) * np.exp(-np.asarray(y) ** 2
                                                          / (2 * s * s))


def fresnel_closed(N, s):
    """Rotated-contour value for the gaussian amplitude (analytic in y)."""
    return complex(0.5 * np.sqrt(np.pi / (1.0 / (2 * s * s) - 1j * N)))


def rotated_contour_quadrature(N, s, M=4001):
    """The oracle route as a quadrature: y = e^{i pi/4} u turns the phase into
    a gaussian; rescaling u = v/sqrt(N) keeps the trapezoid resolved at any N."""
    v = np.linspace(0.0, 9.0, M)
    f = np.exp(-v ** 2) * np.exp(-1j * v ** 2 / (2 * s * s * N))
    return np.exp(1j * np.pi / 4) / np.sqrt(N) * np.trapezoid(f, v)


def test_zero_amplitude():
    assert evaluate_J(omega_fresnel, lambda y: np.zeros_like(np.asarray(y)),
                      100.0, 3.0) == 0.0


def test_fresnel_oracle_agreement():
    s = 0.5
    g = gauss_amp(s)
    for N in (1e2, 1e3, 1e4, 1e5, 1e6):
        J = evaluate_J(omega_fresnel, g, N, 4.0)
        assert abs(J - fresnel_closed(N, s)) < 1e-10, f"N={N}"
        assert abs(J - rotated_contour_quadrature(N, s)) < 1e-8


@pytest.mark.parametrize("N, bound", [(1e6, 1e-10), (1e12, 1e-16)])
def test_panel_budget_bounds_the_amplitude_samples(N, bound):
    # g is sampled by its Chebyshev interpolant and at the 20 nodes of each of
    # at most _PANEL_BUDGET Gauss parts; the IBP closure covers the rest, and J
    # keeps to the closed form (|J| ~ 9e-7 at N = 1e12)
    s, calls = 0.5, []
    g = gauss_amp(s)
    J = evaluate_J(omega_fresnel, lambda y: calls.append(np.size(y)) or g(y), N, 4.0)
    assert sum(calls) <= 20 * _PANEL_BUDGET + _CHEB_DEG + 1
    assert abs(J - fresnel_closed(N, s)) < bound


def test_conjugation_symmetry():
    g = gauss_amp(0.5)
    J1 = evaluate_J(omega_fresnel, g, 500.0, 4.0)
    J2 = evaluate_J(omega_fresnel, g, -500.0, 4.0)
    assert abs(J2 - np.conj(J1)) < 1e-12


def test_linearity():
    g1 = gauss_amp(0.5)
    g2 = lambda y: np.cos(y) * np.exp(-np.asarray(y) ** 2)
    Ja = evaluate_J(omega_fresnel, lambda y: g1(y) + 2.0 * g2(y), 777.0, 4.0)
    Jb = evaluate_J(omega_fresnel, g1, 777.0, 4.0) \
        + 2.0 * evaluate_J(omega_fresnel, g2, 777.0, 4.0)
    assert abs(Ja - Jb) < 1e-12


def test_inflection_rejected():
    with pytest.raises(DomainError):
        evaluate_J(lambda y: np.asarray(y) ** 3, gauss_amp(0.5), 100.0, 2.0)


def test_n_past_the_budget_next_to_the_stationary_point_rejected():
    # the first panel is a / 64 halved 20 times; past N ~ 7e18 it alone needs
    # more than the budget's Gauss parts, and the IBP closure cannot start at
    # the stationary point itself
    with pytest.raises(DomainError, match="Gauss parts"):
        evaluate_J(omega_fresnel, gauss_amp(0.5), 1e19, 4.0)


def test_leading_term_values():
    g = gauss_amp(0.5)
    lead = leading_term(omega_fresnel, g, 100.0, a=4.0)
    ref = 0.5 * np.sqrt(np.pi / 100.0) * np.exp(1j * np.pi / 4)
    assert abs(lead - ref) < 1e-10
    assert leading_term(omega_fresnel, lambda y: 0.0 * np.asarray(y), 50.0,
                        a=4.0) == 0.0
    # modulus halves from N to 4N
    l1 = abs(leading_term(omega_fresnel, g, 100.0, a=4.0))
    l4 = abs(leading_term(omega_fresnel, g, 400.0, a=4.0))
    assert abs(l1 / l4 - 2.0) < 1e-12
    # full-line flag doubles
    fl = leading_term(omega_fresnel, g, 100.0, a=4.0, full_line=True)
    assert abs(fl - 2.0 * lead) < 1e-12


def test_bound_constants_fresnel():
    bc = bound_constants(omega_fresnel, gauss_amp(0.5), 4.0)
    assert abs(bc.kappa - 2.0) < 1e-4
    assert abs(bc.omega2 - 2.0) < 1e-4
    assert abs(bc.omega3) < 1e-3
    assert abs(bc.g0 - 1.0) < 1e-8
    assert bc.kappa <= bc.omega2 + 1e-12


def test_bound_constants_cubic_perturbation():
    # omega'' = 2 + 6 eps y with eps < 0: the minimum sits at the endpoint,
    # where kappa = 2 - 6 |eps| a
    eps, a = -0.01, 1.5
    om = lambda y: np.asarray(y) ** 2 + eps * np.asarray(y) ** 3
    bc = bound_constants(om, gauss_amp(0.4), a)
    assert abs(bc.kappa - (2.0 + 6.0 * eps * a)) < 1e-4
    assert abs(bc.omega3 - 6.0 * abs(eps)) < 1e-6


def test_bound_constants_hit_the_ends_exactly():
    # both extrema sit at y = a, which the interpolant's candidates include
    bc = bound_constants(omega_fresnel, gauss_amp(0.5), 4.0)
    assert abs(bc.omega0 - 16.0) < 1e-12
    eps, a = -0.01, 1.5
    om = lambda y: np.asarray(y) ** 2 + eps * np.asarray(y) ** 3
    bc = bound_constants(om, gauss_amp(0.4), a)
    assert abs(bc.kappa - (2.0 - 6.0 * abs(eps) * a)) < 1e-12


def test_remainder_decay_and_constant():
    rep = verify_remainder(omega_fresnel, bump_amp(0.5),
                           [1e2, 3e2, 1e3, 3e3, 1e4, 1e5, 1e6], 4.0)
    assert 0.85 <= rep["decay_exponent"] <= 1.15
    assert rep["implied_constant"] < 1.0


def test_constant_stable_across_widths():
    consts = []
    for s in (0.35, 0.5, 0.8):
        rep = verify_remainder(omega_fresnel, bump_amp(s),
                               [1e2, 1e3, 1e4, 1e5], 4.0)
        consts.append(rep["implied_constant"])
    assert max(consts) / min(consts) < 2.0


def test_gaussian_remainder_within_bound():
    # g'(0) = 0 case: remainder decays faster than the bound; ratio still bounded
    rep = verify_remainder(omega_fresnel, gauss_amp(0.5),
                           [1e2, 1e3, 1e4], 4.0)
    assert rep["implied_constant"] < 1.0


def test_leading_term_ignores_far_support():
    g1 = gauss_amp(0.5)
    g2 = lambda y: g1(y) + np.where((np.asarray(y) > 2.0) & (np.asarray(y) < 4.0),
                                    0.05 * np.sin(np.asarray(y)) ** 2, 0.0)
    l1 = leading_term(omega_fresnel, g1, 300.0, a=4.0)
    l2 = leading_term(omega_fresnel, g2, 300.0, a=4.0)
    assert l1 == l2
    # and the full integral moves by no more than the bound scale
    J1 = evaluate_J(omega_fresnel, g1, 300.0, 4.0)
    J2 = evaluate_J(omega_fresnel, g2, 300.0, 4.0)
    assert abs(J1 - J2) < 1e-3
