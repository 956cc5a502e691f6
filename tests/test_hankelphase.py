import mpmath
import numpy as np
import pytest

from carleman.coeffmap import RealPolynomial
from carleman.errors import DomainError, ResolutionError
from carleman.hankelphase import (PhaseModel, ThetaEvaluator, _eta_jet,
                                  _zeta_of_xi, hankel_kernel,
                                  hankel_quadratic_form, mellin_F,
                                  quadratic_form_check, theta_asymptotic,
                                  varrho, zeta_amplitude)
from carleman.oscquad import equidistribute_edges, integrate_panels


def test_hankel_kernel_examples():
    P1 = RealPolynomial([1.0])
    t = np.array([0.5, 1.0, 7.0])
    assert np.max(np.abs(hankel_kernel(t, P1) - 1.0 / t)) < 1e-15
    P = RealPolynomial([0.3, -1.0, 1.0])
    assert abs(hankel_kernel(1.0, P) - P.coeffs[0]) < 1e-15
    # h(1/t) * t = P(-ln t)
    ts = np.array([0.2, 3.0])
    lhs = hankel_kernel(1.0 / ts, P) / ts
    assert np.max(np.abs(lhs - P(-np.log(ts)))) < 1e-13


def test_hankel_kernel_domain():
    with pytest.raises(DomainError):
        hankel_kernel(0.0, RealPolynomial([1.0]))


@pytest.mark.parametrize("xi", [0.3, 2.0, 7.5, 25.0, 60.0])
def test_eta_jet_against_mpmath(xi):
    # eta^(k)(xi) = -Im((-i)^k psi^(k-1)(1/2 - i xi)), k >= 1
    d = _eta_jet(xi, 3).derivative_values()
    with mpmath.workdps(30):
        z = mpmath.mpc(0.5, -xi)
        for k in (1, 2, 3):
            ref = float(-mpmath.im((-1j) ** k * mpmath.polygamma(k - 1, z)))
            assert abs(d[k] - ref) <= 1e-11 * abs(ref), f"eta^({k})"


def test_varrho_odd(q_x2, cov2):
    assert abs(varrho(np.array([0.0]), q_x2, cov2)[0]) < 1e-14
    xs = np.array([0.7, 3.0, 50.0])
    assert np.max(np.abs(varrho(xs, q_x2, cov2)
                         + varrho(-xs, q_x2, cov2))) < 1e-12


def test_varrho_asymptotic_form(q_x2, cov2):
    # The displayed large-x form composes the Stirling leading term of eta
    # with the leading log of xi(x); its raw remainder is dominated by the
    # Stirling tail O(1/ln x), not O(1/x).  Keeping eta exact and
    # substituting only xi ~ (n/pi) ln(a0 x) isolates the genuine O(ln x / x)
    # effect of the a1 shift, which carries the advertised slope.
    x = np.geomspace(1e3, 1e6, 13)
    n = 2
    L = np.log(cov2.a0 * x)
    displayed = L / np.pi * (n * np.log(np.abs(n / np.pi * L)) - n
                             - q_x2.coeffs[1])
    raw = np.abs(varrho(x, q_x2, cov2) - displayed)
    assert np.max(raw) < 0.02 and raw[-1] < raw[0]  # converges (1/ln x rate)
    from carleman.specfun import eta_phase

    xi_lead = n / np.pi * L
    comparator = eta_phase(xi_lead) - q_x2.coeffs[1] * xi_lead / n
    resid = np.abs(varrho(x, q_x2, cov2) - comparator)
    A = np.vstack([np.log(x), np.ones_like(x)]).T
    slope = np.linalg.lstsq(A, np.log(resid), rcond=None)[0][0]
    assert slope <= -0.9


def test_zeta_amplitude(q_x2, cov2):
    xs = np.geomspace(1e2, 1e5, 9)
    z = zeta_amplitude(xs, q_x2, cov2)
    xi_p = cov2.x_prime(cov2.xi_of_x(xs)) ** -1.0
    assert np.max(np.abs(np.abs(z) ** 2 - xi_p)) < 1e-12
    A = np.vstack([np.log(xs), np.ones_like(xs)]).T
    slope = np.linalg.lstsq(A, np.log(np.abs(z)), rcond=None)[0][0]
    assert abs(slope + 0.5) < 0.05
    z0 = zeta_amplitude(np.array([0.0]), q_x2, cov2)[0]
    assert abs(z0.imag) < 1e-14 and z0.real > 0


def test_phase_model_identities(q_x2, cov2):
    model = PhaseModel.from_problem(q_x2, cov2)
    assert abs(model.gamma0(np.e * (2 * np.pi) ** -0.5)) < 1e-14
    for N, k in ((3.0, 1.3), (-7.7, 1.3), (11.0, -0.4)):
        lhs = model.gamma(N, k) - N * model.gamma0(abs(N / k)) \
            - model.gamma1(abs(N / k))
        assert abs(lhs - np.sign(N) * (np.pi / 4 + model.a1 * abs(k))) < 1e-12
    # omega(t, k) = gamma(ln t, k) bit for bit
    t = 17.3
    assert model.omega(t, 1.3) == model.gamma(np.log(t), 1.3)
    with pytest.raises(DomainError):
        model.gamma(0.0, 1.0)


def test_phase_model_leading_behavior(q_x2, cov2):
    model = PhaseModel.from_problem(q_x2, cov2)
    n = 2
    for N in (1e3, -1e3):
        ratio = model.gamma(N, 1.0) / (-n / np.pi * N * np.log(abs(N)))
        assert abs(ratio - 1.0) < 0.25  # log-corrections at this N


def test_mellin_parseval():
    tau = np.linspace(-16.0, 16.0, 2049)
    g = np.exp(1j * 0.4 * tau - tau ** 2 / (2 * 1.2 ** 2))
    xi = np.linspace(-40.0, 40.0, 4096, endpoint=False)
    Fu = mellin_F(tau, g, xi)
    norm_u = np.sqrt(np.trapezoid(np.abs(g) ** 2, tau))
    norm_F = np.sqrt(np.sum(np.abs(Fu) ** 2) * (xi[1] - xi[0]))
    assert abs(norm_u - norm_F) / norm_u < 1e-8


def test_quadratic_form_identity_n0_and_n1(cosh_profile):
    r0 = quadratic_form_check(RealPolynomial([1.0]), cosh_profile)
    assert r0["relative_residual"] < 1e-6
    r1 = quadratic_form_check(RealPolynomial([0.0, 1.0]), cosh_profile)
    assert r1["relative_residual"] < 1e-4


def test_carleman_multiplier(cosh_profile):
    tau = np.linspace(-16.0, 16.0, 2049)
    g = np.exp(1j * 0.4 * tau - tau ** 2 / (2 * 1.2 ** 2))
    xi = np.linspace(-40.0, 40.0, 4096, endpoint=False)
    Fu = mellin_F(tau, g, xi)
    H = hankel_quadratic_form(tau, g, RealPolynomial([1.0]))
    mult = np.sum(np.pi / np.cosh(np.pi * xi) * np.abs(Fu) ** 2) * (xi[1] - xi[0])
    assert abs(H - mult) / abs(H) < 1e-6


def test_theta_asymptotic_branches(q_x2, cov2):
    model = PhaseModel.from_problem(q_x2, cov2)
    entries = {"s11": 0.3 + 0.9j, "s12": 0.1, "s21": 0.1, "s22": 0.3 + 0.9j}
    amp = np.sqrt(2.0 / np.pi)
    v = theta_asymptotic(10.0, 1.0, model, entries)
    w = model.gamma(10.0, 1.0)
    assert abs(v - amp * (entries["s11"] * np.exp(1j * w) + np.exp(-1j * w))) < 1e-14
    v = theta_asymptotic(-10.0, 1.0, model, entries)
    w = model.gamma(-10.0, 1.0)
    assert abs(v - amp * entries["s21"] * np.exp(-1j * w)) < 1e-14
    # odd n: complete-reflection sectors return 0
    model3 = PhaseModel(n=3, q_n1=0.0, a0=1.9, a1=-0.5)
    assert theta_asymptotic(-5.0, 1.0, model3, {"s": 1.0}) == 0.0
    assert theta_asymptotic(5.0, -1.0, model3, {"s": 1.0}) == 0.0


def test_theta_evaluator_consistency(field2m1, q_x2m1, cov2):
    ev1 = ThetaEvaluator(field2m1, q_x2m1, cov2)
    ev2 = ThetaEvaluator(field2m1, q_x2m1, cov2, x_split=field2m1.X0 / 1.5)
    for N in (12.0, -18.0):
        assert abs(ev1.theta_scaled(N) - ev2.theta_scaled(N)) < 1e-4


def test_theta_resolution_guard(field2m1, q_x2m1, cov2):
    ev = ThetaEvaluator(field2m1, q_x2m1, cov2)
    with pytest.raises(ResolutionError):
        ev.theta_scaled(200.0)


def test_theta_boundedness(field2m1, q_x2m1, cov2):
    ev = ThetaEvaluator(field2m1, q_x2m1, cov2)
    vals = [abs(ev.theta_scaled(N)) for N in np.arange(-30.0, 31.0, 10.0)
            if N != 0.0]
    assert np.max(vals) < 3.0


def test_theta_asymptotic_agreement_quick(field2m1, q_x2m1, cov2, entries2m1):
    model = PhaseModel.from_problem(q_x2m1, cov2)
    ev = ThetaEvaluator(field2m1, q_x2m1, cov2)
    for N in (25.0, 30.0):
        v = ev.theta_scaled(N)
        a = theta_asymptotic(N, 1.0, model, entries2m1)
        assert abs(v - a) / max(1.0, abs(a)) < 0.05


@pytest.fixture(scope="module")
def ev2(field2m1, q_x2m1, cov2):
    return ThetaEvaluator(field2m1, q_x2m1, cov2)


def test_theta_batch_matches_scalar_calls(ev2):
    grid = np.array([-30.0, -17.3, -2.0, 0.5, 12.5, 30.0])
    batch = ev2.theta_scaled(grid)
    assert batch.shape == grid.shape
    assert np.array_equal(batch, [ev2.theta_scaled(N) for N in grid])
    assert np.array_equal(ev2.theta_scaled(grid[::-1]), batch[::-1])


def test_theta_scalar_returns_complex_scalar(ev2):
    v = ev2.theta_scaled(12.5)
    assert np.ndim(v) == 0 and isinstance(v, complex)


def _theta_reference(ev, N, dphase=np.pi / 8):
    """sqrt(t) theta from per-N panels of `dphase` phase on the same envelopes
    and the same closures beyond +-x_tail."""
    cov, k = ev.cov, abs(ev.k)

    def phase_zeta(x):
        xi = cov.xi_of_x(x)
        return _zeta_of_xi(xi, ev.Q, cov) * np.exp(-1j * xi * N)

    xs = np.linspace(-ev.x_split, ev.x_split, 4097)
    edges = equidistribute_edges(xs, abs(N) * cov.xi_of_x(xs) + k * xs, dphase)
    total = integrate_panels(lambda x: phase_zeta(x) * ev._psi(x), edges)
    u = np.geomspace(ev.x_split, ev.x_tail, 400)
    edges = equidistribute_edges(u, abs(N) * cov.xi_of_x(u) + k * u, dphase)
    for side in (+1, -1):
        total += integrate_panels(
            lambda v: phase_zeta(side * v) * ev._tail_psi(v, side), edges)
    return (total + ev._closure(N)) / np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("n", [2, 3])
def test_theta_matches_refined_per_N_panels(n, ev2, field3, q_x3, cov3):
    ev = ev2 if n == 2 else ThetaEvaluator(field3, q_x3, cov3)
    Ns = np.array([-30.0, -7.5, 12.5, 25.0])
    ref = np.array([_theta_reference(ev, N) for N in Ns])
    assert np.max(np.abs(ev.theta_scaled(Ns) - ref)) < 1e-9


def test_theta_grid_resolution_guard_matches_scalar(ev2):
    with pytest.raises(ResolutionError) as scalar:
        ev2.theta_scaled(200.0)
    with pytest.raises(ResolutionError) as batch:
        ev2.theta_scaled(np.array([-30.0, 200.0, 10.0]))
    assert batch.value.suggested_x_core == scalar.value.suggested_x_core
    assert str(batch.value) == str(scalar.value)
