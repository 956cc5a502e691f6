import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from carleman.coeffmap import RealPolynomial, p_to_q
from carleman.liouville import (OperatorCoefficients, decay_report,
                                operator_apply_check, tau_table)
from carleman.profile import ChangeOfVariables, WeightProfile


def gaussian(x):
    return np.exp(-0.5 * np.asarray(x) ** 2)


def gaussian_deriv(x, m):
    c = np.zeros(m + 1)
    c[m] = 1.0
    return (-1.0) ** m * hermeval(x, c) * np.exp(-0.5 * np.asarray(x) ** 2)


def test_tau_table_entries():
    T = tau_table(6)
    assert T.entry(1, 1) == {(0,): 1}          # tau_11 = phi
    assert T.entry(2, 1) == {(1,): 1}          # tau_21 = phi'
    assert T.entry(3, 2) == {(0, 1): 3}        # tau_32 = 3 phi phi'
    for j in range(1, 7):
        assert T.entry(j, j) == {(0,) * j: 1}  # tau_jj = phi^j
        for l in range(1, j + 1):
            for mono in T.entry(j, l):
                assert sum(mono) == j - l


def test_tau_table_bounds():
    from carleman.errors import DomainError

    with pytest.raises(DomainError):
        tau_table(11)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_liouville_identities(n, cosh_profile):
    Q = p_to_q(RealPolynomial([0.0] * n + [1.0]))
    cov = ChangeOfVariables(cosh_profile, n)
    op = OperatorCoefficients(Q, cov)
    xs = np.array([-11.0, -2.0, -0.3, 0.0, 0.7, 4.0, 30.0])
    b = op.b_values(xs)
    assert np.max(np.abs(b[n] - 1.0)) < 1e-10
    ref = Q.coeffs[n - 1] * cosh_profile.v(cov.xi_of_x(xs)) ** (2.0 / n)
    assert np.max(np.abs(b[n - 1] - ref)) < 1e-10
    # symmetry of the coefficients for an even weight
    assert np.max(np.abs(b - np.conj(op.b_values(-xs)))) < 1e-9


def test_b0_closed_form_n1(cov2, cosh_profile):
    Q = p_to_q(RealPolynomial([0.0, 1.0]))
    cov1 = ChangeOfVariables(cosh_profile, 1)
    b = OperatorCoefficients(Q, cov1).b_values(np.array([0.0]))
    assert abs(b[0][0] - Q.coeffs[0] * np.pi) < 1e-12


def test_gauge_beta_and_derivative(op2):
    xs = np.array([-4.0, -1.0, 0.0, 2.0, 9.0])
    beta = op2.beta(xs)
    assert abs(beta[np.where(xs == 0.0)][0]) < 1e-14
    b = op2.b_values(xs)
    bp = op2.beta_prime_jet(xs, 0).value
    assert np.max(np.abs(bp + b[1] / 2.0)) < 1e-10  # beta' = -b_{n-1}/n
    # n = 1: beta = -q0 xi(x)
    Q1 = p_to_q(RealPolynomial([0.0, 1.0]))
    cov1 = ChangeOfVariables(WeightProfile("cosh"), 1)
    xs1 = np.array([0.5, 3.0])
    assert np.max(np.abs(OperatorCoefficients(Q1, cov1).beta(xs1)
                         + Q1.coeffs[0] * cov1.xi_of_x(xs1))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauge_removes_subprincipal(n, cosh_profile):
    Q = p_to_q(RealPolynomial([0.0] * n + [1.0]))
    cov = ChangeOfVariables(cosh_profile, n)
    bt = OperatorCoefficients(Q, cov).gauged_values(np.array([-3.0, 0.4, 6.0]))
    assert np.max(np.abs(bt[n - 1])) < 1e-12
    assert np.max(np.abs(bt[n] - 1.0)) < 1e-12


def test_gauge_trivial_n1(cosh_profile):
    # B~ = D exactly: every lower coefficient vanishes
    Q = p_to_q(RealPolynomial([0.0, 1.0]))
    cov1 = ChangeOfVariables(cosh_profile, 1)
    bt = OperatorCoefficients(Q, cov1).gauged_values(np.array([-2.0, 0.0, 5.0]))
    assert np.max(np.abs(bt[0])) < 1e-12
    assert np.max(np.abs(bt[1] - 1.0)) < 1e-12


def test_gauge_idempotent_when_subprincipal_absent(cov2):
    # operator with q_{n-1} = 0 has beta' = 0; conjugation returns it unchanged
    Q = RealPolynomial([0.3, 0.0, 1.0])
    op = OperatorCoefficients(Q, cov2)
    xs = np.array([-1.0, 0.2, 3.0])
    b = op.b_values(xs)
    bt = op.gauged_values(xs)
    assert np.max(np.abs(b - bt)) < 1e-10


def test_gauged_symmetry(op2):
    xs = np.array([-9.0, -0.8, 1.3, 9.0])
    bt = op2.gauged_values(xs)
    btm = op2.gauged_values(-xs)
    assert np.max(np.abs(bt - np.conj(btm))) < 1e-9


@pytest.mark.parametrize("n,tol", [(1, 1e-8), (2, 1e-6), (3, 1e-5)])
def test_operator_apply_check(n, tol, cosh_profile):
    Q = p_to_q(RealPolynomial([0.0] * n + [1.0]))
    cov = ChangeOfVariables(cosh_profile, n)
    resid = operator_apply_check(Q, cov, gaussian, gaussian_deriv,
                                 np.linspace(-1.5, 1.5, 7))
    assert resid < tol


def test_apply_check_sin(cov3, q_x3):
    f = lambda x: np.sin(0.8 * np.asarray(x))
    def fd(x, m):
        return 0.8 ** m * np.sin(0.8 * x + m * np.pi / 2)
    resid = operator_apply_check(q_x3, cov3, f, fd, np.linspace(-1.0, 1.0, 5))
    assert resid < 1e-5


def test_gauge_operator_identity(op2, cov2):
    # B f == e^{i beta} B~ (e^{-i beta} f) pointwise, with the conjugated side
    # differentiated numerically (13-point stencils) as the independent route
    from carleman.liouville import _fornberg_weights

    f = gaussian
    xs = np.linspace(-1.0, 1.0, 5)
    h = 0.02
    offsets = h * np.arange(-6, 7)
    worst = 0.0
    for x0 in xs:
        b = op2.b_values(np.array([x0]))[:, 0]
        lhs = sum((-1j) ** m * b[m] * gaussian_deriv(x0, m) for m in range(3))
        grid = x0 + offsets
        inner = np.exp(-1j * op2.beta(grid)) * f(grid)
        wts = _fornberg_weights(x0, grid, 2)
        bt = op2.gauged_values(np.array([x0]))[:, 0]
        conj_side = sum((-1j) ** m * bt[m] * complex(np.dot(wts[:, m], inner))
                        for m in range(3))
        rhs = np.exp(1j * op2.beta(np.array([x0]))[0]) * conj_side
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-6, worst


def test_carleman_baseline_n0(cosh_profile):
    op = OperatorCoefficients(RealPolynomial([1.0]), None, profile=cosh_profile)
    xs = np.array([0.0, 1.0])
    b = op.b_values(xs)
    assert np.max(np.abs(b[0] - cosh_profile.v(xs) ** 2)) < 1e-12


def test_decay_report_cosh(q_x2, cov2):
    rep = decay_report(q_x2, cov2, p_max=0)
    slopes = {(r["m"], r["p"]): r["slope"] for r in rep["rows"]}
    assert slopes[(0, 0)] <= -2.0 + 0.1
    assert abs(slopes[(1, 0)] + 1.0) < 0.1


def test_decay_report_power_law():
    Q = p_to_q(RealPolynomial([0.0, 0.0, 1.0]))
    cov = ChangeOfVariables(WeightProfile("power_law", alpha=1.0), 2,
                            xi_max=1200.0)
    rep = decay_report(Q, cov, p_max=0, x_hi=1.0e4)
    slopes = {(r["m"], r["p"]): r["slope"] for r in rep["rows"]}
    assert abs(slopes[(1, 0)] + 0.5) < 0.1  # gamma = 1/2
