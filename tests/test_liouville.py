import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from carleman.coeffmap import RealPolynomial, p_to_q
from carleman.errors import ConfigurationError, DomainError
from carleman.liouville import OperatorCoefficients, decay_report, operator_apply_check
from carleman.profile import ChangeOfVariables, WeightProfile
from conftest import fornberg_weights


def gaussian(x):
    return np.exp(-0.5 * np.asarray(x) ** 2)


def gaussian_deriv(x, m):
    c = np.zeros(m + 1)
    c[m] = 1.0
    return (-1.0) ** m * hermeval(x, c) * np.exp(-0.5 * np.asarray(x) ** 2)


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
    # beta' = -b_{n-1}/n, with beta' from a 13-point stencil (whose own
    # error is ~2e-9 at x = 0 and ~1e-14 at |x| >= 1)
    b = op2.b_values(xs)
    offsets = 0.02 * np.arange(-6, 7)
    bp = [op2.beta(x0 + offsets) @ fornberg_weights(x0, x0 + offsets, 1)[:, 1]
          for x0 in xs]
    assert np.max(np.abs(bp + b[1] / 2.0)) < 1e-8
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


@pytest.mark.parametrize("p,tol", [([0.0, 0.0, 1.0], 1e-6),
                                   ([0.0, 0.0, 0.0, 1.0], 1e-5),
                                   ([-1.0, 0.3, 0.5, 1.0], 1e-5)],
                         ids=["X2", "X3", "X3+0.5X2+0.3X-1"])
def test_gauge_operator_identity(p, tol, cosh_profile):
    # B f == e^{i beta} B~ (e^{-i beta} f) pointwise, with the conjugated side
    # differentiated numerically (13-point stencils) as the independent route
    Q = p_to_q(RealPolynomial(p))
    n = Q.degree
    op = OperatorCoefficients(Q, ChangeOfVariables(cosh_profile, n))
    f = gaussian
    xs = np.linspace(-1.0, 1.0, 5)
    h = 0.02
    offsets = h * np.arange(-6, 7)
    worst = 0.0
    for x0 in xs:
        b = op.b_values(np.array([x0]))[:, 0]
        lhs = sum((-1j) ** m * b[m] * gaussian_deriv(x0, m) for m in range(n + 1))
        grid = x0 + offsets
        inner = np.exp(-1j * op.beta(grid)) * f(grid)
        wts = fornberg_weights(x0, grid, n)
        bt = op.gauged_values(np.array([x0]))[:, 0]
        conj_side = sum((-1j) ** m * bt[m] * complex(np.dot(wts[:, m], inner))
                        for m in range(n + 1))
        rhs = np.exp(1j * op.beta(np.array([x0]))[0]) * conj_side
        worst = max(worst, abs(lhs - rhs))
    assert worst < tol, worst


@pytest.mark.parametrize("n", [2, 3])
def test_coefficient_jets_match_finite_differences(n, request):
    # first and second x-derivatives of b and b~ from the jets against
    # 13-point stencils of the values
    op = request.getfixturevalue(f"op{n}")
    offsets = 0.02 * np.arange(-6, 7)
    for x0 in (-7.0, -0.4, 0.9, 15.0):
        wts = fornberg_weights(x0, x0 + offsets, 2)[:, 1:]
        for jets, values in ((op.b_jets, op.b_values),
                             (op.gauged_jets, op.gauged_values)):
            d = np.stack([j.derivative_values()[1:, 0]
                          for j in jets(np.array([x0]), 2)])
            fd = values(x0 + offsets) @ wts
            assert np.max(np.abs(d - fd) / np.maximum(np.abs(d), 1.0)) < 1e-8, \
                (x0, jets.__name__)


def test_carleman_baseline_n0(cosh_profile):
    op = OperatorCoefficients(RealPolynomial([1.0]), None, profile=cosh_profile)
    xs = np.array([0.0, 1.0])
    b = op.b_values(xs)
    assert np.max(np.abs(b[0] - cosh_profile.v(xs) ** 2)) < 1e-12


def test_non_monic_symbols_are_refused(cosh_profile, cov2):
    # B~ = D^n + ...: any q_n != 1 is refused by name, while p_to_q keeps
    # p_n exactly, so a monic P passes; n = 0 keeps its constant q_0
    for q in ([0.0, 0.0, 2.0], [1.0, 0.0, 1e-300], [0.0, 0.0, -1.0]):
        with pytest.raises(ConfigurationError, match="monic.*q_2"):
            OperatorCoefficients(RealPolynomial(q), cov2)
    Q = p_to_q(RealPolynomial([0.3, -1.7, 1.0]))
    assert Q.coeffs[-1] == 1.0
    OperatorCoefficients(Q, cov2)
    op = OperatorCoefficients(RealPolynomial([2.5]), None, profile=cosh_profile)
    x = np.array([0.0, 1.0])
    assert np.max(np.abs(op.b_values(x)[0] - 2.5 * cosh_profile.v(x) ** 2)) < 1e-12


def test_decay_report_cosh(q_x2, cov2):
    rep = decay_report(q_x2, cov2, p_max=0)
    slopes = {(r["m"], r["p"]): r["slope"] for r in rep["rows"]}
    assert slopes[(0, 0)] <= -2.0 + 0.1
    assert abs(slopes[(1, 0)] + 1.0) < 0.1


def test_decay_report_power_law():
    Q = p_to_q(RealPolynomial([0.0, 0.0, 1.0]))
    cov = ChangeOfVariables(WeightProfile("power_law", alpha=1.0), 2)
    rep = decay_report(Q, cov, p_max=0, x_hi=1.0e4)
    slopes = {(r["m"], r["p"]): r["slope"] for r in rep["rows"]}
    assert abs(slopes[(1, 0)] + 0.5) < 0.1  # gamma = 1/2


# the polynomials of the gauge-shift checks, n = 2..4
TABLE_POLYS = [[0.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 0.3, 1.0], [0.0, 0.0, 0.0, 1.0],
               [0.2, -0.5, 1.1, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0]]


@pytest.mark.parametrize("family,params", [
    ("cosh", {}), ("power_law", {"alpha": 1.0}),
    ("stretched_exp", {"alpha": 1.3, "beta": 1.0})])
def test_btilde_table_matches_gauged_values(family, params):
    # 40 points per table panel, uniform in asinh x over the whole range
    u_max = np.arcsinh(2.6e4)
    x = np.clip(np.sinh(np.linspace(-u_max, u_max, 6001)), -2.6e4, 2.6e4)
    for p in TABLE_POLYS:
        Q = p_to_q(RealPolynomial(p))
        n = Q.degree
        op = OperatorCoefficients(Q, ChangeOfVariables(WeightProfile(family, **params), n))
        exact = op.gauged_values(x)[:n - 1]
        err = np.max(np.abs(op.btilde_splines(2.6e4)(x) - exact), axis=1)
        assert np.all(err <= 1e-12 * np.max(np.abs(exact), axis=1)), (p, err)


def test_btilde_table_never_extrapolates(op2):
    table = op2.btilde_splines(100.0)
    assert table(np.array([-100.0, 0.0, 100.0])).shape == (1, 3)
    with pytest.raises(DomainError, match="table covers"):
        table(np.array([0.0, np.nextafter(table.edges[-1], np.inf)]))
    with pytest.raises(DomainError):
        table(np.array([-3e4]))
