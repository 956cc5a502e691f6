import numpy as np
import pytest

from carleman.coeffmap import RealPolynomial, p_to_q
from carleman.errors import DomainError
from carleman.liouville import OperatorCoefficients
from carleman.longrange import residual_symbol, sigma_iterate, theta_phase
from carleman.profile import ChangeOfVariables, WeightProfile


@pytest.fixture(scope="module")
def op_power():
    Q = p_to_q(RealPolynomial([0.0, 0.0, 1.0]))
    cov = ChangeOfVariables(WeightProfile("power_law", alpha=1.0), 2)
    return OperatorCoefficients(Q, cov)


def _slope(x, y):
    A = np.vstack([np.log(x), np.ones_like(x)]).T
    return float(np.linalg.lstsq(A, np.log(y), rcond=None)[0][0])


def test_zero_coefficients_give_zero_sigma(cov2):
    class _Zero:
        n = 2

        def b_values(self, x):
            return np.zeros((3,) + np.asarray(x).shape, dtype=complex)

    z = _Zero()
    for j in (1, 3):
        assert np.max(np.abs(sigma_iterate(z, j, np.array([1.0, 5.0]), 1.0))) == 0.0


def test_sigma_one_formula(op_power):
    x = np.array([50.0, 200.0])
    b = op_power.b_values(x)
    k = 1.3
    expected = -(b[0] + b[1] * k) / (2 * k)
    got = sigma_iterate(op_power, 1, x, k)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_k_zero_rejected(op_power):
    with pytest.raises(DomainError):
        sigma_iterate(op_power, 1, np.array([1.0]), 0.0)


def test_iteration_difference_slopes(op_power):
    # rho = gamma = 1/2; iteration theory bounds |sigma_j - sigma_{j-1}| by |x|^{-j rho}.
    # j <= 2 saturates the bound; j >= 3 decays faster (structural cancellation
    # 2 sigma_1 + b_1 = -b_0/k in the n = 2 recursion).
    x = np.geomspace(1e2, 1e5, 25)
    k = 1.0
    sig = {j: sigma_iterate(op_power, j, x, k) for j in range(0, 5)}
    for j in (1, 2):
        s = _slope(x, np.abs(sig[j] - sig[j - 1]))
        assert abs(s + 0.5 * j) < 0.15, f"j={j}: slope {s}"
    for j in (3, 4):
        s = _slope(x, np.abs(sig[j] - sig[j - 1]))
        assert s <= -0.5 * j + 0.15, f"j={j}: slope {s}"


def test_residual_symbol_identity(op_power):
    x = np.geomspace(10.0, 1e4, 9)
    k = 0.9
    v = residual_symbol(op_power, 2, x, k)
    direct = 2 * k * (sigma_iterate(op_power, 2, x, k)
                      - sigma_iterate(op_power, 3, x, k))
    assert np.max(np.abs(v - direct)) == 0.0


def test_residual_decay_after_enough_iterations(op_power):
    x = np.geomspace(1e2, 1e5, 25)
    v = np.abs(residual_symbol(op_power, 3, x, 1.0))
    assert _slope(x, v) <= -1.4


def test_k_uniformity_of_residual_constant(op_power):
    # the residual symbol n k^{n-1}(sigma_j - sigma_{j+1}) carries the
    # dispersion normalization, so its fitted constant is k-uniform
    x = np.geomspace(1e2, 1e5, 17)
    consts = []
    for k in (0.5, 1.0, 2.0):
        v = np.abs(residual_symbol(op_power, 1, x, k))
        consts.append(np.max(v * x))
    assert max(consts) / min(consts) < 2.0


def test_theta_zero_at_origin(op_power):
    assert theta_phase(op_power, 2, 0.0, 1.0) == 0.0


def test_theta_integrates_from_the_origin_on_both_sides(cov2):
    # theta(x) = int_0^x sigma dy, so theta(-3) runs over [-3, 0] downward
    integrate = pytest.importorskip("scipy.integrate")
    op = OperatorCoefficients(p_to_q(RealPolynomial([0.0, 0.3, 1.0])), cov2)

    def sigma(y, part):
        return part(sigma_iterate(op, 2, np.array([y]), 1.0)[0])

    for x in (3.0, -3.0):
        ref = complex(*(integrate.quad(sigma, 0.0, x, args=(part,),
                                       epsabs=1e-13, epsrel=1e-13)[0]
                        for part in (np.real, np.imag)))
        assert abs(theta_phase(op, 2, x, 1.0) - ref) < 1e-9, x


def test_theta_sublinear(op_power):
    th = theta_phase(op_power, 3, 1e5, 1.0)
    assert abs(th) / 1e5 < 0.01


def test_theta_short_range_tails(op2):
    # gauged cosh coefficients are short range: theta has finite limits
    t1 = theta_phase(op2, 1, 1.0e6, 1.0, gauged=True)
    t2 = theta_phase(op2, 1, 2.0e6, 1.0, gauged=True)
    assert abs(t2 - t1) < 1e-6
    # and higher iterates do not change the tail increments
    a1 = theta_phase(op2, 1, 1.0e4, 1.0, gauged=True)
    b1 = theta_phase(op2, 1, 1.0e5, 1.0, gauged=True)
    a2 = theta_phase(op2, 2, 1.0e4, 1.0, gauged=True)
    b2 = theta_phase(op2, 2, 1.0e5, 1.0, gauged=True)
    assert abs((b1 - a1) - (b2 - a2)) < 1e-6


def test_sigma_derivative_consistency(op_power):
    # derivative decay: d/dx of sigma_1 by finite differences decays
    # one power faster than sigma_1
    x = np.geomspace(1e2, 1e4, 9)
    h = x * 1e-4
    d = (sigma_iterate(op_power, 1, x + h, 1.0)
         - sigma_iterate(op_power, 1, x - h, 1.0)) / (2 * h)
    s = _slope(x, np.abs(d))
    assert abs(s + 1.5) < 0.2
