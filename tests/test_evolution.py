import numpy as np
import pytest

from carleman.coeffmap import RealPolynomial, p_to_q
from carleman.errors import ConfigurationError, DomainError
from carleman.evolution import (_stationary_grid, evolution_phase, evolution_profile,
                                profile_mass, stationary_point_y, stationary_residual,
                                y_map)
from carleman.hankelphase import _rho_of_xi, varrho
from carleman.profile import ChangeOfVariables, WeightProfile


def test_stationary_point_leading_order(cov2):
    # ln t = pi T makes the leading factor equal one
    T = 1e3
    y = stationary_point_y(np.pi * T, T, cov2)
    assert abs(y - 1.0) < 5.0 / T
    assert stationary_residual(np.pi * T, T, cov2, y) < 1e-10


def test_stationary_point_sign(cov2):
    T = 2e3
    for N in (0.5 * T, -0.8 * T):
        y = stationary_point_y(N, T, cov2)
        assert np.sign(y) == np.sign(N)
        assert stationary_residual(N, T, cov2, y) < 1e-10


def test_correction_decays_like_one_over_T(cov2):
    ratio = 0.7  # fixed ln t / (pi T)
    Ts = np.geomspace(1e2, 1e4, 7)
    devs = []
    for T in Ts:
        N = ratio * np.pi * T
        y = stationary_point_y(N, T, cov2)
        devs.append(abs(y * abs(np.pi * T / N) ** 0.5 - 1.0))
    A = np.vstack([np.log(Ts), np.ones_like(Ts)]).T
    slope = np.linalg.lstsq(A, np.log(devs), rcond=None)[0][0]
    assert 0.8 <= -slope <= 1.2


def test_odd_branches(cov3):
    T = 1e3
    # branch 1 lives on t < 1 only
    assert stationary_point_y(2.0 * T, T, cov3, branch=1) is None
    y1 = stationary_point_y(-2.0 * T, T, cov3, branch=1)
    assert y1 is not None and y1 > 0
    assert stationary_residual(-2.0 * T, T, cov3, y1, branch=1) < 1e-10
    # branch 2 mirrors: only t > 1
    assert stationary_point_y(-2.0 * T, T, cov3, branch=2) is None
    assert stationary_point_y(2.0 * T, T, cov3, branch=2) is not None


def test_phase_structure(q_x2, cov2):
    T, N = 1e3, 0.6e3 * np.pi
    n = 2
    y = stationary_point_y(N, T, cov2)
    Phi = evolution_phase(N, T, q_x2, cov2)
    x = n * T * y
    explicit = -cov2.xi_of_x(x) * N + (n - 1) * abs(y) ** (n / (n - 1.0)) * T
    assert abs(Phi - explicit - varrho(np.array([x]), q_x2, cov2)[0]) < 1e-9


def test_phase_parity(q_x2, cov2):
    # ln t -> -ln t flips the first and third terms through odd xi and rho
    T = 1e3
    N = 0.5e3
    yp = stationary_point_y(N, T, cov2)
    ym = stationary_point_y(-N, T, cov2)
    assert abs(yp + ym) < 1e-12
    n = 2
    xp, xm = n * T * yp, n * T * ym
    t1p = -cov2.xi_of_x(xp) * N
    t1m = -cov2.xi_of_x(xm) * (-N)
    assert abs(t1p - t1m) < 1e-8
    r_p = varrho(np.array([xp]), q_x2, cov2)[0]
    r_m = varrho(np.array([xm]), q_x2, cov2)[0]
    assert abs(r_p + r_m) < 1e-10


def test_phase_magnitude_growth(q_x2, cov2):
    # |Phi| ~ |ln t| ln ln t for fixed ln t / T
    vals = []
    for T in (1e3, 1e4):
        N = 0.7 * np.pi * T
        vals.append(abs(evolution_phase(N, T, q_x2, cov2)))
    growth = vals[1] / vals[0]
    assert 10.0 < growth < 10.0 * np.log(1e4 * 3) / np.log(1e3 / 3)


def test_second_derivative_formula(cov2):
    # omega''_yy at the stationary point ~ n^2/(n-1) |ln t/(pi T)|^{-(n-2)/n}
    n, T = 2, 5e3
    N = 0.8 * np.pi * T
    y0 = stationary_point_y(N, T, cov2)

    def omega(y):
        return -cov2.xi_of_x(n * T * y) * N / T + (n - 1) * abs(y) ** (n / (n - 1.0))

    h = 1e-5
    d2 = (omega(y0 + h) - 2 * omega(y0) + omega(y0 - h)) / h ** 2
    ref = n ** 2 / (n - 1.0) * abs(N / (np.pi * T)) ** (-(n - 2.0) / n)
    assert abs(d2 - ref) / ref < 30.0 / T + 1e-3


def test_y_map_unitarity():
    # |Y f|^2 has an integrable |x|^{-(n-2)/(n-1)} singularity at 0 for n > 2,
    # so the x-integral uses geometric Gauss panels toward the origin
    from conftest import integrate_panels

    f_hat = lambda u: np.exp(-(np.asarray(u) - 0.8) ** 2 / 0.3)
    for n in (2, 3, 4):
        hi = 9.0 ** (n - 1)
        edges = np.geomspace(1e-30, hi, 800)
        half = sum(
            np.real(integrate_panels(
                lambda x: np.abs(y_map(f_hat, sgn * x, n)) ** 2, edges, p=12))
            for sgn in (+1.0, -1.0))
        u = np.linspace(-9.0, 9.0, 40001)
        ref = np.trapezoid(np.abs(f_hat(u)) ** 2, u)
        assert abs(half - ref) / ref < 1e-8, f"n={n}"
    with pytest.raises(ConfigurationError):
        y_map(f_hat, np.array([1.0]), 1)


def test_profile_mass_conservation(q_x2, cov2):
    f_hat = lambda u: np.exp(-(np.asarray(u) - 1.0) ** 2 / 0.08)
    T = 1e3
    N = np.linspace(0.05 * np.pi * T, 3.5 * np.pi * T, 4000)
    res = evolution_profile(f_hat, N, T, q_x2, cov2)
    mass = profile_mass(res)
    u = np.linspace(-4.0, 6.0, 40001)
    ref = np.trapezoid(np.abs(f_hat(u)) ** 2, u)
    assert abs(mass - ref) / ref < 0.01


def test_profile_support_localization(q_x2, cov2):
    f_hat = lambda u: np.exp(-(np.asarray(u) - 1.0) ** 2 / 0.08)
    T = 1e3
    N = np.linspace(0.05 * np.pi * T, 3.5 * np.pi * T, 4000)
    res = evolution_profile(f_hat, N, T, q_x2, cov2)
    p2 = np.abs(res["prediction"]) ** 2
    mask = res["N"] >= 0.3 * T  # t >= e^{c1 T}
    frac = np.trapezoid(p2[mask], res["N"][mask]) / np.trapezoid(p2, res["N"])
    assert frac > 0.99


def test_odd_branch_vanishing(q_x3, cov3):
    f_hat = lambda u: np.exp(-(np.asarray(u) + 1.0) ** 2 / 0.1)  # left-moving
    T = 1e3
    N = np.array([0.5 * T, 1.0 * T, 2.0 * T])
    res = evolution_profile(f_hat, N, T, q_x3, cov3)
    # the branch-1 amplitude (f at negative argument) may not leak to t > 1
    assert np.all(res["branch"][res["N"] > 0] == 2)
    f_right = lambda u: np.exp(-(np.asarray(u) - 1.0) ** 2 / 0.1)
    res2 = evolution_profile(f_right, -N, T, q_x3, cov3)
    assert np.all(res2["branch"][res2["N"] < 0] == 1)


@pytest.mark.parametrize("n", [2, 3])
def test_grid_matches_scalar(n, request):
    cov = request.getfixturevalue(f"cov{n}")
    T = 1e3
    N = np.array([-9e3, -2e3, -40.0, 25.0, 0.7 * np.pi * T, 1.1e4])
    y, _, branch = _stationary_grid(N, T, cov)
    for Ni, yi, bi in zip(N, y, branch):
        ys = stationary_point_y(Ni, T, cov, branch=bi)
        assert abs(ys - yi) <= 1e-14 * abs(yi)
        if n == 3:  # the other branch does not exist at this N
            assert stationary_point_y(Ni, T, cov, branch=3 - bi) is None


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("T", [1e3, -1e3])
def test_stationary_residual_on_grid(n, T, request):
    cov = request.getfixturevalue(f"cov{n}")
    for N in (0.3 * T, -0.3 * T, 2.5 * np.pi * T, -2.5 * np.pi * T):
        branch = 1 if n % 2 and N < 0 else 2
        y = stationary_point_y(N, T, cov, branch=branch)
        assert stationary_residual(N, T, cov, y, branch=branch) <= 1e-10
    half = np.geomspace(1.0, 3.5 * np.pi * abs(T), 40)
    N = np.concatenate((-half[::-1], [0.0], half))
    y, _, branch = _stationary_grid(N, T, cov)
    assert branch[40] == 0 and y[40] == 0.0
    assert set(branch[N > 0]) == {2}
    assert set(branch[N < 0]) == ({1} if n % 2 else {2})
    for b in (1, 2):
        sel = branch == b
        if sel.any():
            res = stationary_residual(N[sel], T, cov, y[sel], branch=b)
            assert np.max(res) <= 1e-10


def test_profile_calls_f_hat_once(q_x3, cov3):
    calls = []

    def f_hat(u):
        calls.append(np.shape(u))
        return np.exp(-(np.asarray(u) - 1.0) ** 2 / 0.1)

    N = np.array([-2e3, -5.0, 0.0, 5.0, 2e3])
    res = evolution_profile(f_hat, N, 1e3, q_x3, cov3)
    assert calls == [(4,)]
    assert list(res["branch"]) == [1, 1, 0, 2, 2]
    assert res["prediction"][2] == 0.0
    res = evolution_profile(f_hat, np.zeros(2), 1e3, q_x3, cov3)
    assert list(res["branch"]) == [0, 0] and not res["prediction"].any()


def test_grid_solver_errors(q_x2, cov2, cosh_profile):
    with pytest.raises(DomainError):
        evolution_profile(lambda u: u, np.array([1.0]), 0.0, q_x2, cov2)
    with pytest.raises(DomainError):
        stationary_point_y(0.0, 1e3, cov2)
    for N, T in ((1.0, np.nan), (1.0, np.inf), (np.nan, 1e3)):
        with pytest.raises(DomainError):
            evolution_profile(lambda u: u, np.array([N, 0.2]), T, q_x2, cov2)
    cov1 = ChangeOfVariables(cosh_profile, 1)
    q1 = p_to_q(RealPolynomial([0.0, 1.0]))
    with pytest.raises(ConfigurationError):
        evolution_profile(lambda u: u, np.array([1.0]), 1e3, q1, cov1)
    with pytest.raises(ConfigurationError):
        stationary_point_y(-1.0, 1e3, cov1)
    with pytest.raises(ConfigurationError):
        stationary_point_y(-1.0, 1e3, cov2, branch=1)


def test_rho_at_far_stationary_points(q_x2):
    # power_law, T = 1e4: the stationary points of N = pi T and 4 pi T sit at
    # xi ~ 1079 and 1713, where Gamma(1/2 - i xi) is below the double range
    mpmath = pytest.importorskip("mpmath")
    n, T = 2, 1e4
    cov = ChangeOfVariables(WeightProfile("power_law"), n)
    for N in (np.pi * T, 4.0 * np.pi * T):
        xi = float(cov.xi_of_x(n * T * stationary_point_y(N, T, cov)))
        with mpmath.workdps(30):
            eta = float(-mpmath.im(mpmath.loggamma(mpmath.mpf(1) / 2
                                                   - 1j * mpmath.mpf(xi))))
        ref = eta - q_x2.coeffs[n - 1] * xi / n
        assert abs(_rho_of_xi(xi, q_x2) - ref) <= 1e-13 * max(1.0, abs(ref)), N


@pytest.mark.parametrize("family,n,T", [("cosh", 3, 10.0), ("cosh", 5, 10.0),
                                        ("power_law", 2, 1e3), ("power_law", 3, 1e3)])
def test_grid_inverts_the_map_once(family, n, T, monkeypatch):
    # the iteration runs on the closed forms in xi; xi(x) only seeds it
    cov = ChangeOfVariables(WeightProfile(family), n)
    calls, xi_of_x = [], cov.xi_of_x
    monkeypatch.setattr(cov, "xi_of_x", lambda x: calls.append(1) or xi_of_x(x))
    monkeypatch.setattr(cov, "xi_jet_of_x", lambda *a: pytest.fail("xi(x) jet"))
    _stationary_grid(np.linspace(-4.0 * T, 4.0 * T, 1001), T, cov)
    assert len(calls) == 1


@pytest.mark.parametrize("family", ["cosh", "power_law", "stretched_exp"])
def test_small_ln_t_follows_the_leading_law(family):
    # |N| -> 0 sends xi -> 0, so v(xi) -> v(0) and y -> (v(0)^{2/n} |N|)^{n-1}
    N = np.array([-1e-60, 1e-60])
    for n in range(2, 6):
        cov = ChangeOfVariables(WeightProfile(family), n)
        y, _, branch = _stationary_grid(N, 1e3, cov)
        law = (cov.profile.v(0.0) ** (2.0 / n) * 1e-60) ** (n - 1)
        law = np.where(branch == 1, law, np.sign(N) * law)
        assert np.all(np.abs(y - law) <= 1e-12 * law[1]), n


@pytest.mark.parametrize("family", ["power_law", "stretched_exp"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("T", [10.0, -10.0, 1e3, -1e3])
def test_stationary_residual_on_other_families(family, n, T):
    cov = ChangeOfVariables(WeightProfile(family), n)
    N = np.linspace(-4.0 * abs(T), 4.0 * abs(T), 800)
    y, xi, branch = _stationary_grid(N, T, cov)
    assert np.all(np.abs(xi - cov.xi_of_x(n * T * y)) <= 1e-12 * np.abs(xi))
    for b in (1, 2):
        sel = branch == b
        if sel.any():
            res = stationary_residual(N[sel], T, cov, y[sel], branch=b)
            assert np.max(res) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_underflowing_xi_is_refused(n):
    # xi scales like |T|^(n-1) as T -> 0; past the smallest normal double
    # x'(xi) / x(xi) overflows, so the solve refuses instead of warning
    cov = ChangeOfVariables(WeightProfile("cosh"), n)
    for T in (1e-300, -1e-200):
        with pytest.raises(DomainError, match="underflows"):
            _stationary_grid(np.array([-4.0, 0.1, 4.0]) * abs(T), T, cov)


@pytest.mark.parametrize("family,n,T", [("cosh", 3, 10.0), ("cosh", 4, 10.0),
                                        ("power_law", 3, 1e3), ("stretched_exp", 2, 1e3)])
def test_profile_values_do_not_depend_on_the_other_points(family, n, T):
    # each N stops its Newton on its own step, so the whole grid reads the
    # same bits as each of its points alone
    cov = ChangeOfVariables(WeightProfile(family), n)
    Q = p_to_q(RealPolynomial([0.0] * n + [1.0]))
    f_hat = lambda u: np.exp(-np.asarray(u) ** 2)
    N = np.arange(-40, 41) * 0.1 * abs(T)
    whole = evolution_profile(f_hat, N, T, Q, cov)["prediction"]
    alone = [evolution_profile(f_hat, [Ni], T, Q, cov)["prediction"][0] for Ni in N]
    assert np.array_equal(whole, alone)
