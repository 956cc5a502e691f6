import copy

import mpmath
import numpy as np
import pytest

from carleman.coeffmap import RealPolynomial, p_to_q
from carleman.errors import DomainError, ResolutionError
from carleman._jets import Jet
from carleman.hankelphase import (_STATIONARY_MARGIN, PhaseModel, ThetaEvaluator,
                                  _xi_zeta_jets, _zeta_of_xi, hankel_kernel,
                                  hankel_quadratic_form, mellin_F, quadratic_form_check,
                                  theta_asymptotic, varrho, zeta_amplitude)
from carleman.liouville import OperatorCoefficients
from carleman.profile import ChangeOfVariables
import carleman.scattering as sc
from carleman.scattering import PotentialSpec, solve_lippmann_schwinger
from carleman.specfun import eta_phase
from conftest import equidistribute_edges, integrate_panels


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
    d = eta_phase(Jet.variable(xi, 3)).derivative_values()
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
    # even n, k < 0: the incident wave e^{ikx} travels toward -inf
    entries = {"s11": 0.3 + 0.9j, "s12": 0.2 - 0.1j, "s21": -0.4j, "s22": 0.8 + 0.5j}
    v = theta_asymptotic(10.0, -1.0, model, entries)
    w = model.gamma(10.0, -1.0)
    assert abs(v - amp * entries["s12"] * np.exp(1j * w)) < 1e-14
    v = theta_asymptotic(-10.0, -1.0, model, entries)
    w = model.gamma(-10.0, -1.0)
    assert abs(v - amp * (np.exp(1j * w) + entries["s22"] * np.exp(-1j * w))) < 1e-14
    # odd n: complete-reflection sectors return 0
    model3 = PhaseModel(n=3, q_n1=0.0, a0=1.9, a1=-0.5)
    assert theta_asymptotic(-5.0, 1.0, model3, {"s": 1.0}) == 0.0
    assert theta_asymptotic(5.0, -1.0, model3, {"s": 1.0}) == 0.0
    # odd n, k < 0, N < 0: transmitted plus incident wave
    s = 0.6 - 0.8j
    v = theta_asymptotic(-5.0, -1.0, model3, {"s": s})
    w = model3.gamma(-5.0, -1.0)
    assert abs(v - np.sqrt(3.0 / np.pi) * (s * np.exp(1j * w) + np.exp(-1j * w))) < 1e-14


def test_theta_evaluator_consistency(field2m1, q_x2m1, cov2):
    ev1 = ThetaEvaluator(field2m1, q_x2m1, cov2)
    ev2 = ThetaEvaluator(field2m1, q_x2m1, cov2, x_split=field2m1.X0 / 1.5)
    for N in (12.0, -18.0):
        assert abs(ev1.theta_scaled(N) - ev2.theta_scaled(N)) < 1e-4


def test_theta_resolution_guard(field2m1, q_x2m1, cov2):
    ev = ThetaEvaluator(field2m1, q_x2m1, cov2)
    with pytest.raises(ResolutionError):
        ev.theta_scaled(200.0)
    # n |N| overflows a double: the guard still raises, with no overflow warning
    for N in (1e308, np.array([5.0, 1e308])):
        with pytest.raises(ResolutionError):
            ev.theta_scaled(N)


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


def test_theta_refuses_non_finite_N(ev2):
    for N in (np.nan, np.array([np.nan, 5.0]), -np.inf):
        with pytest.raises(DomainError):
            ev2.theta_scaled(N)


def test_xi_of_x_evaluates_each_root_cell_once(ev2, monkeypatch):
    # v^(-2/n) at the 16 Gauss nodes of each distinct cell holding a root,
    # then once per point for each Newton derivative: no per-point quadrature
    cov, x = ev2.cov, ev2._x
    sizes, integrand = [], cov.x_prime
    monkeypatch.setattr(cov, "x_prime",
                        lambda xi: sizes.append(np.size(xi)) or integrand(xi))
    xi = cov.xi_of_x(x)
    assert np.max(np.abs(xi - ev2._xi)) <= 1e-12
    cells = np.unique(np.maximum(np.searchsorted(cov._cum, np.abs(x)) - 1, 0)).size
    steps = sizes.count(x.size)
    assert 1 <= steps <= 6
    assert sum(sizes) <= 16 * cells + steps * x.size


def test_theta_batch_matches_scalar_calls(ev2):
    grid = np.array([-30.0, -17.3, -2.0, 0.5, 12.5, 30.0])
    batch = ev2.theta_scaled(grid)
    assert batch.shape == grid.shape
    assert np.array_equal(batch, [ev2.theta_scaled(N) for N in grid])
    assert np.array_equal(ev2.theta_scaled(grid[::-1]), batch[::-1])


def test_theta_scalar_returns_complex_scalar(ev2):
    v = ev2.theta_scaled(12.5)
    assert np.ndim(v) == 0 and isinstance(v, complex)


@pytest.fixture(scope="module")
def theta_evaluator(cosh_profile):
    """ThetaEvaluator(n, k) for P = X^2 - 1, X^3, X^4 or X^5, X = 1e4, built once."""
    polys = {2: [-1.0, 0.0, 1.0], 3: [0.0, 0.0, 0.0, 1.0], 4: [0.0, 0.0, 0.0, 0.0, 1.0],
             5: [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]}
    built = {}

    def get(n, k):
        if (n, k) not in built:
            Q = p_to_q(RealPolynomial(polys[n]))
            cov = ChangeOfVariables(cosh_profile, n)
            pot = PotentialSpec.from_operator(OperatorCoefficients(Q, cov))
            built[n, k] = ThetaEvaluator(solve_lippmann_schwinger(pot, k, X=1.0e4), Q, cov)
        return built[n, k]
    return get


def _n_lim(ev):
    """The largest |N| the evaluator's node set is built for."""
    return (ev.x_split / _STATIONARY_MARGIN - ev._shift) * np.pi * abs(ev.k) / ev.n


def _tail_psi(ev, side, u):
    """psi at x = side u from the tail fits, whose components are the sides
    that share one: both for even n, one each for odd n."""
    i = (1 - side) // 2
    fit = ev._tails[i % len(ev._tails)](u)
    return fit[i % len(fit)]


def _theta_reference(ev, N, dphase=np.pi / 8, p=16):
    """sqrt(t) theta on the evaluator's tables and closures, by Gauss-p on its
    table panels cut where the phase |N| xi + |k| x passes a multiple of
    `dphase`."""
    cov, k = ev.cov, abs(ev.k)

    def phase_zeta(x):
        xi = cov.xi_of_x(x)
        return _zeta_of_xi(xi, ev.Q, cov) * np.exp(-1j * xi * N)

    def edges(table_edges, samples):
        s = np.union1d(table_edges, samples)
        cuts = equidistribute_edges(s, abs(N) * cov.xi_of_x(s) + k * s, dphase)
        return np.union1d(table_edges, cuts)

    core, tail = ev._psi.edges, ev._tails[0].edges
    core = edges(core, np.linspace(core[0], core[-1], 4097))
    total = integrate_panels(lambda x: phase_zeta(x) * ev._psi(x), core, p)
    tail = edges(tail, np.geomspace(tail[0], tail[-1], 400))
    for side in (+1, -1):
        total += integrate_panels(
            lambda v: phase_zeta(side * v) * _tail_psi(ev, side, v), tail, p)
    return (total + ev._closure(N)) / np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_theta_matches_refined_per_N_panels(n, theta_evaluator):
    ev = theta_evaluator(n, 1.0)
    Ns = np.array([-30.0, -7.5, 12.5, 25.0, -0.99 * _n_lim(ev), 0.99 * _n_lim(ev)])
    ref = np.array([_theta_reference(ev, N) for N in Ns])
    assert np.max(np.abs(ev.theta_scaled(Ns) - ref)) <= 1e-12


@pytest.mark.parametrize("p, k", [([-1.0, 0.0, 1.0], 1.0), ([0.0, 0.0, 0.0, 1.0], -1.0),
                                  ([0.0, 0.0, 0.0, 0.0, 1.0], 1.0)], ids=["x2m1", "x3", "x4"])
def test_theta_is_independent_of_x_tail(p, k, cosh_profile):
    # the closures start from the envelopes r_w(+-x_tail), not their limits at
    # +-inf, so moving x_tail from 2000 to 8000 moves theta by the closures'
    # remainder only: 7e-9 to 2e-8 of max|theta| (3.4e-6 to 2.4e-5 with the limits)
    Q = p_to_q(RealPolynomial(p))
    cov = ChangeOfVariables(cosh_profile, Q.degree)
    pot = PotentialSpec.from_operator(OperatorCoefficients(Q, cov))
    field = solve_lippmann_schwinger(pot, k, X=1.0e6)
    Ns = np.array([N for N in np.arange(-30.0, 31.0, 5.0) if N != 0.0])
    near, far = (ThetaEvaluator(field, Q, cov, x_tail=x).theta_scaled(Ns)
                 for x in (2000.0, 8000.0))
    assert np.max(np.abs(near - far)) <= 1e-7 * np.max(np.abs(far))


# node counts of 12-point Gauss panels equidistributed at pi/2 of the same
# phase bound along its arc over the core and the tails, table edges ignored
_EQUIDISTRIBUTED_NODES = {(2, 1.0): 42792, (2, 2.0): 85560, (3, 1.0): 41856,
                          (3, 2.0): 83700, (4, 1.0): 41292, (4, 2.0): 82560}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [1.0, 2.0])
def test_theta_nodes_cut_table_panels_at_8pi_of_phase(n, k, theta_evaluator):
    # the nodes are 20-point Gauss parts that tile [-x_tail, x_tail]; every
    # psi table edge is a part edge, and no part spans more than 8 pi of the
    # phase bound n_lim xi + |k| x at the largest admissible |N|
    ev = theta_evaluator(n, k)
    x, w = ev._x.reshape(-1, 20), ev._w.reshape(-1, 20)
    c, h = 0.5 * (x[:, 0] + x[:, -1]), 0.5 * w.sum(axis=1)
    lo, hi = np.sort(c - h), np.sort(c + h)
    assert np.allclose([lo[0], hi[-1]], [-ev.x_tail, ev.x_tail], rtol=0, atol=1e-9)
    assert np.max(np.abs(lo[1:] - hi[:-1])) <= 1e-9
    ends, tail = np.append(lo, hi[-1]), ev._tails[0].edges
    for e in (ev._psi.edges, tail, -tail):
        assert np.all(np.min(np.abs(ends[:, None] - e), axis=0) <= 1e-9)
    phase = lambda x: _n_lim(ev) * ev.cov.xi_of_x(x) + abs(k) * x
    assert np.max(phase(hi) - phase(lo)) <= 8.0 * np.pi + 1e-9
    assert 3 * ev._x.size < _EQUIDISTRIBUTED_NODES[n, k]


@pytest.fixture(scope="module")
def solved(pot2m1, q_x2m1, cov2, pot3, q_x3, cov3):
    """(field, Q, cov) for P = X^2 - 1 (n = 2) or X^3 at k, X = 1e4, solved once."""
    built = {}

    def get(n, k):
        if (n, k) not in built:
            pot, Q, cov = (pot2m1, q_x2m1, cov2) if n == 2 else (pot3, q_x3, cov3)
            built[n, k] = solve_lippmann_schwinger(pot, k, X=1.0e4), Q, cov
        return built[n, k]
    return get


def _theta_and_every_node_theta(ev, field, Ns=np.arange(-30.0, 31.0, 5.0)):
    """theta at Ns, and theta over the evaluator's own nodes and closures with
    psi read from the field at every node instead of from its tables."""
    xi = ev.cov.xi_of_x(ev._x)
    amp = ev._w * field.psi_at(ev._x) * zeta_amplitude(ev._x, ev.Q, ev.cov)
    ref = np.array([np.exp(-1j * N * xi) @ amp + ev._closure(N) for N in Ns])
    return ev.theta_scaled(Ns), ref / np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1.0, -1.0])
def test_theta_matches_direct_psi(n, k, solved):
    field, Q, cov = solved(n, k)
    theta, ref = _theta_and_every_node_theta(ThetaEvaluator(field, Q, cov), field)
    assert np.max(np.abs(theta - ref)) <= 1e-9


@pytest.mark.parametrize("n, k", [(2, 1.0), (2, -1.0), (2, 2.0), (3, 1.0), (3, -1.0)])
def test_theta_tables_match_every_node_psi_to_rounding(n, k, solved):
    # the tables sit on the field's panels, where psi is smooth, so reading
    # psi from them moves theta by rounding only (X^4 reads 2.6e-11, from the
    # first outer panels, where the complex-root terms die)
    field, Q, cov = solved(n, k)
    theta, ref = _theta_and_every_node_theta(ThetaEvaluator(field, Q, cov), field)
    assert np.max(np.abs(theta - ref)) <= 1e-13 * np.max(np.abs(theta))


def test_theta_on_a_field_without_outer_sides(q_x2m1, cov2):
    # a compactly supported potential has no outer sides: the tail tables hold
    # no panel, and the closures start at +-X0
    pot = PotentialSpec(2, [lambda x: np.where(np.abs(np.asarray(x)) <= 1.3, -0.6, 0.0)],
                        support=1.3, breakpoints=(1.3,))
    field = solve_lippmann_schwinger(pot, 1.0, X=100.0)
    ev = ThetaEvaluator(field, q_x2m1, cov2)
    assert ev.x_tail == field.X0 and ev._tails[0].edges.tolist() == [field.X0]
    theta, ref = _theta_and_every_node_theta(ev, field, np.array([-2.0, 1.0, 2.0]))
    assert np.max(np.abs(theta - ref)) <= 1e-13 * np.max(np.abs(theta))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1.0, -1.0])
@pytest.mark.parametrize("split", [1.0, 1.5])
def test_psi_tables_sit_on_the_field_panels(n, k, split, solved):
    # the core table's edges are the field's on [-X0, X0], and each tail's
    # are the field's out to x_tail, then x_tail, whatever x_split is
    field, Q, cov = solved(n, k)
    ev = ThetaEvaluator(field, Q, cov, x_split=field.X0 / split)
    edges = field.edges
    assert np.array_equal(ev._psi.edges, edges[np.abs(edges) <= field.X0])
    for side, fit in zip((+1, -1), ev._tails * 2):  # one fit per side, or one for both
        u = np.sort(side * edges)  # a tail table's edges are in u = |x|
        assert np.array_equal(fit.edges,
                              np.append(u[(u >= field.X0) & (u < ev.x_tail)], ev.x_tail))


@pytest.mark.parametrize("n, k", [(2, 1.0), (2, 2.0), (3, 1.0), (3, -1.0), (4, 1.0)])
def test_batched_end_jets_match_per_side_jets(n, k, theta_evaluator):
    ev = copy.copy(theta_evaluator(n, k))
    Ns = np.array([N for N in np.arange(-30.0, 31.0, 5.0) if N != 0.0])
    batched = ev.theta_scaled(Ns)
    per_side = [_xi_zeta_jets([s * ev.x_tail], ev.Q, ev.cov) for s in (1, -1)]
    ev._end_jets = [Jet(np.concatenate([a.c, b.c], axis=1)) for a, b in zip(*per_side)]
    assert np.array_equal(ev.theta_scaled(Ns), batched)


@pytest.mark.parametrize("p, k, bound", [(3, 1.0, 1e-12), (3, -1.0, 1e-12), (5, 1.0, 1e-11)])
def test_odd_n_theta_on_the_default_core_matches_x0_120(p, k, bound, cosh_profile):
    # x_split stays 120 while odd n's core ends at 30; the README grid reads
    # 2.9e-13, 2.6e-13 and 2.5e-12 of max|theta|
    Q = p_to_q(RealPolynomial([0.0] * p + [1.0]))
    cov = ChangeOfVariables(cosh_profile, p)
    pot = PotentialSpec.from_operator(OperatorCoefficients(Q, cov))
    Ns = np.array([N for N in np.arange(-25.0, 26.0, 5.0) if N != 0.0])
    fields = [solve_lippmann_schwinger(pot, k, X=1.0e4, x_core=x0) for x0 in (None, 120.0)]
    assert fields[0].X0 == 30.0
    a, b = (ThetaEvaluator(f, Q, cov).theta_scaled(Ns) for f in fields)
    assert np.max(np.abs(a - b)) <= bound * np.max(np.abs(b))


def test_theta_grid_resolution_guard_matches_scalar(ev2):
    with pytest.raises(ResolutionError) as scalar:
        ev2.theta_scaled(200.0)
    with pytest.raises(ResolutionError) as batch:
        ev2.theta_scaled(np.array([-30.0, 200.0, 10.0]))
    assert batch.value.suggested_x_split == scalar.value.suggested_x_split
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1.0, -1.0])
def test_core_table_matches_psi(n, k, solved):
    # the core table's panels are the field's, where the derivatives of psi
    # jump
    field, Q, cov = solved(n, k)
    ev = ThetaEvaluator(field, Q, cov)
    x = np.linspace(-6.0, 6.0, 6001)
    assert np.max(np.abs(ev._psi(x) - field.psi_at(x))) <= 1e-11
    assert not field.edges.flags.writeable


_COMPACT = PotentialSpec(2, [lambda x: np.where(np.abs(np.asarray(x)) <= 1.3, -0.6, 0.0)],
                         support=1.3, breakpoints=(1.3,))


@pytest.mark.parametrize("p, k, X", [
    ([-1.0, 0.0, 1.0], 1.0, 1.0e4), ([-1.0, 0.0, 1.0], 2.0, 1.0e4),
    ([0.0, 0.0, 0.0, 1.0], 1.0, 1.0e4), ([0.0, 0.0, 0.0, 1.0], -1.0, 1.0e4),
    ([0.0] * 4 + [1.0], 1.0, 1.0e4), ([0.0] * 5 + [1.0], 1.0, 1.0e4),
    ([-1.0, 0.0, 1.0], 1.0, 1500.0), ([0.0, 0.0, 0.0, 1.0], 1.0, 1500.0), (None, 1.0, 100.0)],
    ids=["x2m1", "x2m1-k2", "x3", "x3-k-1", "x4", "x5", "x2m1-X1500", "x3-X1500", "compact"])
def test_panel_read_matches_psi_at(p, k, X, cosh_profile, monkeypatch):
    # the three panel-aligned reads of a ThetaEvaluator build: the core, both
    # tails (their last panel [e, x_tail] partial, or whole when x_tail = X =
    # 1500; none on a compactly supported field) and the closures' ends.
    # They equal psi_at, r_plus and r_minus at the same points to 1e-14 of
    # |psi| + sum_b |a_b K_b|, the terms psi sums: X^5's core has |a_b K_b|
    # up to 10 where |psi| = 0.05, and both evaluations round there (read at
    # 3.4e-14 of max|psi|, 1.6e-15 of the terms).  The build forms each
    # distinct (p, half-width, d nu, points) key's moments once and calls
    # psi_at zero times.
    Q = p_to_q(RealPolynomial([-1.0, 0.0, 1.0] if p is None else p))
    cov = ChangeOfVariables(cosh_profile, Q.degree)
    pot = _COMPACT if p is None else PotentialSpec.from_operator(OperatorCoefficients(Q, cov))
    field = solve_lippmann_schwinger(pot, k, X=X)
    reads, formed, psi_calls = [], [], []
    sample, moments = sc.EigenfunctionField.sample, sc._panel_moments

    def recorded_moments(mesh, branches, mus, t, cache=None, q=None):
        before = set(cache)
        out = moments(mesh, branches, mus, t, cache, q)
        formed.extend(set(cache) - before)
        return out
    monkeypatch.setattr(sc, "_panel_moments", recorded_moments)
    monkeypatch.setattr(sc.EigenfunctionField, "sample", lambda f, c, h, t: reads.append(
        (np.asarray(c), np.asarray(h), np.asarray(t), sample(f, c, h, t))) or reads[-1][3])
    monkeypatch.setattr(sc.EigenfunctionField, "psi_at", lambda *a: psi_calls.append(a))
    ev = ThetaEvaluator(field, Q, cov)
    monkeypatch.undo()
    assert not psi_calls and formed and len(set(formed)) == len(formed)
    # the core, the tails (one read for both sides of even n, one per side of
    # odd n), the ends
    (core_c, core_h, _, _), *tails, (end_c, end_h, _, _) = reads
    assert core_c.ravel()[-1] + core_h.ravel()[-1] == field.X0
    assert end_c.tolist() == [ev.x_tail, -ev.x_tail]
    assert len(tails) == 3 - len(field.waves) and not end_h.any()
    far = np.concatenate([np.ravel((c + h)[..., -1:, :]) for c, h, _, _ in tails])
    if p is None:
        assert far.size == 0
    else:  # right side, then left, each ending at its end of the tails
        assert np.allclose(far.ravel(), [ev.x_tail, -ev.x_tail], rtol=1e-15, atol=0)
        assert (ev.x_tail in field.edges) == (X == ev.x_tail)
    for c, h, t, (psi, env) in reads:
        x = (c + h * t).ravel()
        scale = np.abs(field.psi_at(x)) + sum(abs(a_b) * np.abs(field._kernel(x, i))
                                              for i, (_, a_b, _) in enumerate(field._branches))
        assert np.all(np.abs(psi.ravel() - field.psi_at(x)) <= 1e-14 * scale)
        for w, r in env.items():
            want = field.r_plus(x) if w == 1 else field.r_minus(x)
            assert np.all(np.abs(r.ravel() - want) <= 1e-14 * scale)
