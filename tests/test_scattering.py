import functools

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre

from carleman.errors import ConfigurationError, DomainError, NearExceptionalPointError
from carleman.oscquad import (_ChebTable, exp_monomial_moments, gauss_rule, graded_edges,
                              lagrange_coeff_matrix)
import carleman.scattering as sc
from carleman.scattering import (CORE_RADIUS, PotentialSpec, _core_mesh, _CoreSolver,
                                 _panel_moments, eigenvalue_multiplicity_bound,
                                 free_resolvent_kernel, ode_cross_check,
                                 scattering_matrix, solve_lippmann_schwinger,
                                 square_well_reflection, zeta_roots)
from conftest import direct_kernel, direct_moments, point_read


def zero_potential(support=6.0):
    return PotentialSpec(2, [lambda x: np.zeros_like(np.asarray(x, dtype=float))],
                         support=support)


def well_potential(V0=0.6, a=1.3):
    return PotentialSpec(
        2, [lambda x: np.where(np.abs(np.asarray(x)) <= a, -V0, 0.0)],
        support=a, breakpoints=(a,))


# -- roots -------------------------------------------------------------------

def test_square_roots_of_minus_one():
    branches = zeta_roots(-1.0, 2)
    vals = sorted((zeta for zeta, _, _ in branches), key=lambda z: z.imag)
    assert abs(vals[0] + 1j) < 1e-14 and abs(vals[1] - 1j) < 1e-14
    assert [(upper, zeta.imag > 0) for zeta, _, upper in branches] == [(True, True),
                                                                      (False, False)]


def test_root_residuals_random(rng):
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 0.1:
            continue
        n = int(rng.integers(1, 7))
        roots = np.array([zeta for zeta, _, _ in zeta_roots(z, n)])
        assert roots.size == n
        assert np.max(np.abs(roots ** n - z)) < 1e-12 * abs(z) * 10


def test_real_root_side_resolution():
    for side, up in (("+", 1), ("-", -1)):
        sides = {round(zeta.real): upper for zeta, _, upper in zeta_roots(1.0, 2, side=side)
                 if not zeta.imag}
        assert sides == {up: True, -up: False}


def test_multiplicity_bounds():
    assert eigenvalue_multiplicity_bound(3, 1) == 1            # (n-1)/2
    assert eigenvalue_multiplicity_bound(4, 1) == 1            # n/2 - 1
    assert eigenvalue_multiplicity_bound(4, -1) == 2           # n/2
    assert eigenvalue_multiplicity_bound(5, 1) == 2


def test_zero_energy_rejected():
    with pytest.raises(DomainError):
        zeta_roots(0.0, 2)
    with pytest.raises(DomainError):
        free_resolvent_kernel(0.0, 1.0, 0.0, 2)


# -- free resolvent -----------------------------------------------------------

def test_laplacian_resolvent():
    for x, y in [(0.3, -0.4), (1.0, 1.0), (-2.0, 1.0)]:
        K = free_resolvent_kernel(x, y, -1.0, 2)
        assert abs(K - np.exp(-abs(x - y)) / 2.0) < 1e-14


def test_resolvent_conjugation_even_n():
    z = 0.7 + 0.3j
    K1 = free_resolvent_kernel(0.4, 1.2, np.conj(z), 2)
    K2 = np.conj(free_resolvent_kernel(0.4, 1.2, z, 2))
    assert abs(K1 - K2) < 1e-14


def test_resolvent_branch_continuity_at_diagonal():
    for n in (2, 3, 4):
        left = free_resolvent_kernel(1.0 - 1e-9, 1.0, 1.0, n)
        right = free_resolvent_kernel(1.0 + 1e-9, 1.0, 1.0, n)
        assert abs(left - right) < 1e-7


def test_resolvent_applies_inverse():
    # (D^2 + 1) applied to R0(.,y;-1) gives ~0 away from the diagonal
    xs = np.array([0.5, 2.0])
    h = 1e-4
    for x in xs:
        vals = [free_resolvent_kernel(x + d, -1.0, -1.0, 2)
                for d in (-h, 0.0, h)]
        lap = (vals[0] - 2 * vals[1] + vals[2]) / h ** 2
        assert abs(-lap + vals[1]) < 1e-6


# -- solver ------------------------------------------------------------------

def test_free_solution_is_plane_wave():
    f = solve_lippmann_schwinger(zero_potential(), 1.0, X=20.0)
    xs = np.linspace(-4.0, 4.0, 9)
    assert np.max(np.abs(f.psi_at(xs) - np.exp(1j * xs))) < 1e-13
    lims = f.r_limits()
    assert abs(lims[+1, +1] - 1.0) < 1e-14
    assert abs(lims[-1, -1]) < 1e-14


def test_square_well_against_closed_form():
    V0, a, k = 0.6, 1.3, 0.9
    f = solve_lippmann_schwinger(well_potential(V0, a), k, X=30.0)
    lims = f.r_limits()
    ref = square_well_reflection(V0, a, k)
    assert abs(lims[+1, +1] - ref["s11"]) < 1e-10
    assert abs(lims[-1, -1] - ref["s21"]) < 1e-10


def test_ode_route_against_closed_form():
    V0, a, k = 0.6, 1.3, 0.9
    o = ode_cross_check(well_potential(V0, a), k, X=a)
    ref = square_well_reflection(V0, a, k)
    assert abs(o["s11"] - ref["s11"]) < 1e-6
    assert abs(o["s21"] - ref["s21"]) < 1e-6


def test_born_weak_coupling_order(rng):
    from scipy.integrate import simpson

    def born_error(eps):
        pot = PotentialSpec(
            2, [lambda x: -eps * np.exp(-0.3 * np.asarray(x) ** 2)], support=14.0)
        f = solve_lippmann_schwinger(pot, 1.0, X=20.0)
        xs = np.linspace(-6.0, 6.0, 13)
        yg = np.linspace(-14.0, 14.0, 4001)
        Vp = -eps * np.exp(-0.3 * yg ** 2) * np.exp(1j * yg)
        born = np.array([simpson(free_resolvent_kernel(x, yg, 1.0, 2) * Vp, x=yg)
                         for x in xs])
        return np.max(np.abs(f.psi_at(xs) - np.exp(1j * xs) + born))

    e1, e2 = born_error(1e-2), born_error(3e-3)
    order = np.log(e1 / e2) / np.log(1e-2 / 3e-3)
    assert 1.8 < order < 2.2


def test_field_asymptotics_and_derivatives():
    V0, a, k = 0.6, 1.3, 0.9
    f = solve_lippmann_schwinger(well_potential(V0, a), k, X=30.0)
    lims = f.r_limits()
    x = np.array([25.0])
    assert abs(f.psi_at(x)[0] - lims[+1, +1] * np.exp(1j * k * 25)) < 1e-12
    assert abs(f.psi_at(x, deriv=1)[0]
               - k * lims[+1, +1] * np.exp(1j * k * 25)) < 1e-12
    xl = np.array([-25.0])
    ref = np.exp(-1j * k * 25) + lims[-1, -1] * np.exp(1j * k * 25)
    assert abs(f.psi_at(xl)[0] - ref) < 1e-12


def test_field_boundedness_and_residual(field2):
    xs = np.linspace(-field2.X0, field2.X0, 301)
    total = sum(np.max(np.abs(field2.psi_at(xs, deriv=p))) for p in range(2))
    assert np.isfinite(total)
    assert field2.diagnostics["residual"] < 1e-8
    assert field2.diagnostics["rcond"] > 1e-10


def test_w_decay_recorded(field2, pot2):
    # |w| (1+|x|)^rho bounded with rho = 2 for the gauged cosh operator
    xs = np.linspace(5.0, field2.X0, 57)
    w = field2.w_at(xs)
    assert np.max(np.abs(w) * (1 + xs) ** 2) < 10.0


def test_decomposition_identity(field3):
    # psi = e^{ikx} r(x) + psi_dec with psi_dec built from the complex roots
    xs = np.linspace(-30.0, 30.0, 13)
    psi = field3.psi_at(xs)
    osc = np.exp(1j * field3.k * xs) * point_read(field3, xs)[1][1]
    dec = psi - osc
    # the decaying part dies toward the grid ends
    assert np.abs(dec[0]) < 2e-2 and np.abs(dec[-1]) < 2e-2
    assert np.max(np.abs(dec)) > 1e-2  # but is genuinely present near 0


def test_field_survives_a_later_solve(pot2):
    # a field owns its outer densities: solving the same core at 2X leaves
    # the X field's limits and its values beyond X0 unchanged
    fresh = _CoreSolver(pot2, 1.0, 60.0).solve(2000.0)
    solver = _CoreSolver(pot2, 1.0, 60.0)
    fX = solver.solve(2000.0)
    solver.solve(4000.0)
    xs = np.array([-3000.0, -1500.0, -75.0, 30.0, 75.0, 1500.0, 3000.0])
    assert fX.r_limits() == fresh.r_limits()
    assert np.array_equal(point_read(fX, xs)[1][1], point_read(fresh, xs)[1][1])
    assert np.array_equal(fX.psi_at(xs), fresh.psi_at(xs))


def test_born_and_tail_diagnostics(field2, field3):
    # the whole-line state system is well conditioned, and the field then
    # solves its own equation, outer sides included, to rounding
    for f in (field2, field3):
        d = f.diagnostics
        assert d["residual"] <= 1e-12
        assert d["rcond"] >= sc.RCOND_FLOOR


def test_ill_conditioned_matching_is_near_exceptional(pot2, monkeypatch):
    # the whole-line system's rcond is held to RCOND_FLOOR at solve time, and
    # a refused truncation is not remembered as one without outer sides
    solver = _CoreSolver(pot2, 1.0, 60.0)
    monkeypatch.setattr(sc, "RCOND_FLOOR", 1.0)
    with pytest.raises(NearExceptionalPointError):
        solver.solve(2000.0)
    monkeypatch.undo()
    f = solver.solve(2000.0)
    assert +1 in f._dens and f.diagnostics["rcond"] < 1.0


def test_singular_panel_block_is_near_exceptional(monkeypatch):
    # b~_0 = c on the panel [0, 0.35] only: that panel's block is I + c K
    def pot(c):
        return PotentialSpec(
            2, [lambda x: np.where((x > 0.0) & (x < 0.35), c, 0.0)], support=0.35)

    probe = _CoreSolver(pot(1.0), 1.0, 2.35)
    P = int(np.searchsorted(probe.mesh.edges, 0.0))
    K = np.linalg.inv(probe.blocks.Cinv[P]) - np.eye(probe.mesh.p)
    mu = np.linalg.eigvals(K)
    c = -1.0 / mu[np.argmax(np.abs(mu))]
    with pytest.raises(NearExceptionalPointError):
        scattering_matrix(pot(c), 1.0, X=10.0)
    # an exactly singular block, as LAPACK reports it for the stack of blocks
    inv = np.linalg.inv

    def singular(a):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(NearExceptionalPointError):
        scattering_matrix(pot(1.0), 1.0, X=10.0)
    monkeypatch.undo()
    # an exactly singular edge-state system: zgbtrf reports a zero pivot
    with pytest.raises(np.linalg.LinAlgError):
        sc.lu_factor(np.zeros((4, 3), dtype=complex), 1, 1)
    lu = sc.lu_factor
    monkeypatch.setattr(sc, "lu_factor", lambda ab, *a: lu(0.0 * ab, *a))
    with pytest.raises(NearExceptionalPointError):
        scattering_matrix(pot(1.0), 1.0, X=10.0)


@pytest.mark.parametrize("which", ["field2", "field3"])
def test_kernel_matches_direct_panel_sums(which, request):
    # K_b read from the line solve's states against a direct sum over the
    # panels of the whole line (conftest's direct_kernel).  Every branch
    # (n = 2: two real roots; n = 3: one real and two complex), both sweeps,
    # at points in the core and on the outer sides drawn from rng seeds 0-19
    f = request.getfixturevalue(which)
    w_max = np.max(np.abs(f.w))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x_core = rng.uniform(-f.X0, f.X0, 4)
        x_out = rng.choice([-1.0, 1.0], 4) * f.X0 * (f.X / f.X0) ** rng.uniform(0.0, 1.0, 4)
        for xs, bound in ((x_core, 1e-13), (x_out, 3e-12)):
            K = point_read(f, xs)[0]
            for b, (zeta, _, upper) in enumerate(f._branches):
                err = np.abs(K[b] - direct_kernel(f, b, xs))
                assert np.all(err <= bound * w_max), (zeta, upper, seed, xs)


@pytest.mark.parametrize("which, k", [("pot2m1", 1.0), ("pot2m1", 5.0 ** 0.5),
                                      ("pot3", -1.0), ("pot4", 1.0)])
def test_state_residual(which, k, request, monkeypatch):
    # the whole-line state system's row defect, relative to max|s|, is at
    # rounding; states off by a random relative 1e-8 show in it (a uniform
    # scaling lies too close to the solution's own direction)
    pot = request.getfixturevalue(which)
    assert solve_lippmann_schwinger(pot, k).diagnostics["state_residual"] <= 1e-14
    lu, rng = sc.lu_solve, np.random.default_rng(5)

    def perturbed(*a):
        s = lu(*a)
        return s * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0, s.shape))
    monkeypatch.setattr(sc, "lu_solve", perturbed)
    assert solve_lippmann_schwinger(pot, k).diagnostics["state_residual"] >= 1e-9


def half_widths(mesh):
    return 0.5 * (mesh.hi - mesh.lo)


def test_panel_moments_match_direct_moments():
    # each branch's moments on every panel, at points that every row shares
    # and at the same points given row by row, are the direct_moments values at
    # those points along its sweep (x upward, -x downward), bitwise: the whole
    # panel (t = 1), the reference Gauss nodes, and the 12, 24 and 25
    # first-kind Chebyshev points of theta's psi tables; for real and complex
    # nu in both sweeps (nu = +-1 in both)
    mesh = _core_mesh(12.0, 1.0)
    q = np.arange(mesh.n_panels)
    zeta, mus = 0.5 + 0.866j, np.array([0.0, 2.0])
    branches = [(1.0, None, True), (zeta, None, True), (1.0, None, False),
                (-1.0, None, False), (np.conj(zeta), None, False)]
    cheb = [np.cos(np.pi * (np.arange(m) + 0.5) / m) for m in (12, 24, 25)]
    for t in (np.array([1.0]), gauss_rule(mesh.p)[0], *cheb):
        rows = np.broadcast_to(t, (len(branches), q.size, t.size))
        for ts in (t, rows):
            moments = _panel_moments(mesh, branches, mus, half_widths(mesh), ts)
            for (z, _, upper), got in zip(branches, moments):
                for nu, m in zip(mus - z, got):
                    sweep = np.tile((1 if upper else -1) * t, (q.size, 1))
                    want = direct_moments(mesh, nu, np.repeat(q[:, None], t.size, 1), sweep, upper)
                    assert np.array_equal(m, want), (z, upper, t.size)


@pytest.mark.parametrize("potential, k", [("pot2", 1.0), ("pot3", 0.8)])
def test_zero_dnu_moments_are_the_half_width_times_the_unit_width_ones(
        potential, k, request, monkeypatch):
    # at d nu = 0 (an outer wave on its own root) a panel moment is its
    # half-width w times the unit-width one at the same points: in the outer
    # union's elimination and in a panel read of the right side (a theta tail
    # table's), each such moment is w times the unit-width moments, and the
    # moments formed at w, bitwise
    calls, moments = [], sc._panel_moments
    monkeypatch.setattr(sc, "_panel_moments",
                        lambda *a: calls.append((a, list(moments(*a)))) or iter(calls[-1][1]))
    field = _CoreSolver(request.getfixturevalue(potential), k, 120.0, (1e4,)).solve(1e4)
    e = field.edges[field.edges >= field.X0][:13]
    c, h = 0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e)
    field.sample(c[:, None], h[:, None], _ChebTable.grid(len(field.waves), 12))
    for (mesh, branches, mus, widths, t), out in (calls[1], calls[-1]):  # the union's, the read
        checked = 0
        for j, ((zeta, _, upper), m) in enumerate(zip(branches, out)):
            for mu, m_mu in zip(mus, m):
                for i, w in enumerate(widths if mu == zeta else []):
                    tw = t if t.ndim == 1 else t[j, i]
                    unit = exp_monomial_moments(0j, tw, mesh.p) @ mesh.cmat
                    formed = w * (exp_monomial_moments(0j * w, tw, mesh.p) @ mesh.cmat)
                    for want in (w * unit, formed):
                        assert np.array_equal(m_mu[i], want[..., ::1 if upper else -1])
                    checked += 1
        assert checked >= 12 * len(field.waves)


# real frequencies on both sides of the series / recurrence switch, and
# complex ones decaying downward
NUS_DOWN = [0.0, 0.7, -3.0, 12.0, -0.5 + 0.866j, 2.0 + 5.0j]


@functools.cache
def gauss_legendre_24(dps):
    with mpmath.workdps(dps):
        return GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)


def lagrange_moments_down(nodes, nu, s, t, dps=30):
    """s int_t^1 l_r(u) e^{i nu s (u - t)} du for the Lagrange basis l_r on
    `nodes`, by 24-point Gauss-Legendre in mpmath on pieces of <= 3 radians."""
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in nodes]
        bary = [1 / mpmath.fprod(x[r] - x[j] for j in range(len(x)) if j != r)
                for r in range(len(x))]
        a, t = 1j * mpmath.mpc(nu) * mpmath.mpf(s), mpmath.mpf(t)
        cuts = mpmath.linspace(t, 1, int(abs(a) * (1 - t) / 3.0) + 2)
        out = [0] * len(x)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            c, h = (lo + hi) / 2, (hi - lo) / 2
            for g, gw in gauss_legendre_24(dps):
                u = c + h * g
                e = s * h * gw * mpmath.exp(a * (u - t)) * mpmath.fprod(u - v for v in x)
                out = [o + e * b / (u - v) for o, b, v in zip(out, bary, x)]
        return np.array([complex(o) for o in out])


@pytest.mark.parametrize("p", [8, 10])
def test_downward_moments_match_mpmath(p, rng):
    # the downward sweep is read from the upward primitive at -nu; against
    # 30-digit Lagrange moments on a narrow and a wide panel, for real and
    # complex nu (Im nu >= 0 downward): whole panels, partial panels up from
    # each node (direct and as the solver's eliminations take them) and at
    # random points
    edges = np.array([0.0, 0.4, 3.4])
    mesh = sc._panelize(edges, p)
    nodes = gauss_rule(p)[0]
    # the eliminations' downward own-node moments, along -x, in x order
    own = next(_panel_moments(mesh, [(0.0, None, False)], NUS_DOWN, half_widths(mesh),
                              nodes))[..., ::-1, :]
    for i, nu in enumerate(NUS_DOWN):
        for q in range(mesh.n_panels):
            s = 0.5 * (edges[q + 1] - edges[q])
            ts = np.concatenate(([-1.0], nodes, rng.uniform(-1.0, 1.0, 2)))
            got = direct_moments(mesh, nu, np.full(ts.size, q), ts, False)
            want = np.array([lagrange_moments_down(nodes, nu, s, t) for t in ts])
            bound = 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= bound, (nu, q)
            assert np.max(np.abs(own[i, q] - want[1:p + 1])) <= bound, (nu, q)


def count_moments(monkeypatch):
    """The (width, nu) pairs each exp_monomial_moments call computes."""
    counted, moments = [], sc.exp_monomial_moments
    monkeypatch.setattr(sc, "exp_monomial_moments",
                        lambda mu, *a: counted.append(np.size(mu)) or moments(mu, *a))
    return counted


def test_even_n_blocks_compute_each_moment_once(pot2, monkeypatch):
    # the roots +-1 of X^2 at k = 1 are the upper and the lower branch, and
    # the downward sweep at nu = 1 reads the upward moments at -1: the core's
    # _Blocks computes the own-node and the whole-panel moments of each
    # half-width once, in one exp_monomial_moments call at the Gauss nodes
    # followed by t = 1
    solver = _CoreSolver(pot2, 1.0, 120.0)
    mesh, calls, moments = solver.mesh, [], sc.exp_monomial_moments
    monkeypatch.setattr(sc, "exp_monomial_moments", lambda mu, t, p: calls.append(
        (t, np.ravel(mu))) or moments(mu, t, p))
    sc._Blocks(solver.lam, mesh, [0.0], solver._branches, [solver._coef(mesh)])
    ((t, mu),) = calls
    assert np.all(t == np.append(gauss_rule(mesh.p)[0], 1.0))
    assert not mu.real.any() and np.array_equal(np.sort(-mu.imag), np.unique(half_widths(mesh)))


@pytest.mark.parametrize("potential, k", [("pot2", 1.0), ("pot3", 0.8), ("pot4", 1.0)])
def test_each_moment_computed_once_per_solver(potential, k, request, monkeypatch):
    # the core, both outer sides, +-k and both truncations: every (width,
    # mu = i d nu width) a solver reads is computed once, own-node and
    # whole-panel, by one call per elimination (the core's and the declared
    # truncations' outer panels); d nu = 0, which only the outer sides have,
    # once at unit width.  X^4's d nu = 1 - i and its mirror differ by the
    # rounding of the complex roots' real parts, but not their mu
    pot = request.getfixturevalue(potential)
    counted = count_moments(monkeypatch)
    solver = _CoreSolver(pot, k, 120.0, (1e4, 2e4))
    for X in (1e4, 2e4):
        for kk in (k, -k)[:2 - pot.n % 2]:
            solver.solve(X, kk).r_limits()
    outer = np.unique(np.concatenate([half_widths(b.mesh) for sides in solver._sides.values()
                                      for b in sides.values()]))

    def distinct(widths, mus, branches):
        dnus = {complex((1 if upper else -1) * (mu - zeta))
                for zeta, _, upper in branches for mu in mus}
        return len({(w, 1j * d * w) for w in widths for d in dnus - {0}}) + (0 in dnus)

    # every branch rides in the outer batch, also even n's complex roots,
    # which are no source there
    branches = solver._branches
    assert len(counted) == 2
    assert sum(counted) == distinct(np.unique(half_widths(solver.mesh)), [0.0], branches) \
        + distinct(outer, solver._mus, branches)


@pytest.mark.parametrize("potential", ["pot2", "pot3"])
def test_each_lagrange_row_formed_once_per_solver(potential, request, monkeypatch):
    # over a whole S(lambda) (core, both outer sides, +-k, X and 2X), each
    # elimination, the core's and the outer union's, forms one batch of
    # Lagrange moments, own-node and whole-panel, for every branch and both
    # sweeps at once: a row per distinct (half-width, d nu), but d nu = 0 (the
    # outer waves on their own roots) in one row at unit width; the side
    # meshes form nothing
    solvers, batches, rows = [], [], []
    init, moments, monomial = _CoreSolver.__init__, sc._panel_moments, sc.exp_monomial_moments
    monkeypatch.setattr(_CoreSolver, "__init__",
                        lambda self, *a: solvers.append(self) or init(self, *a))
    monkeypatch.setattr(sc, "_panel_moments",
                        lambda mesh, *a: batches.append(mesh) or moments(mesh, *a))
    monkeypatch.setattr(sc, "exp_monomial_moments",
                        lambda mu, *a: rows.append(np.ravel(mu)) or monomial(mu, *a))
    scattering_matrix(request.getfixturevalue(potential), 1.0)
    (solver,) = solvers
    sides = {b.mesh for blocks in solver._sides.values() for b in blocks.values()}
    assert len(sides) == 4
    (union,) = set(batches) - {solver.mesh}
    assert union not in sides and batches == [solver.mesh, union] and len(rows) == 2
    # a unit-width row, for mu = i d nu s is 0 at d nu = 0 whatever the width s
    assert np.count_nonzero(rows[1] == 0) == 1 and np.all(rows[0] != 0)


@pytest.mark.parametrize("potential", ["pot2", "pot3", "pot4"])
@pytest.mark.parametrize("k", [1.0, -1.0])
def test_residual_matches_the_general_path(potential, k, request):
    # the residual, read from the core's block equation, against the core
    # equation w - sigma(k) e^{ikx} + sum_b a_b sigma_b K_b at the core nodes
    # with K_b from a point read, which locates each point and takes its
    # partial moments; both sweeps
    pot = request.getfixturevalue(potential)
    solver = _CoreSolver(pot, k, 120.0, (1.0e4,))
    field, mesh = solver.solve(1.0e4), solver.mesh
    assert {upper for _, _, upper in solver._branches} == {True, False}
    resid = field.w - solver._symbol(mesh, k) * np.exp(1j * k * mesh.nodes)
    for g, K in zip(solver._coef(mesh), point_read(field, mesh.nodes)[0]):
        resid = resid + g * K
    w_max = np.max(np.abs(field.w))
    assert np.max(np.abs(resid)) <= 1e-12 * w_max
    assert field.diagnostics["residual"] <= 1e-12 * w_max


@pytest.mark.parametrize("which, k", [("pot2m1", 1.0), ("pot3", -1.0), ("pot4", 1.0)])
def test_residual_sees_a_perturbed_block_inverse(which, k, request, monkeypatch):
    # block inverses off by a relative 1e-8 leave the state system consistent,
    # its own defect at rounding, but show in the residual, the defect of the
    # block equation
    pot, inv = request.getfixturevalue(which), np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) * (1.0 + 1e-8))
    d = solve_lippmann_schwinger(pot, k).diagnostics
    assert d["residual_rel"] >= 1e-9
    assert d["state_residual"] <= 1e-14


@pytest.mark.parametrize("potential", ["pot2", "pot3"])
def test_a_second_solve_forms_nothing_new(potential, request):
    # a second solve on the same solver returns a field bitwise equal to the
    # first
    solver, X = _CoreSolver(request.getfixturevalue(potential), 1.0, 120.0, (1.0e4,)), 1.0e4
    first = solver.solve(X)
    second = solver.solve(X)
    assert second.r_limits() == first.r_limits()
    assert second.diagnostics == first.diagnostics
    xs = np.concatenate(([-1.5, 1.5] * np.array(X), np.linspace(-100.0, 100.0, 41)))
    assert np.array_equal(second.psi_at(xs), first.psi_at(xs))


@pytest.mark.parametrize("potential", ["pot2", "pot3"])
def test_psi_at_refuses_derivatives_past_n_minus_one(potential, request):
    # k^d e^{ikx} - sum a_b zeta_b^d K_b is D^d psi only for d < n
    # (D^n R0 w = w + lambda R0 w); d = n - 1 is still D of d = n - 2
    f = solve_lippmann_schwinger(request.getfixturevalue(potential), 1.0, X=1.0e3)
    n, x, h = f.n, np.array([0.123, 7.5]), 1e-5
    for deriv in (n, -1, 1.5):
        with pytest.raises(DomainError, match="deriv"):
            f.psi_at(x, deriv)
    fd = (f.psi_at(x + h, n - 2) - f.psi_at(x - h, n - 2)) / (2 * h)
    assert np.max(np.abs(f.psi_at(x, n - 1) - (-1j) * fd)) < 1e-7  # D = -i d/dx


@pytest.mark.parametrize("potential", ["pot2", "pot3"])
def test_later_truncation_extends_the_earlier_sides(potential, request):
    # a solver declared for (X, 2X) eliminates both truncations' outer panels
    # together, and at each truncation its field is bitwise that of a solver
    # declared for that truncation alone
    pot, X = request.getfixturevalue(potential), 1.0e4
    both = _CoreSolver(pot, 1.0, 120.0, (X, 2 * X))
    for x in (X, 2 * X):
        shared, alone = both.solve(x), _CoreSolver(pot, 1.0, 120.0, (x,)).solve(x)
        assert shared.r_limits() == alone.r_limits()
        for key in ("rcond", "residual"):
            assert shared.diagnostics[key] == alone.diagnostics[key]
        xs = np.array([-1.5, 1.5]) * X
        assert np.array_equal(shared.psi_at(xs), alone.psi_at(xs))


@pytest.mark.parametrize("lam", [0.2, 5.0])
def test_each_outer_panel_eliminated_once_per_lambda(pot2, lam, monkeypatch):
    # the 2X mesh repeats every edge of the X mesh but X, so S(lambda) hands
    # _Blocks the core's panels, then in one call every outer panel: per side
    # the X mesh's panels and the 2X mesh's beyond them, its clipped last
    # panel included
    eliminated, init = [], sc._Blocks.__init__
    monkeypatch.setattr(sc._Blocks, "__init__", lambda self, lam, mesh, *a:
                        eliminated.append(mesh.n_panels) or init(self, lam, mesh, *a))
    k, X = lam ** 0.5, 1.0e4
    scattering_matrix(pot2, lam, X=X)
    h0 = max(0.5, 0.5 / max(k, 0.25))
    m_X, m_2X = (graded_edges(CORE_RADIUS[0], x, h0, 1.35).size - 1 for x in (X, 2 * X))
    assert m_X < m_2X
    assert eliminated == [_core_mesh(CORE_RADIUS[0], k).n_panels, 2 * (m_X + (m_2X - m_X + 1))]


@pytest.mark.parametrize("potential, k", [("pot2", 1.0), ("pot2", 0.45), ("pot3", -1.0),
                                          ("pot1", 2.0)])
def test_one_edge_run_reproduces_each_side_mesh(potential, k, request, monkeypatch):
    # every truncation's sides, read off one run of edges out to the largest
    # X, are bitwise the Gauss-8 meshes graded_edges builds out to that X
    # alone (mirrored on the left), their b~ values those of their nodes; the
    # eliminated union holds each of their panels once.  Truncations: X at
    # the run's first edge (no clipped panel), inside its first panel, and
    # at or below X0 (no side at all)
    pot = PotentialSpec(1, []) if potential == "pot1" else request.getfixturevalue(potential)
    x0 = CORE_RADIUS[pot.n % 2]
    h0 = max(0.5, 0.5 / max(abs(k), 0.25))
    unions, init = [], sc._Blocks.__init__
    monkeypatch.setattr(sc._Blocks, "__init__", lambda self, lam, mesh, *a:
                        unions.append(mesh) or init(self, lam, mesh, *a))
    for truncations in [(1e4,), (1e4, 2e4), (500.0, 1e3, 2e3), (x0 + h0, 2 * (x0 + h0)),
                        (x0 + 0.5 * h0, 1e3), (x0,), (0.5 * x0, 1e3)]:
        del unions[:]
        solver = _CoreSolver(pot, k, x0, truncations)
        for X in truncations:
            sides = solver._sides[X]
            if X <= x0:
                assert sides == {}
                continue
            right = sc._panelize(graded_edges(x0, X, h0, 1.35), 8)
            left = sc._panelize(-right.edges[::-1], right.p)
            for side, want in ((-1, left), (1, right)):
                got = sides[side].mesh
                for name in ("edges", "lo", "hi", "nodes"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), \
                        (truncations, X, side, name)
                assert np.array_equal(solver._values[got], pot.values(got.nodes))
        core, *union = unions
        assert core is solver.mesh and len(union) == any(X > x0 for X in truncations)
        for u in union:
            ends = {(lo, hi) for b in solver._sides.values() for side in b.values()
                    for lo, hi in zip(side.mesh.lo, side.mesh.hi)}
            assert sorted(zip(u.lo, u.hi)) == sorted(ends)


@pytest.mark.parametrize("potential", ["pot2", "pot3"])
def test_one_outer_elimination_and_four_btilde_reads_per_s(potential, request,
                                                           monkeypatch):
    # one S(lambda) builds _Blocks twice (the core, then every outer panel of
    # X and 2X) and reads b~ four times: the short-range fit's two, the core's
    # nodes and the outer panels' nodes
    built, read = [], []
    init, values = sc._Blocks.__init__, PotentialSpec.values
    monkeypatch.setattr(sc._Blocks, "__init__",
                        lambda self, *a: built.append(1) or init(self, *a))
    monkeypatch.setattr(PotentialSpec, "values",
                        lambda self, x: read.append(1) or values(self, x))
    scattering_matrix(request.getfixturevalue(potential), 1.0)
    assert (len(built), len(read)) == (2, 4)


def test_outer_union_takes_the_side_meshes_order(pot2m1, monkeypatch):
    # the union of the outer panels is eliminated at the sides' Gauss order,
    # OUTER_ORDER: sides of p = 10 give every side density p = 10 and move
    # S_X by the discretization error only
    default = scattering_matrix(pot2m1, 1.0, X=2000.0)
    fields = []

    class Recording(sc.EigenfunctionField):
        def __init__(self, *args):
            super().__init__(*args)
            fields.append(self)

    monkeypatch.setattr(sc, "OUTER_ORDER", 10)
    monkeypatch.setattr(sc, "EigenfunctionField", Recording)
    e = scattering_matrix(pot2m1, 1.0, X=2000.0)
    assert len(fields) == 4  # +-k, each at X and 2X
    for f in fields:
        assert {d.mesh.p for side, d in f._dens.items() if side} == {10}
        assert f.diagnostics["state_residual"] <= 1e-14
    assert np.max(np.abs(e.S_X - default.S_X)) <= 1e-6


def test_one_factorization_per_lambda(pot2, monkeypatch):
    # even n: +k and -k share the solver, so S costs one LU per lambda and
    # truncation (X and 2X); the returned fields hold no panel-block
    # elimination
    factored = []
    lu = sc.lu_factor
    monkeypatch.setattr(sc, "lu_factor",
                        lambda ab, *a: factored.append(ab.shape) or lu(ab, *a))
    for lam in (0.5, 2.0):
        e = scattering_matrix(pot2, lam, X=2000.0)
        assert [f.k for f in e.fields] == [lam ** 0.5, -lam ** 0.5]
        assert not any(isinstance(v, sc._Blocks) for f in e.fields
                       for o in (f, *f._dens.values()) for v in vars(o).values())
    assert len(factored) == 4


@pytest.mark.parametrize("which,k", [("pot2", 1.0), ("pot3", 1.0), ("pot3", -1.0)])
def test_banded_state_system_matches_the_dense_one(which, k, request, rng,
                                                   monkeypatch):
    # the whole-line state system (outer sides on 12 < |x| < 60) rebuilt as a
    # dense matrix from the stacked panel couplings: the banded LU solves it
    # as np.linalg.solve does, for random right-hand sides in every region,
    # and its rcond estimate is near the exact 1 / (|M|_1 |M^-1|_1) (the state
    # system, not a panel block, is the worse conditioned one here)
    line = _CoreSolver(request.getfixturevalue(which), k, 12.0)._line(60.0)
    assert list(line.regions) == [-1, 0, 1]
    D, up = line.D, line.regions[0].up
    m, nb = D.shape[:2]
    P = np.arange(m - 1)
    M = np.eye(m * nb, dtype=complex).reshape(m, nb, m, nb)
    M[P + 1, :up, P, :] = D[:-1, :up]
    M[P, up:, P + 1, :] = D[1:, up:]
    M = M.reshape(m * nb, -1)
    exact = 1.0 / (np.linalg.norm(M, 1) * np.linalg.norm(np.linalg.inv(M), 1))
    assert exact / 3.0 <= line.rcond <= 3.0 * exact
    rhs = [rng.normal(size=(b.mus.size, b.mesh.nodes.size))
           + 1j * rng.normal(size=(b.mus.size, b.mesh.nodes.size))
           for b in line.regions.values()]
    banded = np.concatenate([d.fs.ravel() for d in line.solve(rhs)[0].values()])
    monkeypatch.setattr(sc, "lu_solve", lambda _, r: np.linalg.solve(M, r))
    dense = np.concatenate([d.fs.ravel() for d in line.solve(rhs)[0].values()])
    assert np.max(np.abs(banded - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_shared_solver_field_matches_a_fresh_solve(pot2, smatrix2):
    # the -k field of S, solved on the +k solver's factorization, is bitwise
    # the field of a solver built for -k alone
    fresh = solve_lippmann_schwinger(pot2, -1.0, X=1.0e4)
    assert smatrix2.fields[1].r_limits() == fresh.r_limits()
    assert smatrix2.fields[1].diagnostics == fresh.diagnostics


def test_solve_rejects_a_foreign_k(pot2, pot3):
    with pytest.raises(ConfigurationError):
        _CoreSolver(pot2, 1.0, 30.0).solve(100.0, 2.0)
    with pytest.raises(ConfigurationError):
        _CoreSolver(pot3, 1.0, 30.0).solve(100.0, -1.0)


def test_derivative_fields_bounded_n3(field3):
    # sup over the grid of sum_p |D^p psi| stays finite for p <= n-1
    xs = np.linspace(-field3.X0, field3.X0, 201)
    total = sum(np.abs(field3.psi_at(xs, deriv=p)) for p in range(3))
    assert np.isfinite(np.max(total))
    assert np.max(total) < 20.0


def test_derivative_field_consistency(field2):
    # D psi from the kernel route matches a finite difference of psi
    x0, h = 7.3, 1e-5
    d_kernel = field2.psi_at(np.array([x0]), deriv=1)[0]
    fd = (field2.psi_at(np.array([x0 + h]))[0]
          - field2.psi_at(np.array([x0 - h]))[0]) / (2 * h)
    assert abs(d_kernel - (-1j) * fd) < 1e-7  # D = -i d/dx


def test_r_limit_conventions(field2):
    lims = field2.r_limits()
    assert lims[-1, +1] == 1.0  # exact by construction for k > 0
    assert abs(lims[+1, -1]) == 0.0


@pytest.mark.parametrize("n, lam, j", [(2, 1.0, 1), (3, -1.0, 0)])
def test_limits_follow_the_travel_direction(request, n, lam, j):
    # k = -1 in both: e^{ikx} has group velocity n k^{n-1}, so it leaves
    # toward -inf for n = 2 and toward +inf for n = 3
    e = request.getfixturevalue("smatrix2") if n == 2 else \
        scattering_matrix(request.getfixturevalue("pot3"), lam, X=1.0e4)
    f = e.fields[j]
    d = f.direction
    assert f.k == -1.0 and d == (-1 if n == 2 else +1)
    lims = f.r_limits()
    assert lims[-d, +1] == 1.0       # the incident side
    column = [lims[+1, d]]
    if n % 2 == 0:
        assert lims[d, -1] == 0.0    # no e^{-ikx} where the incident wave goes
        column.append(lims[-1, -d])
    assert np.array_equal(e.S_X[:, j], column)


def test_even_asymptotic_matching(field2):
    # Theorem-level: |psi - s11 e^{ikx}| small at x = X0 (tail-bound scale)
    lims = field2.r_limits()
    x = np.array([field2.X0 * 0.9])
    resid = abs(field2.psi_at(x)[0] - lims[+1, +1] * np.exp(1j * field2.k * x[0]))
    assert resid < 1e-2


def test_scattering_entry_invariants(smatrix2):
    e = smatrix2
    assert e.unitarity_defect < 5e-4
    assert abs(e.S[0, 1] - e.S[1, 0]) < 5e-4      # reciprocity (even weight)
    assert e.rcond > 1e-10
    tau = np.linalg.norm(e.S_X - e.S_2X, 2)
    assert tau > 1e-6  # the 1/X truncation law is visible in the S values
    assert e.extrapolated_defect < 1e-4


def test_truncation_inside_the_core_rejected(pot2):
    # X = 100 < X0 = 120 leaves no outer side, and the short-range check
    # would see no [X0, X] to fit on
    with pytest.raises(DomainError):
        scattering_matrix(pot2, 1.0, X=100.0)
    for bad in (0.0, -5.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            solve_lippmann_schwinger(pot2, 1.0, X=bad)
    with pytest.raises(DomainError):
        scattering_matrix(zero_potential(support=6.0), 1.0, X=5.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            scattering_matrix(pot2, bad)
        with pytest.raises(DomainError):
            solve_lippmann_schwinger(pot2, bad)


def test_even_n_negative_lambda_rejected(pot2):
    with pytest.raises(DomainError):
        scattering_matrix(pot2, -1.0, X=100.0)
    with pytest.raises(DomainError):
        scattering_matrix(pot2, 0.0, X=100.0)


def test_gauge_trivial_n1():
    pot1 = PotentialSpec(1, [], support=None)
    for lam in (0.5, -1.0, 2.0):
        e = scattering_matrix(pot1, lam, X=1e4)
        assert abs(e.S[0, 0] - 1.0) < 1e-8


def test_ode_requires_n2():
    with pytest.raises(ConfigurationError):
        ode_cross_check(PotentialSpec(1, [], support=None), 1.0)


# -- the b~ table behind operator potentials ----------------------------------

def test_operator_table_is_extended_before_the_solve(op2):
    # a read past the table grows it to twice its reach on the same grid, so
    # the grown table's panels repeat the fresh one's bit for bit
    pot = PotentialSpec.from_operator(op2)
    assert pot.values(np.array([3e4])).shape == (1, 1)
    assert pot._table.edges[-1] >= 6e4
    e = scattering_matrix(pot, 1.0, X=400.0)
    ref = scattering_matrix(PotentialSpec.from_operator(op2), 1.0, X=400.0)
    assert np.array_equal(e.S, ref.S)


@pytest.mark.parametrize("opname", ["op2", "op3"])
def test_a_wider_solve_leaves_the_earlier_ones_unchanged(opname, request):
    # S and psi on the core at X = 1e4 are the same bits before and after an
    # X = 2e4 solve grows the spec's table, and S at 2e4 from the grown spec
    # is the same bits as from a fresh one
    op = request.getfixturevalue(opname)
    pot = PotentialSpec.from_operator(op)
    x = np.linspace(-30.0, 30.0, 241)

    def read(X):
        e = scattering_matrix(pot, 1.0, X=X)
        return e.S, e.fields[0].psi_at(x)
    before = read(1e4)
    wide = read(2e4)[0]
    after = read(1e4)
    assert pot._table.edges[-1] >= 4e4
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
    fresh = scattering_matrix(PotentialSpec.from_operator(op), 1.0, X=2e4).S
    assert wide.tobytes() == fresh.tobytes()


def test_default_solve_reads_the_table_it_was_built_with(op2, monkeypatch):
    # X = 1e4 reads b~ out to 2X = 2e4, inside the table's 2.6e4: no rebuild
    from carleman.liouville import OperatorCoefficients

    calls = []
    build = OperatorCoefficients.btilde_splines
    monkeypatch.setattr(OperatorCoefficients, "btilde_splines",
                        lambda self, x_max: calls.append(x_max) or build(self, x_max))
    scattering_matrix(PotentialSpec.from_operator(op2), 1.0, X=1e4)
    assert calls == [2.6e4]


@pytest.mark.parametrize("opname,lam", [("op2", 0.2), ("op2", 1.0), ("op2", 5.0),
                                        ("op3", -1.0), ("op3", 1.0), ("op3", 5.0)])
def test_smatrix_on_the_table_matches_exact_coefficients(opname, lam, request):
    op = request.getfixturevalue(opname)
    exact = PotentialSpec(op.n, [lambda x, m=m: op.gauged_values(x)[m]
                                 for m in range(op.n - 1)])
    e = scattering_matrix(PotentialSpec.from_operator(op), lam, X=1e4)
    ref = scattering_matrix(exact, lam, X=1e4)
    for a, b in ((e.S_X, ref.S_X), (e.S_2X, ref.S_2X)):
        assert np.max(np.abs(a - b)) <= 1e-12, (lam, np.max(np.abs(a - b)))


@pytest.mark.parametrize("V0,a,k", [(0.6, 1.3, 0.9), (-0.5, 0.8, 0.4), (2.0, 3.0, 1.7)])
def test_magnus_square_well_to_rounding(V0, a, k):
    # b0 is constant on each cell, where the Magnus step is the exact exponential
    o = ode_cross_check(well_potential(V0, a), k, X=a)
    ref = square_well_reflection(V0, a, k)
    assert max(abs(o[s] - ref[s]) for s in ref) <= 1e-12


# -- one kernel integral on the whole line -------------------------------------

def monomial_potential(n, cosh_profile):
    """The spec of P = X^n on the cosh weight."""
    from carleman.coeffmap import RealPolynomial, p_to_q
    from carleman.liouville import OperatorCoefficients
    from carleman.profile import ChangeOfVariables

    op = OperatorCoefficients(p_to_q(RealPolynomial([0.0] * n + [1.0])),
                              ChangeOfVariables(cosh_profile, n))
    return PotentialSpec.from_operator(op)


@pytest.fixture(scope="module")
def pot4(cosh_profile):
    return monomial_potential(4, cosh_profile)


@pytest.fixture(scope="module")
def pot5(cosh_profile):
    return monomial_potential(5, cosh_profile)


@pytest.mark.parametrize("which", ["pot2", "pot3", "pot4"])
@pytest.mark.parametrize("k", [1.0, -1.0])
def test_psi_is_continuous_at_the_core_edges(which, k, request):
    # psi and psi' cross every core panel edge, +-X0 (where the complex-root
    # terms join the rest of the kernel integral) and the first 12 outer
    # edges on each side; points a hair off an edge take partial moments
    # out to t = +-1
    f = solve_lippmann_schwinger(request.getfixturevalue(which), k, X=1.0e4)
    lo, hi = np.searchsorted(f.edges, [-f.X0, f.X0])
    edges = f.edges[lo - 12:hi + 13]
    d = 1e-12
    psi, dpsi = (np.stack([f.psi_at(edges + h, deriv=deriv) for h in (-d, d)])
                 for deriv in (0, 1))
    slope = np.abs(f.psi_at(edges, deriv=1))
    assert np.all(np.abs(psi[0] - psi[1]) <= 2 * d * slope + 1e-13)
    assert np.all(np.abs(dpsi[0] - dpsi[1]) <= 1e-10)


@pytest.mark.parametrize("which", ["pot2", "pot3", "pot4"])
def test_psi_beyond_X_is_its_limit_waves(which, request):
    # past +-X only the sweeps toward x carry anything; the complex roots have
    # died there, so psi is the limit waves, and nothing blows up at 100 X
    for k in (1.0, -1.0):
        f = solve_lippmann_schwinger(request.getfixturevalue(which), k, X=1.0e3)
        lims = f.r_limits()
        for x in np.array([1.5, -1.5, 100.0, -100.0]) * f.X:
            ref = sum(np.exp(1j * w * k * x) * lims[np.sign(x), w] for w in f.waves)
            assert abs(f.psi_at(x)[0] - ref) <= 1e-12, (k, x)


@pytest.mark.parametrize("which", ["pot2", "pot2m1"])
@pytest.mark.parametrize("lam", [0.2, 5.0])
def test_envelopes_past_X_are_their_limits(which, lam, request):
    # past +-X an envelope reads every panel's own integral, summed as
    # r_limits sums them and carried out (the states recursed past the ends
    # put it 3.3e-13 to 8.5e-13 off), and the S read at +-2X is unitary
    e = scattering_matrix(request.getfixturevalue(which), lam, X=1.0e4)
    S = np.zeros((2, 2), dtype=complex)
    for j, f in enumerate(e.fields):
        lims, r = f.r_limits(), {s: point_read(f, [2 * s * f.X])[1] for s in (+1, -1)}
        for side, w in lims:
            assert abs(r[side][w][0] - lims[side, w]) <= 1e-14
        S[:, j] = [r[s][s * f.direction][0] for s in (+1, -1)]
    assert sc._unitarity_defect(S) <= 1e-14


def test_sample_refuses_rows_that_leave_their_panel(field2m1):
    # a row [c - |h|, c + |h|] must lie inside one panel of |x| <= X or wholly
    # past +-X, as one panel's state and moments read it: rows across core
    # panels (0 +- 5), across X0 (119 +- 3) or X (9990 +- 20), or over the
    # whole line (0 +- (X + 5)) would read up to 2.7e43 off psi_at, and are
    # refused, mirrored too; a whole panel, the last one up to X and a row
    # just past X read psi_at's values
    f, t = field2m1, _ChebTable.grid(1, 12)
    for c, h in ((0.0, 5.0), (119.0, 3.0), (9990.0, 20.0), (0.0, f.X + 5.0)):
        for s in (1.0, -1.0):
            with pytest.raises(DomainError, match="neither inside one panel"):
                f.sample(np.array([[s * c]]), np.array([[h]]), t)
    e = f.edges
    for lo, hi in ((e[e.size // 2], e[e.size // 2 + 1]), (e[-2], e[-1]), (e[0], e[1]),
                   (f.X, f.X + 8.0), (-f.X - 8.0, -f.X)):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        psi = f.sample(np.array([[c]]), np.array([[h]]), t)[0].ravel()
        assert np.max(np.abs(psi - f.psi_at(c + h * t))) <= 1e-13, (lo, hi)


@pytest.mark.parametrize("fieldname", ["field2m1", "field3"])
def test_readers_refuse_points_that_are_not_finite(fieldname, request):
    # NaN and +-inf are refused by name, not read as NaN (nor warned about)
    f = request.getfixturevalue(fieldname)
    t = _ChebTable.grid(1, 12)
    for read in (lambda: f.psi_at([np.nan, np.inf, -np.inf]), lambda: f.psi_at(np.inf),
                 lambda: f.sample(np.array([[np.inf]]), np.array([[1.0]]), t),
                 lambda: f.sample(np.array([[0.0]]), np.array([[np.nan]]), t),
                 lambda: f.w_at(np.nan), lambda: f.w_at([1.0, -np.inf])):
        with pytest.raises(DomainError, match="finite points"):
            read()


@pytest.mark.parametrize("which", ["pot2m1", "pot3", "pot5"])
def test_point_values_do_not_depend_on_the_other_points_read(which, request):
    # psi (every derivative) and each r_w at a point are the same bits read
    # alone, among 400 points (core, outer sides and past +-X) or with those
    # 400 split in two: a point's moment keys are formed, multiplied into
    # the Lagrange basis and gathered the same in a batch of any size
    f, rng = solve_lippmann_schwinger(request.getfixturevalue(which), 1.0, X=1.0e4), \
        np.random.default_rng(0)
    x = rng.permutation(np.concatenate([rng.uniform(-1.5, 1.5, 200) * f.X0,
                                        rng.uniform(-1.2, 1.2, 200) * f.X]))

    def read(x):
        return np.array([f.psi_at(x, d) for d in range(f.n)] + list(point_read(f, x)[1].values()))
    whole = read(x)
    halves = np.concatenate([read(x[:200]), read(x[200:])], axis=1)
    alone = np.concatenate([read(x[i:i + 1]) for i in range(x.size)], axis=1)
    assert halves.tobytes() == whole.tobytes() and alone.tobytes() == whole.tobytes()


@pytest.fixture(scope="module")
def field4(pot4):
    return solve_lippmann_schwinger(pot4, 1.0, X=1.0e4)


@pytest.mark.parametrize("which", ["field2", "field3", "field4"])
def test_outer_density_solves_the_outer_equation(which, request):
    # each outer side holds, at its nodes, V psi = sum_m b~_m D^m psi for odd
    # n, complex-root terms included; for even n, V applied to
    # sum_w e^{iwky} r_w(y) with the field's own envelopes (n = 4 has two
    # waves per side and complex-root end states)
    f = request.getfixturevalue(which)
    pot = request.getfixturevalue(f"pot{f.n}")
    for side in (+1, -1):
        y = f._dens[side].mesh.nodes
        b = pot.values(y)
        if f.n % 2:
            ref, bound = sum(b[m] * f.psi_at(y, m) for m in range(f.n - 1)), 1e-14
        else:
            ref, bound = sum(sum(b[m] * (w * f.k) ** m for m in range(f.n - 1))
                             * np.exp(1j * w * f.k * y) * r
                             for w, r in point_read(f, y)[1].items()), 1e-12
        assert np.max(np.abs(f._dens[side].values(y) - ref)) \
            <= bound * np.max(np.abs(f.w))
    if f.n == 4:
        assert f.diagnostics["residual"] <= 1e-12 * np.max(np.abs(f.w))


@pytest.mark.parametrize("which", ["field2", "field3", "field4"])
def test_relative_residual(which, request):
    # the residual relative to max|w| stays at rounding for n = 2, 3 and 4,
    # where n = 4's absolute residual reads a few 1e-12
    f = request.getfixturevalue(which)
    d = f.diagnostics
    assert d["residual_rel"] == d["residual"] / np.max(np.abs(f.w))
    assert d["residual_rel"] <= 1e-12


@pytest.mark.parametrize("which, lam, bound", [
    ("pot3", 5.0, 1e-12), ("pot3", 1.0, 1e-12), ("pot3", -1.0, 1e-12),
    ("pot3", 1e-2, 1e-12), ("pot3", 1e-4, 1e-12), ("pot3", 1e-6, 1e-11),
    ("pot5", 1.0, 1e-11), ("pot5", -0.2, 1e-11), ("pot5", 1e-3, 1e-11)])
def test_odd_n_s_is_independent_of_the_core_radius(which, lam, bound, request):
    # every root is a source on odd n's outer sides, so where the core ends
    # does not matter: S_X with X0 = 30 and with X0 = 1920, at X = 1e5
    pot = request.getfixturevalue(which)
    a, b = (scattering_matrix(pot, lam, X=1e5, x_core=x0).S_X for x0 in (30.0, 1920.0))
    assert np.max(np.abs(a - b)) <= bound


def test_default_core_radius_depends_on_parity(pot2, pot3, pot4, pot5):
    # odd n's outer model is exact, so its core only holds the graded mesh;
    # even n's complex roots are no sources beyond X0, so it keeps 120
    for pot, x0 in ((pot3, 30.0), (pot5, 30.0), (pot2, 120.0), (pot4, 120.0),
                    (zero_potential(support=6.0), 8.0)):
        assert sc._prepare(pot, 1.0, 1e4, None) == x0


@pytest.mark.parametrize("which, lam, bound", [
    *(("pot3", lam, 1e-12) for lam in (*np.linspace(-5.0, 5.0, 4), 1e-2)),
    ("pot5", 1.0, 1e-11), ("pot5", 1e-2, 1e-11)])
def test_odd_n_default_core_matches_x0_120(which, lam, bound, request):
    # S_X on the default core (X0 = 30) against X0 = 120, at the README's
    # lambda and at lambda = 1e-2
    pot = request.getfixturevalue(which)
    a, b = (scattering_matrix(pot, lam, x_core=x0).S_X for x0 in (None, 120.0))
    assert np.max(np.abs(a - b)) <= bound


@pytest.mark.parametrize("which, lam", [("pot3", 1e-4), ("pot5", -0.2), ("pot5", 1e-3)])
def test_odd_n_default_core_near_the_x0_1920_reference(which, lam, request):
    # here X0 = 120 itself reads 3.5e-11, 2.9e-12 and 5.5e-12 off X0 = 1920,
    # and the default 4.4e-11, 9.4e-12 and 5.6e-12
    pot = request.getfixturevalue(which)
    a, b = (scattering_matrix(pot, lam, x_core=x0).S_X for x0 in (None, 1920.0))
    assert np.max(np.abs(a - b)) <= 1e-10


# -- the core mesh resolves b~'s complex singularities --------------------------

def refined_core_mesh(x0, k, breaks=()):
    """The reference core: Gauss-14 panels from 0.02 at x = 0, each 1.3 times
    the last, up to a quarter of the core mesh's largest width."""
    h_max = min(2.0 / max(abs(k), 0.25), 3.0) / 4.0
    edges, h = [0.0], 0.02
    while edges[-1] < x0:
        edges.append(min(edges[-1] + h, x0))
        h = min(1.3 * h, h_max)
    right = np.array(edges)
    return sc._panelize(np.concatenate((-right[:0:-1], right)), 14)


def on_both_core_meshes(monkeypatch, solve):
    """solve() on the core mesh, then on the refined reference core."""
    default = solve()
    monkeypatch.setattr(sc, "_core_mesh", refined_core_mesh)
    return default, solve()


@pytest.mark.parametrize("which, lam, bound", [
    ("pot2m1", 0.2, 1e-12), ("pot2m1", 1.0, 1e-12), ("pot2m1", 5.0, 1e-12),
    ("pot3", 1.0, 1e-12), ("pot3", -1.0, 1e-12), ("pot3", 5.0, 1e-12), ("pot3", -5.0, 1e-12),
    ("pot4", 1.0, 5e-12), ("pot4", 5.0, 5e-12), ("pot5", 1.0, 5e-12)])
def test_s_x_is_independent_of_the_core_mesh(which, lam, bound, request, monkeypatch):
    # b~ is singular at x = +-i d_n, d_n ~ 0.2-0.35, and the core's panels
    # shrink toward x = 0, so S_X holds against panels a quarter as wide at
    # Gauss order 14
    pot = request.getfixturevalue(which)
    a, b = on_both_core_meshes(monkeypatch, lambda: scattering_matrix(pot, lam).S_X)
    assert np.max(np.abs(a - b)) <= bound


@pytest.mark.parametrize("which, k", [("pot2m1", 1.0), ("pot2m1", -1.0), ("pot2m1", 2.0),
                                      ("pot3", 1.0), ("pot3", -1.0), ("pot4", 1.0)])
def test_psi_near_the_origin_is_independent_of_the_core_mesh(which, k, request, monkeypatch):
    pot, x = request.getfixturevalue(which), np.linspace(-6.0, 6.0, 1201)
    a, b = on_both_core_meshes(monkeypatch, lambda: solve_lippmann_schwinger(pot, k).psi_at(x))
    assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("which, k", [("pot2m1", 1.0), ("pot2m1", 5.0 ** 0.5),
                                      ("pot3", 1.0), ("pot3", -1.0), ("pot4", 1.0)])
def test_core_equation_holds_between_the_nodes(which, k, request):
    # w = V psi = sum_m b~_m D^m psi at each core panel's midpoint, where no
    # node sits: the node residual cannot see an unresolved b~ there
    pot = request.getfixturevalue(which)
    f = solve_lippmann_schwinger(pot, k)
    mesh = f._dens[0].mesh
    y = 0.5 * (mesh.lo + mesh.hi)
    b = pot.values(y)
    Vpsi = sum(b[m] * f.psi_at(y, m) for m in range(f.n - 1))
    assert np.max(np.abs(f.w_at(y) - Vpsi)) <= 1e-8 * np.max(np.abs(f.w))
