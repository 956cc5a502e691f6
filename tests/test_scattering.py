import numpy as np
import pytest

from carleman.errors import ConfigurationError, DomainError, NearExceptionalPointError
from carleman.oscquad import gauss_rule
import carleman.scattering as sc
from carleman.scattering import (PotentialSpec, _core_mesh, _CoreSolver, _Density,
                                 _MomentTable, eigenvalue_multiplicity_bound,
                                 free_resolvent_kernel, ode_cross_check,
                                 scattering_matrix, solve_lippmann_schwinger,
                                 square_well_reflection, zeta_roots)


def zero_potential(support=6.0):
    return PotentialSpec(2, [lambda x: np.zeros_like(np.asarray(x, dtype=float))],
                         support=support)


def well_potential(V0=0.6, a=1.3):
    return PotentialSpec(
        2, [lambda x: np.where(np.abs(np.asarray(x)) <= a, -V0, 0.0)],
        support=a, breakpoints=(a,))


# -- roots -------------------------------------------------------------------

def test_square_roots_of_minus_one():
    rs = zeta_roots(-1.0, 2)
    vals = sorted(rs.roots, key=lambda z: z.imag)
    assert abs(vals[0] + 1j) < 1e-14 and abs(vals[1] - 1j) < 1e-14
    assert len(rs.upper) == 1 and len(rs.lower) == 1


def test_root_residuals_random(rng):
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 0.1:
            continue
        n = int(rng.integers(1, 7))
        rs = zeta_roots(z, n)
        assert np.max(np.abs(rs.roots ** n - z)) < 1e-12 * abs(z) * 10


def test_real_root_side_resolution():
    rs = zeta_roots(1.0, 2, side="+")
    sides = {round(rs.roots[j].real): rs.real_side[int(j)] for j in rs.real}
    assert sides[1] == "upper" and sides[-1] == "lower"
    rs = zeta_roots(1.0, 2, side="-")
    sides = {round(rs.roots[j].real): rs.real_side[int(j)] for j in rs.real}
    assert sides[1] == "lower" and sides[-1] == "upper"


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
    osc = np.exp(1j * field3.k * xs) * field3.r_plus(xs)
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
    assert np.array_equal(fX.r_plus(xs), fresh.r_plus(xs))
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
    assert f._outer[+1] is not None and f.diagnostics["rcond"] < 1.0


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


def test_prefix_table_matches_panel_sums(rng):
    # the anchored running sum against a direct sum over panels of the
    # edge-anchored totals, for a complex root in both sweep directions
    mesh = _core_mesh(12.0, 1.0)
    dens = _Density(mesh, [0.0], rng.normal(size=mesh.nodes.size)
                    + 1j * rng.normal(size=mesh.nodes.size))
    w = dens.fs[0]
    xs = rng.uniform(-12.0, 12.0, 17)
    zeta = 0.5 + 0.866j
    for upper, nu in ((True, -zeta), (False, -np.conj(zeta))):
        got = dens.anchored(nu, xs, upper)
        for x, g in zip(xs, got):
            q0, t = mesh.locate(np.array([x]))
            q0, t = int(q0[0]), float(t[0])
            side = range(q0) if upper else range(q0 + 1, mesh.n_panels)
            t_end = 1.0 if upper else -1.0
            ref = sum(np.exp(1j * nu * (mesh.edges[q + (1 if upper else 0)] - x))
                      * (mesh.moments(nu, np.array(q), -1.0, 1.0, t_end) @ w[q])
                      for q in side)
            lo, hi = (-1.0, t) if upper else (t, 1.0)
            ref += mesh.moments(nu, np.array(q0), lo, hi, t) @ w[q0]
            assert abs(g - ref) <= 1e-13 * np.max(np.abs(w))


def test_outer_prefix_tables_match_panel_sums(rng):
    # the prefix table of a three-component outer density against direct
    # sums of edge-anchored panel totals, for real and complex nu in both
    # sweep directions; the columns past the ends are zero
    mesh = sc._outer_mesh(+1, 12.0, 300.0, 1.0)
    mus = np.array([1.0, -1.0, 0.4])
    dens = _Density(mesh, mus, rng.normal(size=(3, mesh.nodes.size))
                    + 1j * rng.normal(size=(3, mesh.nodes.size)))
    zeta = 0.5 + 0.866j
    for upper, nu in ((True, 0.7), (False, 0.7), (True, -zeta),
                      (False, -np.conj(zeta))):
        got = dens.prefix(nu, upper)
        assert not np.any(got[:, [0, -1]])
        q = np.arange(mesh.n_panels)
        end = mesh.edges[q + 1] if upper else mesh.edges[q]  # far edge of the sweep
        for c, mu in enumerate(mus):
            nu_c, f = mu + nu, dens.fs[c]
            totals = np.einsum("qj,qj->q", mesh.moments(
                nu_c, q, -1.0, 1.0, 1.0 if upper else -1.0), f)
            for q0 in q:
                side = q <= q0 if upper else q >= q0
                ref = np.sum(np.exp(1j * nu_c * (end[side] - end[q0])) * totals[side])
                assert abs(got[c, q0 + 1] - ref) <= 1e-13 * np.max(np.abs(f))


def test_moment_table_matches_direct_moments(monkeypatch):
    # the memoised full-panel and node-anchored moments are the direct
    # _Mesh.moments values at the reference Gauss nodes, for real and complex
    # nu in both directions (one nu in both), and a second lookup computes
    # nothing
    mesh = _core_mesh(12.0, 1.0)
    table = _MomentTable()
    t = np.tile(gauss_rule(mesh.p)[0], mesh.n_panels)
    zeta = 0.5 + 0.866j
    cases = ((True, [-1.0, -zeta]), (False, [-1.0, 1.0, -np.conj(zeta)]))
    got = [(table.get(mesh, nus, upper), table.get(mesh, nus, upper, own=True))
           for upper, nus in cases]
    for (upper, nus), (full, own) in zip(cases, got):
        lo, hi = (-1.0, t) if upper else (t, 1.0)
        for nu, f, o in zip(nus, full, own):
            assert np.array_equal(f, mesh.moments(nu, np.arange(mesh.n_panels),
                                                  -1.0, 1.0, 1.0 if upper else -1.0))
            assert np.array_equal(o, mesh.moments(nu, mesh.panel_of, lo, hi, t))
    monkeypatch.setattr(sc, "exp_monomial_moments",
                        lambda *a: pytest.fail("moments recomputed"))
    for (upper, nus), (full, own) in zip(cases, got):
        assert np.array_equal(table.get(mesh, nus[::-1], upper), full[::-1])
        assert np.array_equal(table.get(mesh, nus, upper, own=True), own)


def count_moments(monkeypatch):
    """The (width, nu) pairs each exp_monomial_moments call computes."""
    counted, moments = [], sc.exp_monomial_moments
    monkeypatch.setattr(sc, "exp_monomial_moments",
                        lambda mu, *a: counted.append(np.size(mu)) or moments(mu, *a))
    return counted


def test_moment_table_computes_only_new_widths(monkeypatch):
    # the left outer side mirrors the right, and the 2X mesh repeats the X
    # mesh but for its last panels: each computes only the widths not yet in
    # the table, and the shared rows are the mesh's own direct moments.  The
    # core's half-width 0.25 at k = 4 is the outer sides' first, at another
    # order p, so it is not shared
    counted, table, nus = count_moments(monkeypatch), _MomentTable(), [0.0, 2.0, -2.0]

    def lookup(mesh):
        counted.clear()
        got = [table.get(mesh, nus, upper, own) for upper in (True, False)
               for own in (False, True)]
        return sum(counted), got

    right, left = (sc._outer_mesh(side, 120.0, 1e4, 1.0) for side in (+1, -1))
    wide = sc._outer_mesh(+1, 120.0, 2e4, 1.0)
    fresh = np.setdiff1d(wide.widths, right.widths).size
    assert 0 < fresh < right.widths.size
    core = _core_mesh(120.0, 4.0)
    assert np.isin(right.widths, core.widths).any()
    assert lookup(core)[0] == 4 * len(nus) * core.widths.size
    assert lookup(right)[0] == 4 * len(nus) * right.widths.size
    computed, got = lookup(left)
    assert computed == 0
    q = np.arange(left.n_panels)
    for upper, full in zip((True, False), got[::2]):
        for nu, f in zip(nus, full):
            assert np.array_equal(f, left.moments(nu, q, -1.0, 1.0,
                                                  1.0 if upper else -1.0))
    assert lookup(wide)[0] == 4 * len(nus) * fresh


@pytest.mark.parametrize("potential, k", [("pot2", 1.0), ("pot3", 0.8)])
def test_each_moment_computed_once_per_solver(potential, k, request, monkeypatch):
    # the core, both outer sides, +-k and both truncations: every (width, nu,
    # sweep, own) a solver reads is computed by exp_monomial_moments once
    pot = request.getfixturevalue(potential)
    counted = count_moments(monkeypatch)
    solver = _CoreSolver(pot, k, 120.0)
    for X in (1e4, 2e4):
        for kk in (k, -k)[:2 - pot.n % 2]:
            solver.solve(X, kk).r_limits()
    assert sum(counted) == len(solver._table._memo)


def test_one_factorization_per_lambda(pot2, monkeypatch):
    # even n: +k and -k share the solver, so S costs one LU per lambda and
    # truncation (X and 2X); the returned fields hold no reference to the
    # solver's moment table
    factored = []
    lu = sc.lu_factor
    monkeypatch.setattr(sc, "lu_factor",
                        lambda ab, *a: factored.append(ab.shape) or lu(ab, *a))
    for lam in (0.5, 2.0):
        e = scattering_matrix(pot2, lam, X=2000.0)
        assert [f.k for f in e.fields] == [lam ** 0.5, -lam ** 0.5]
        assert all(d.table is None for f in e.fields
                   for d in (f._core, *f._outer.values()) if d is not None)
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
    banded = np.concatenate([f.ravel() for f in line.solve(rhs)])
    monkeypatch.setattr(sc, "lu_solve", lambda _, r: np.linalg.solve(M, r))
    dense = np.concatenate([f.ravel() for f in line.solve(rhs)])
    assert np.max(np.abs(banded - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_shared_solver_field_matches_a_fresh_solve(pot2, smatrix2):
    # the -k field of S, solved on the +k solver's factorization and moment
    # table, is bitwise the field of a solver built for -k alone
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
    pot = PotentialSpec.from_operator(op2, x_max=300.0)
    with pytest.raises(DomainError):
        pot.values(np.array([600.0]))
    e = scattering_matrix(pot, 1.0, X=400.0)  # reads b~ out to 2X = 800
    ref = scattering_matrix(PotentialSpec.from_operator(op2, x_max=800.0), 1.0, X=400.0)
    assert np.array_equal(e.S, ref.S)
    assert pot.values(np.array([800.0])).shape == (1, 1)


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

@pytest.fixture(scope="module")
def pot4(cosh_profile):
    from carleman.coeffmap import RealPolynomial, p_to_q
    from carleman.liouville import OperatorCoefficients
    from carleman.profile import ChangeOfVariables

    op = OperatorCoefficients(p_to_q(RealPolynomial([0.0, 0.0, 0.0, 0.0, 1.0])),
                              ChangeOfVariables(cosh_profile, 4))
    return PotentialSpec.from_operator(op)


@pytest.mark.parametrize("which", ["pot2", "pot3", "pot4"])
@pytest.mark.parametrize("k", [1.0, -1.0])
def test_psi_is_continuous_at_the_core_edges(which, k, request):
    # psi and psi' cross every core panel edge, +-X0 (where the complex-root
    # terms join the rest of the kernel integral) and the first 12 outer
    # edges on each side; points a hair off an edge take partial moments
    # out to t = +-1
    f = solve_lippmann_schwinger(request.getfixturevalue(which), k, X=1.0e4)
    outer = [f._outer[side].mesh.edges[::side][1:13] for side in (+1, -1)]
    edges = np.concatenate([f.core_edges, *outer])
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


@pytest.fixture(scope="module")
def field4(pot4):
    return solve_lippmann_schwinger(pot4, 1.0, X=1.0e4)


@pytest.mark.parametrize("which", ["field2", "field3", "field4"])
def test_outer_density_solves_the_outer_equation(which, request):
    # each outer side holds V applied to sum_w e^{iwky} r_w(y), with the
    # field's own envelopes, at its nodes; n = 4 has two waves per side and
    # complex-root end states
    f = request.getfixturevalue(which)
    pot = request.getfixturevalue(f"pot{f.n}")
    for side in (+1, -1):
        y = f._outer[side].mesh.nodes
        b = pot.values(y)
        ref = sum(sum(b[m] * (w * f.k) ** m for m in range(f.n - 1))
                  * np.exp(1j * w * f.k * y) * f._envelope(y, w) for w in f.waves)
        assert np.max(np.abs(f._outer[side].values(y) - ref)) \
            <= 1e-12 * np.max(np.abs(f.w))
    if f.n == 4:
        assert f.diagnostics["residual"] <= 1e-12 * np.max(np.abs(f.w))
