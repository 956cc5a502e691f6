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


def test_non_finite_points_refused(cov2):
    for bad in (np.nan, np.inf, np.array([1.0, np.nan])):
        with pytest.raises(DomainError):
            cov2.x_of_xi(bad)
        with pytest.raises(DomainError):
            cov2.xi_of_x(bad)


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


def test_refused_cache_growth_stays_small():
    # the cache cells are evaluated in chunks, so a refused power_law request
    # never holds the Gauss nodes of all its new cells at once
    import tracemalloc

    cov = ChangeOfVariables(WeightProfile("power_law", alpha=1.0), 4)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            cov.xi_of_x(1e12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


def test_xi_guard_past_the_double_range():
    # a small alpha puts the guard past the largest double: inf, not an
    # OverflowError from the float power
    for prof, n in ((WeightProfile("power_law", alpha=0.01), 2),
                    (WeightProfile("power_law", alpha=1e-9), 2),
                    (WeightProfile("stretched_exp", alpha=1e-3), 3)):
        assert prof.xi_guard(n) == np.inf
        assert ChangeOfVariables(prof, n).guard == np.inf
    assert WeightProfile("power_law").xi_guard(2) == 1e8
    assert WeightProfile("power_law", alpha=0.1).xi_guard(2) == 1e8 ** 10
    assert WeightProfile("stretched_exp").xi_guard(4) == 1200.0


@pytest.mark.parametrize("family", ["cosh", "power_law", "stretched_exp"])
def test_memoised_series_match_the_per_call_series(family, monkeypatch):
    # each touched cell's column is formed once, by the per-call expression
    # over the cells a call touches; a repeated call evaluates x' nowhere
    from carleman.profile import _GL_NODES, _MEAN

    half = 0.5 * ChangeOfVariables.CELL
    for n in range(2, 6):
        cov = ChangeOfVariables(WeightProfile(family), n)
        xi = np.linspace(-9.0, 9.0, 301)
        x = cov.x_of_xi(xi)
        cov.xi_of_x(np.linspace(0.0, 2.0 * x[-1], 77))
        cov.x_of_xi(np.linspace(-20.0, 20.0, 1001))
        cells = np.flatnonzero(cov._slot >= 0)
        assert cov._coef.shape[1] == cells.size
        per_call = _MEAN @ cov.x_prime(cov._grid[cells, None] + half + half * _GL_NODES).T
        assert np.array_equal(cov._coef[:, cov._slot[cells]], per_call), n
        calls = []
        monkeypatch.setattr(cov, "x_prime", lambda t: calls.append(np.size(t)))
        assert np.array_equal(cov.x_of_xi(xi), x) and calls == [], n


@pytest.mark.parametrize("family", ["cosh", "power_law", "stretched_exp"])
def test_memoised_series_do_not_depend_on_the_cells_a_call_touches(family):
    # a cell's column is the same bits whether its first call touches it
    # alone or together with every other cell: neither a one-column product
    # (BLAS gemv) nor the last columns of a wide one (gemm's edge kernel, past
    # ~190 columns) may round on a path of its own.  Every 8th cell and the
    # last 7 are touched alone, all of them (513 for two families) at once
    for n in range(2, 6):
        alone, batch = (ChangeOfVariables(WeightProfile(family), n) for _ in range(2))
        mids = 0.5 * (alone._grid[:-1] + alone._grid[1:])
        for m in np.concatenate((mids[::8], mids[-7:])):
            alone.x_of_xi(m)
        batch.x_of_xi(mids)
        cells = np.flatnonzero(alone._slot >= 0)
        assert cells.size >= 70 and np.all(batch._slot[cells] >= 0)
        assert np.array_equal(alone._coef[:, alone._slot[cells]],
                              batch._coef[:, batch._slot[cells]]), n


@pytest.mark.parametrize("prof", [WeightProfile("power_law"), WeightProfile("stretched_exp")])
def test_map_does_not_depend_on_the_calls_before_it(prof):
    # the cache grows by blocks of fixed cells, each edge value one running
    # sum from 0: x(xi) past the first block is the same bits whether or not
    # a nearer xi was asked first
    xi = np.array([70.0, 90.0, 150.0, 300.0])
    fresh, primed = ChangeOfVariables(prof, 2), ChangeOfVariables(prof, 2)
    primed.x_of_xi(100.0)
    assert fresh.x_of_xi(xi).tobytes() == primed.x_of_xi(xi).tobytes()


@pytest.mark.parametrize("family", ["cosh", "stretched_exp"])
def test_inverse_does_not_depend_on_the_other_points_read(family):
    # Newton stops each point on its own step, so xi(x) at 400 points is the
    # same bits read in one call and one point at a time
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        batch, alone = (ChangeOfVariables(WeightProfile(family), n) for _ in range(2))
        x = rng.choice((-1.0, 1.0), 400) * 10.0 ** rng.uniform(-3.0, 4.0, 400)
        whole = batch.xi_of_x(x)
        assert whole.tobytes() == np.array([alone.xi_of_x(v) for v in x]).tobytes(), n


def test_newton_steps_past_four_change_xi_by_an_ulp_at_most(monkeypatch):
    # the minimum of 4 Newton steps leaves xi(x) within 4.5e-16 of 12 steps,
    # |x| <= 1e4, for every family at n = 1..6
    import carleman.profile as profile

    profs = [WeightProfile("cosh")] \
        + [WeightProfile("stretched_exp", alpha=a, beta=b) for a in (0.3, 1.0, 2.0)
           for b in (0.5, 1.0, 3.0)] \
        + [WeightProfile("power_law", alpha=a) for a in (0.2, 1.0, 4.0)]
    x = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 400)))
    for prof in profs:
        for n in range(1, 7):
            xi = {}
            for steps in (4, 12):
                monkeypatch.setattr(profile, "_NEWTON_STEPS", steps)
                xi[steps] = ChangeOfVariables(prof, n).xi_of_x(x)
            assert xi[4][0] == xi[12][0] == 0.0
            err = np.max(np.abs(xi[4][1:] / xi[12][1:] - 1.0))
            assert err <= 4.5e-16, (prof, n, err)


@pytest.mark.parametrize("prof, xi", [
    (WeightProfile("cosh"), np.linspace(-40.0, 40.0, 161)),
    (WeightProfile("power_law"), np.concatenate((np.linspace(-30.0, 30.0, 121),
                                                 np.geomspace(30.0, 3e3, 40)))),
    (WeightProfile("power_law", alpha=0.6), np.geomspace(1e-3, 3e3, 60)),
    (WeightProfile("stretched_exp"), np.linspace(-500.0, 500.0, 201)),
    (WeightProfile("stretched_exp", alpha=0.5, beta=2.0), np.linspace(-500.0, 500.0, 201))])
def test_closed_form_log_derivative(prof, xi):
    mp = pytest.importorskip("mpmath")
    d = prof.dlog_v(xi)
    c = prof.v_jet(xi, 1).c
    with mp.workdps(40):
        a, b = mp.mpf(prof.alpha), mp.mpf(prof.beta)
        log_v = {"cosh": lambda s: -mp.log(mp.cosh(mp.pi * s)) / 2,
                 "power_law": lambda s: -a / 2 * mp.log(1 + s * s),
                 "stretched_exp": lambda s: -b * (1 + s * s) ** (a / 2)}[prof.family]
        ref = np.array([float(mp.diff(log_v, mp.mpf(float(s)))) for s in xi])
    assert np.array_equal(d == 0, ref == 0)
    live = ref != 0
    assert np.max(np.abs(d[live] / ref[live] - 1.0)) <= 1e-15
    assert np.max(np.abs(d[live] / (c[1] / c[0])[live] - 1.0)) <= 1e-15


_MP_CASES = [("cosh", 2, 12.0), ("cosh", 3, 12.0), ("cosh", 5, 12.0),
             ("power_law", 2, 12.0), ("power_law", 3, 12.0),
             ("stretched_exp", 2, 6.0)]


def _mp_map(family, n, xs):
    """x(xi) = int_0^xi v^(-2/n) at the sorted points xs, to 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        f = {"cosh": lambda s: (mp.cosh(mp.pi * s) / mp.pi) ** (mp.mpf(1) / n),
             "power_law": lambda s: (1 + s * s) ** (mp.mpf(1) / n),
             "stretched_exp": lambda s: mp.exp(2 * mp.sqrt(1 + s * s) / n)}[family]
        edges = [mp.mpf(0)] + [mp.mpf(float(x)) for x in xs]
        return np.array([float(v) for v in np.cumsum(
            [mp.quad(f, [a, b]) for a, b in zip(edges[:-1], edges[1:])])])


@pytest.mark.parametrize("family, n, top", _MP_CASES)
def test_map_and_inverse_against_mpmath(family, n, top):
    # the per-cell Chebyshev series keep x(xi) and xi(x) at a few ulps,
    # down to the first cell's start and across a cell edge
    tiny = np.array([1e-8, 1e-4])
    xs = np.sort(np.concatenate((
        np.random.default_rng(7).uniform(0.01, top, 60), tiny,
        [0.125 - 1e-12, 0.125 + 1e-12])))
    ref = _mp_map(family, n, xs)
    cov = ChangeOfVariables(WeightProfile(family), n)
    assert np.max(np.abs(cov.x_of_xi(xs) / ref - 1.0)) <= 4e-15
    back = np.abs(cov.xi_of_x(ref) / xs - 1.0)
    small = np.isin(xs, tiny)
    assert np.max(back[~small]) <= 1e-15
    assert np.max(back[small]) <= 4e-15


def _mean_matrix_exact(nodes, mp):
    """M[k][j] of `profile._mean_matrix` in mpmath polynomial arithmetic:
    the Chebyshev coefficients of (t + 1)^-1 int_{-1}^t l_j, l_j the Lagrange
    polynomial of nodes[j]."""
    g = [mp.mpf(float(x)) for x in nodes]
    m, columns = len(g), []
    for j in range(m):
        lag = [mp.mpf(1)]                                 # monomials, lowest first
        for i in range(m):
            if i != j:
                lag = [(b - g[i] * a) / (g[j] - g[i]) for a, b in zip(lag + [0], [0] + lag)]
        prim = [mp.mpf(0)] + [a / (k + 1) for k, a in enumerate(lag)]
        prim[0] = -sum(a * (-1) ** k for k, a in enumerate(prim))   # vanishes at -1
        quot, rem = [], mp.mpf(0)                         # divided by t + 1
        for a in prim[:0:-1]:
            rem = a - rem
            quot.append(rem)
        cheb = [mp.mpf(0)] * (m + 1)                      # Horner in the T_k basis
        for a in quot:
            t_cheb = [mp.mpf(0)] * (m + 1)                # t * sum_k cheb_k T_k
            t_cheb[1] = cheb[0]
            for k in range(1, m):
                t_cheb[k + 1] += cheb[k] / 2
                t_cheb[k - 1] += cheb[k] / 2
            cheb = t_cheb
            cheb[0] += a
        columns.append(cheb[:m])
    return [list(row) for row in zip(*columns)]


def test_mean_matrix_is_correctly_rounded_to_an_ulp():
    # the long double construction must land within one double ulp of the
    # largest entry; where long double is binary64 it does not
    mp = pytest.importorskip("mpmath")
    from carleman.profile import _GL_NODES, _MEAN

    with mp.workdps(50):
        exact = _mean_matrix_exact(_GL_NODES, mp)
        err = max(abs(mp.mpf(float(_MEAN[k, j])) - exact[k][j])
                  for k in range(_MEAN.shape[0]) for j in range(_MEAN.shape[1]))
        top = max(abs(e) for row in exact for e in row)
    assert float(err) <= np.spacing(float(top)), (float(err), float(top))
