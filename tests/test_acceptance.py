"""Acceptance suite: one test per criterion, tolerances pinned in-line.

Each test prints a single PASS line on success (run with -s to see them);
failures carry the measured numbers in the assertion message.
"""

import numpy as np

from carleman.coeffmap import RealPolynomial, p_to_q, q_to_p
from carleman.liouville import OperatorCoefficients, operator_apply_check
from carleman.longrange import sigma_iterate
from carleman.profile import ChangeOfVariables, WeightProfile, a1_constant, decay_parameters
from carleman.scattering import (PotentialSpec, ode_cross_check, scattering_matrix,
                                 solve_lippmann_schwinger, square_well_reflection)
from carleman.hankelphase import (PhaseModel, ThetaEvaluator, quadratic_form_check,
                                  theta_asymptotic)


def _report(num, detail):
    print(f"\n[ACCEPTANCE {num}] PASS  {detail}")


def _slope(x, y):
    A = np.vstack([np.log(x), np.ones_like(x)]).T
    return float(np.linalg.lstsq(A, np.log(y), rcond=None)[0][0])


# -- 1: coefficient map -------------------------------------------------------

def test_criterion_01_coefficient_map(rng):
    worst = 0.0
    for _ in range(50):
        deg = int(rng.integers(0, 7))
        c = rng.normal(size=deg + 1)
        c[-1] = 1.0
        P = RealPolynomial(c)
        worst = max(worst, float(np.max(np.abs(q_to_p(p_to_q(P)).coeffs
                                               - P.coeffs))))
    assert worst < 1e-12, worst
    # q0 for P(X) = X against the finite-difference gamma oracle
    from test_specfun import fd_recip_gamma_derivative

    q0 = p_to_q(RealPolynomial([0.0, 1.0])).coeffs[0]
    oracle = fd_recip_gamma_derivative(1)
    assert abs(q0 - oracle) < 1e-9, (q0, oracle)
    assert abs(q0 + 0.5772156649) < 1e-9
    _report(1, f"round trip {worst:.2e}; q0 vs FD oracle {abs(q0-oracle):.2e}")


# -- 2: Liouville identities ---------------------------------------------------

def test_criterion_02_liouville_identities(cosh_profile):
    from numpy.polynomial.hermite_e import hermeval

    f = lambda x: np.exp(-0.5 * np.asarray(x) ** 2)

    def fd(x, m):
        c = np.zeros(m + 1)
        c[m] = 1.0
        return (-1.0) ** m * hermeval(x, c) * np.exp(-0.5 * np.asarray(x) ** 2)

    worst_id = 0.0
    worst_apply = 0.0
    for n in (1, 2, 3, 4):
        Q = p_to_q(RealPolynomial([0.0] * n + [1.0]))
        cov = ChangeOfVariables(cosh_profile, n)
        op = OperatorCoefficients(Q, cov)
        xs = np.array([-9.0, -1.2, 0.0, 0.4, 2.5, 17.0])
        b = op.b_values(xs)
        ref = Q.coeffs[n - 1] * cosh_profile.v(cov.xi_of_x(xs)) ** (2.0 / n)
        worst_id = max(worst_id, float(np.max(np.abs(b[n] - 1.0))),
                       float(np.max(np.abs(b[n - 1] - ref))))
        resid = operator_apply_check(Q, cov, f, fd, np.linspace(-1.2, 1.2, 5))
        worst_apply = max(worst_apply, resid)
    assert worst_id < 1e-10, worst_id
    assert worst_apply < 1e-5, worst_apply
    _report(2, f"identities {worst_id:.2e}; apply-check {worst_apply:.2e} (n=1..4)")


# -- 3: decay exponents --------------------------------------------------------

def test_criterion_03_decay_exponents(cosh_profile, q_x2, cov2):
    x = np.geomspace(10.0, 1e4, 40)
    op = OperatorCoefficients(q_x2, cov2)
    b = op.b_values(x)
    s0 = _slope(x, np.abs(b[0]))
    s1 = _slope(x, np.abs(b[1]))
    assert abs(s0 + 2.0) < 0.1, s0
    assert abs(s1 + 1.0) < 0.1, s1
    covp = ChangeOfVariables(WeightProfile("power_law", alpha=1.0), 2)
    opp = OperatorCoefficients(q_x2, covp)
    bp = opp.b_values(x)
    sp1 = _slope(x, np.abs(bp[1]))
    assert abs(sp1 + 0.5) < 0.1, sp1
    # Examples 4.5/4.6 exponents from the profile fits
    g_cosh, d_cosh = decay_parameters(cosh_profile, 2)
    g_pl, d_pl = decay_parameters(WeightProfile("power_law", alpha=1.0), 2)
    g_se, _ = decay_parameters(WeightProfile("stretched_exp", alpha=1.3,
                                             beta=1.0), 2)
    assert abs(g_cosh - 1.0) < 0.05 and abs(d_cosh) < 0.05
    assert abs(g_pl - 0.5) < 0.05
    assert abs(g_se - 1.0) < 0.05
    _report(3, f"slopes ({s0:.3f}, {s1:.3f}, {sp1:.3f}); "
               f"gammas ({g_cosh:.3f}, {g_pl:.3f}, {g_se:.3f})")


# -- 4: gauge-trivial n = 1 ----------------------------------------------------

def test_criterion_04_gauge_trivial_n1():
    pot1 = PotentialSpec(1, [], support=None)
    worst = 0.0
    for lam in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        e = scattering_matrix(pot1, lam, X=1e4)
        worst = max(worst, abs(complex(e.S[0, 0]) - 1.0))
    assert worst < 1e-8, worst
    _report(4, f"max |s - 1| = {worst:.2e} over lambda grid")


# -- 5: unitarity, reciprocity, truncation law ---------------------------------

def test_criterion_05_unitarity_and_truncation(pot2, pot3):
    lams = np.linspace(0.2, 5.0, 20)
    worst_defect = worst_recip = worst_ratio = 0.0
    for lam in lams:
        e = scattering_matrix(pot2, lam, X=1e4)
        worst_defect = max(worst_defect, e.unitarity_defect)
        worst_recip = max(worst_recip, abs(e.S[0, 1] - e.S[1, 0]))
        # defect halving: at solver precision (<< the 1/X scale) the defect
        # cannot shrink further, so the floor applies
        assert e.unitarity_defect_2X <= max(0.55 * e.unitarity_defect, 1e-7), lam
    assert worst_defect < 5e-4, worst_defect
    assert worst_recip < 5e-4, worst_recip
    # the 1/X truncation law carried by the S-value convergence
    e1 = scattering_matrix(pot2, 1.0, X=1e4)
    e2 = scattering_matrix(pot2, 1.0, X=2e4)
    tau1 = np.linalg.norm(e1.S_X - e1.S_2X, 2)
    tau2 = np.linalg.norm(e2.S_X - e2.S_2X, 2)
    assert 0.35 <= tau2 / tau1 <= 0.65, (tau1, tau2)
    worst3 = 0.0
    for lam in lams:
        e = scattering_matrix(pot3, lam, X=1e4)
        worst3 = max(worst3, abs(abs(complex(e.S[0, 0])) - 1.0))
    assert worst3 < 5e-4, worst3
    _report(5, f"n=2 defect {worst_defect:.2e}, |s12-s21| {worst_recip:.2e}, "
               f"tau ratio {tau2/tau1:.3f}; n=3 ||s|-1| {worst3:.2e}")


# -- 6: cross-method agreement --------------------------------------------------

def test_criterion_06_cross_method(pot2):
    e = scattering_matrix(pot2, 1.0, X=1e4)
    o = ode_cross_check(pot2, 1.0, X=1e4)
    d11 = abs(o["s11"] - e.S_X[0, 0])
    d21 = abs(o["s21"] - e.S_X[1, 0])
    assert d11 < 5e-4 and d21 < 5e-4, (d11, d21)
    V0, a, k = 0.6, 1.3, 0.9
    well = PotentialSpec(
        2, [lambda x: np.where(np.abs(np.asarray(x)) <= a, -V0, 0.0)],
        support=a, breakpoints=(a,))
    ow = ode_cross_check(well, k, X=a)
    ref = square_well_reflection(V0, a, k)
    dw = max(abs(ow["s11"] - ref["s11"]), abs(ow["s21"] - ref["s21"]))
    assert dw < 1e-6, dw
    _report(6, f"Nystrom/ODE {max(d11, d21):.2e}; well closed form {dw:.2e}")


# -- 7: quadratic-form identity --------------------------------------------------

def test_criterion_07_quadratic_form(cosh_profile):
    r0 = quadratic_form_check(RealPolynomial([1.0]), cosh_profile)
    r1 = quadratic_form_check(RealPolynomial([0.0, 1.0]), cosh_profile)
    assert r0["relative_residual"] < 1e-6, r0
    assert r1["relative_residual"] < 1e-4, r1
    from carleman.hankelphase import hankel_quadratic_form, mellin_F

    tau = np.linspace(-16.0, 16.0, 2049)
    g = np.exp(1j * 0.4 * tau - tau ** 2 / (2 * 1.2 ** 2))
    xi = np.linspace(-40.0, 40.0, 4096, endpoint=False)
    Fu = mellin_F(tau, g, xi)
    H = hankel_quadratic_form(tau, g, RealPolynomial([1.0]))
    mult = np.sum(np.pi / np.cosh(np.pi * xi) * np.abs(Fu) ** 2) * (xi[1] - xi[0])
    carleman_resid = abs(H - mult) / abs(H)
    assert carleman_resid < 1e-6, carleman_resid
    _report(7, f"residuals n=0 {r0['relative_residual']:.2e}, "
               f"n=1 {r1['relative_residual']:.2e}, multiplier {carleman_resid:.2e}")


# -- 8: eigenfunction asymptotics -------------------------------------------------

def _sweep(ev, model, entries, k, sign):
    rels = []
    for N in (10.0, 15.0, 20.0, 25.0, 30.0):
        v = ev.theta_scaled(sign * N)
        a = theta_asymptotic(sign * N, k, model, entries)
        rels.append(abs(v - a) / max(1.0, abs(a)))
    return rels


def test_criterion_08_eigenfunction_asymptotics(pot2m1, q_x2m1, cov2,
                                                field2m1, entries2m1,
                                                field3, q_x3, cov3, pot3):
    model = PhaseModel.from_problem(q_x2m1, cov2)
    fields = {1.0: field2m1,
              -1.0: solve_lippmann_schwinger(pot2m1, -1.0, X=1e4)}
    finals = []
    for k, f in fields.items():
        ev = ThetaEvaluator(f, q_x2m1, cov2)
        for sign in (1, -1):
            rels = _sweep(ev, model, entries2m1, k, sign)
            violations = sum(1 for i in (2, 3, 4) if rels[i] > 0.7 * rels[i - 2])
            assert violations <= 1, (k, sign, rels)
            assert rels[-1] < 0.05, (k, sign, rels)
            finals.append(rels[-1])
    # odd-n complete reflection at k > 0
    ev3 = ThetaEvaluator(field3, q_x3, cov3)
    plus = abs(ev3.theta_scaled(25.0))
    minus = abs(ev3.theta_scaled(-25.0))
    assert minus < 0.1 * plus, (minus, plus)
    _report(8, f"n=2 finals {['%.3f' % v for v in finals]}; "
               f"n=3 reflection ratio {minus/plus:.2e}")


# -- 9: eigenfunction bounds -------------------------------------------------------

def test_criterion_09_eigenfunction_bounds(pot2m1, q_x2m1, cov2, field2m1):
    Ns = np.array([-30.0, -20.0, -10.0, 10.0, 20.0, 30.0])
    ks = (0.9, 1.0, 1.1)
    fields = {1.0: field2m1}
    for k in ks:
        if k not in fields:
            fields[k] = solve_lippmann_schwinger(pot2m1, k, X=1e4)
    evs = {k: ThetaEvaluator(fields[k], q_x2m1, cov2) for k in ks}
    vals = {k: np.array([evs[k].theta_scaled(N) for N in Ns]) for k in ks}
    sup = max(np.max(np.abs(vals[k])) for k in ks)
    assert np.isfinite(sup)
    # mesh stability of the sup within 5%
    ev_ref = ThetaEvaluator(fields[1.0], q_x2m1, cov2, x_tail=3000.0)
    sup_ref = np.max(np.abs([ev_ref.theta_scaled(N) for N in Ns]))
    sup_base = np.max(np.abs(vals[1.0]))
    assert abs(sup_ref - sup_base) / sup_base < 0.05
    # difference-quotient bound with a single constant across the k grid
    consts = []
    for ka, kb in ((0.9, 1.0), (1.0, 1.1)):
        num = np.abs(vals[kb] - vals[ka])
        consts.append(np.max(num / (np.sqrt(1 + Ns ** 2) * abs(kb - ka))))
    C = max(consts)
    assert C < 10.0, consts
    _report(9, f"sup sqrt(t)|theta| = {sup:.3f} (stable {abs(sup_ref-sup_base)/sup_base:.2%}); "
               f"difference-quotient constant {C:.2f}")


# -- 10: stationary phase -----------------------------------------------------------

def test_criterion_10_stationary_phase():
    from carleman.statphase import evaluate_J, leading_term, verify_remainder

    s = 0.5
    omega = lambda y: np.asarray(y) ** 2
    g = lambda y: np.exp(-np.asarray(y) ** 2 / (2 * s * s))
    closed = complex(0.5 * np.sqrt(np.pi / (1.0 / (2 * s * s) - 1j * 1e4)))
    J = evaluate_J(omega, g, 1e4, 4.0)
    assert abs(J - closed) < 1e-8
    lead = leading_term(omega, g, 1e4, a=4.0)
    # leading term agrees with the oracle at the remainder scale, and exactly
    # with the closed-form large-N limit of the oracle
    assert abs(lead - closed) < 1e-4
    assert abs(abs(lead) - 0.5 * np.sqrt(np.pi / 1e4)) < 1e-12
    bump = lambda y: (1.0 + 1.5 * np.asarray(y)) * np.exp(-2.0 * np.asarray(y) ** 2)
    rep = verify_remainder(omega, bump, [1e2, 3e2, 1e3, 3e3, 1e4, 1e5, 1e6], 4.0)
    assert 0.85 <= rep["decay_exponent"] <= 1.15, rep["decay_exponent"]
    consts = []
    for w in (0.35, 0.5, 0.8):
        gw = lambda y, w=w: (1.0 + 1.5 * np.asarray(y)) * \
            np.exp(-np.asarray(y) ** 2 / (2 * w * w))
        consts.append(verify_remainder(omega, gw, [1e2, 1e3, 1e4, 1e5],
                                       4.0)["implied_constant"])
    assert max(consts) / min(consts) < 2.0, consts
    _report(10, f"oracle {abs(J-closed):.2e}; exponent {rep['decay_exponent']:.3f}; "
                f"constants {['%.4f' % c for c in consts]}")


# -- 11: long-range iteration ---------------------------------------------------------

def test_criterion_11_longrange_slopes(q_x2):
    cov = ChangeOfVariables(WeightProfile("power_law", alpha=1.0), 2)
    op = OperatorCoefficients(q_x2, cov)
    x = np.geomspace(1e2, 1e5, 25)
    sig = {j: sigma_iterate(op, j, x, 1.0) for j in range(0, 5)}
    slopes = {}
    for j in (1, 2, 3, 4):
        slopes[j] = _slope(x, np.abs(sig[j] - sig[j - 1]))
    # rho = 1/2; the iteration-difference bound -j rho is saturated for
    # j <= 2 and beaten for j >= 3 (structural cancellation; see the ledger)
    for j in (1, 2):
        assert abs(slopes[j] + 0.5 * j) < 0.15, slopes
    for j in (3, 4):
        assert slopes[j] <= -0.5 * j + 0.15, slopes
    _report(11, "slopes " + ", ".join(f"j={j}: {slopes[j]:.3f}" for j in slopes))


# -- 12: evolution ---------------------------------------------------------------------

def test_criterion_12_evolution(q_x2, cov2, q_x3, cov3):
    from carleman.evolution import (evolution_profile, stationary_point_y,
                                    stationary_residual, y_map)
    from conftest import integrate_panels

    T = 1e3
    y = stationary_point_y(0.7 * np.pi * T, T, cov2)
    res = stationary_residual(0.7 * np.pi * T, T, cov2, y)
    assert res < 1e-10, res
    Ts = np.geomspace(1e2, 1e4, 7)
    devs = [abs(stationary_point_y(0.7 * np.pi * t, t, cov2)
                * abs(np.pi * t / (0.7 * np.pi * t)) ** 0.5 - 1.0) for t in Ts]
    expo = -_slope(Ts, np.asarray(devs))
    assert 0.8 <= expo <= 1.2, expo
    f_hat = lambda u: np.exp(-(np.asarray(u) - 0.8) ** 2 / 0.3)
    edges = np.geomspace(1e-30, 81.0, 800)
    norm2 = sum(np.real(integrate_panels(
        lambda x: np.abs(y_map(f_hat, sgn * x, 3)) ** 2, edges, p=12))
        for sgn in (+1.0, -1.0))
    u = np.linspace(-9.0, 9.0, 40001)
    ref = np.trapezoid(np.abs(f_hat(u)) ** 2, u)
    assert abs(norm2 - ref) / ref < 1e-8
    # odd n: the j = 1 branch contributes nothing on t > 1
    N = np.array([0.5 * T, 1.0 * T])
    resp = evolution_profile(f_hat, N, T, q_x3, cov3)
    assert np.all(resp["branch"][resp["N"] > 0] == 2)
    _report(12, f"residual {res:.1e}; correction exponent {expo:.2f}; "
                f"Y-norm defect {abs(norm2-ref)/ref:.1e}")


# -- 13: a1 constant ---------------------------------------------------------------------

def test_criterion_13_a1(cov2):
    g = a1_constant(2, "gauss")
    s = a1_constant(2, "simpson")
    assert abs(g - s) < 1e-8, (g, s)
    fit = cov2.asymptotic_shift(15.0)
    assert abs(fit - g) < 1e-6, (fit, g)
    _report(13, f"a1 = {g:.12f}; rules agree {abs(g-s):.1e}; fit {abs(fit-g):.1e}")
