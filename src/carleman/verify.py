"""Invariant suites behind `carleman verify` (no pytest dependency)."""

from __future__ import annotations

import numpy as np


def _check(name, ok, detail=""):
    status = "pass" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    return 0 if ok else 1


def _suite_core():
    from .coeffmap import RealPolynomial, p_to_q, q_to_p
    from .liouville import OperatorCoefficients
    from .oscquad import gauss_panels
    from .profile import ChangeOfVariables, WeightProfile, a1_constant
    from .specfun import complex_gamma, eta_phase, recip_gamma_taylor

    fails = 0
    rng = np.random.default_rng(7)
    # Lanczos Gamma against identities it does not build in (complex_gamma
    # itself reflects below Re z = 1/2): |Gamma(1/2 + iy)|^2 = pi / cosh(pi y)
    # and the recurrence Gamma(z + 1) = z Gamma(z) for Re z >= 1/2
    y = rng.uniform(0, 60, 100)
    resid = np.abs(np.abs(complex_gamma(0.5 + 1j * y)) ** 2 * np.cosh(np.pi * y) / np.pi - 1)
    fails += _check("gamma modulus on the critical line", np.max(resid) < 1e-10,
                    f"max {np.max(resid):.2e}")
    z = rng.uniform(0.5, 8, 100) + 1j * rng.uniform(-60, 60, 100)
    resid = np.abs(complex_gamma(z + 1) / (z * complex_gamma(z)) - 1.0)
    fails += _check("gamma recurrence", np.max(resid) < 1e-10, f"max {np.max(resid):.2e}")
    # eta continuity out to the xi that evolve's stationary points reach
    xi = np.arange(0.0, 1e4, 0.05)
    d = np.abs(np.diff(eta_phase(xi)))
    fails += _check("eta branch continuity", np.max(d) < np.pi / 2,
                    f"max step {np.max(d):.3f}")
    err = abs(recip_gamma_taylor(12).c[2] - (0.5772156649015329 ** 2 - np.pi ** 2 / 6) / 2)
    fails += _check("recip gamma c2", err < 1e-12, f"off by {err:.1e}")
    # round trip
    ok = True
    for _ in range(50):
        deg = int(rng.integers(0, 7))
        coeffs = rng.normal(size=deg + 1)
        coeffs[-1] = 1.0
        P = RealPolynomial(coeffs)
        ok &= bool(np.max(np.abs(q_to_p(p_to_q(P)).coeffs - P.coeffs)) < 1e-12)
    fails += _check("coefficient map round trip", ok)
    # the Liouville identities
    prof = WeightProfile("cosh")
    for n in (1, 2, 3):
        Q = p_to_q(RealPolynomial([0.0] * n + [1.0]))
        cov = ChangeOfVariables(prof, n)
        op = OperatorCoefficients(Q, cov)
        xs = np.array([-7.0, -1.0, 0.5, 3.0, 20.0])
        b = op.b_values(xs)
        ref = Q.coeffs[n - 1] * prof.v(cov.xi_of_x(xs)) ** (2.0 / n)
        ok = (np.max(np.abs(b[n] - 1)) < 1e-10
              and np.max(np.abs(b[n - 1] - ref)) < 1e-10
              and np.max(np.abs(op.gauged_values(xs)[n - 1])) < 1e-10)
        fails += _check(f"Liouville identities n={n}", ok)
    # a1 rules
    fails += _check("a1 quadrature pair", abs(a1_constant(2, "gauss")
                                              - a1_constant(2, "simpson")) < 1e-8)
    # change of variables: x(xi) off the cache's cell edges against Gauss
    # panels of x', and the round trip
    ok, xs = True, np.linspace(-20, 20, 81)
    for n in (2, 3):
        cov = ChangeOfVariables(prof, n)
        for xi in (0.3, 1.7, 5.55, 11.9):
            nodes, weights = gauss_panels(np.linspace(0.0, xi, 65), 16)
            ref = np.sum(cov.x_prime(nodes) * weights)
            ok &= bool(abs(cov.x_of_xi(xi) - ref) < 1e-10 * ref)
        ok &= bool(np.max(np.abs(cov.xi_of_x(cov.x_of_xi(xs)) - xs)) < 1e-10)
    fails += _check("change of variables", ok)
    return fails


def _suite_scatter():
    from .coeffmap import RealPolynomial, p_to_q
    from .liouville import OperatorCoefficients
    from .profile import ChangeOfVariables, WeightProfile
    from .scattering import PotentialSpec, scattering_matrix, solve_lippmann_schwinger

    fails = 0
    prof = WeightProfile("cosh")
    Q = p_to_q(RealPolynomial([0.0, 0.0, 1.0]))
    pot = PotentialSpec.from_operator(
        OperatorCoefficients(Q, ChangeOfVariables(prof, 2)))
    for lam in (0.5, 2.0):
        e = scattering_matrix(pot, lam, X=2000.0)
        recip = abs(e.S[0, 1] - e.S[1, 0])
        fails += _check(f"n=2 unitarity/reciprocity lam={lam}",
                        e.unitarity_defect < 1e-10 and recip < 1e-10,
                        f"defect {e.unitarity_defect:.2e}, reciprocity {recip:.2e}")
    Q3 = p_to_q(RealPolynomial([0.0, 0.0, 0.0, 1.0]))
    pot3 = PotentialSpec.from_operator(
        OperatorCoefficients(Q3, ChangeOfVariables(prof, 3)))
    e = scattering_matrix(pot3, 1.0, X=2000.0)
    fails += _check("n=3 |s| = 1", abs(abs(e.S[0, 0]) - 1) < 5e-4,
                    f"defect {abs(abs(e.S[0,0]))-1:.2e}")
    # every root of odd n is a source on the outer sides, so S_X does not
    # depend on where the core ends: the default against X0 = 120
    for lam in (1.0, -1.0):
        a, b = (scattering_matrix(pot3, lam, X=1e4, x_core=x0).S_X for x0 in (None, 120.0))
        d = float(np.max(np.abs(a - b)))
        fails += _check(f"n=3 S_X independent of X0 lam={lam}", d < 1e-12, f"off by {d:.1e}")
    # the core equation w = b~_0 psi between the nodes, at the core panels'
    # midpoints: it holds only where the mesh resolves b~
    pot = PotentialSpec.from_operator(OperatorCoefficients(
        p_to_q(RealPolynomial([-1.0, 0.0, 1.0])), ChangeOfVariables(prof, 2)))
    f = solve_lippmann_schwinger(pot, 1.0)
    y = 0.5 * (f._core.mesh.lo + f._core.mesh.hi)
    r = np.max(np.abs(f.w_at(y) - pot.values(y)[0] * f.psi_at(y))) / np.max(np.abs(f.w))
    fails += _check("n=2 core equation between the nodes", r < 1e-8, f"{r:.1e} of max|w|")
    return fails


def run_suite(name):
    fails = _suite_core()
    if name == "all":
        fails += _suite_scatter()
    print(("all invariants pass" if fails == 0
           else f"{fails} invariant(s) FAILED"))
    return fails
