"""Command-line front end: deterministic curve/matrix emission per subcommand.

Exit codes: 0 success, 1 usage error, 2 validation (configuration/domain)
error, 3 numerical failure (near-exceptional point, long-range, resolution).
All numbers are printed with 17 significant digits so emitted files round-trip
losslessly; every record carries the tolerances and truncation radii used.

One parser owns every input.  Each entry of the JSON object a `--config` file
holds is a flag ({"lambda_min": 0.2} reads as --lambda-min=0.2), parsed once
with the command line's and after them, so that it may supply a required flag
and overrides the others, and validated the same way.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .coeffmap import RealPolynomial, p_to_q, q_to_p
from .errors import ConfigurationError, DomainError, NumericalError
from .evolution import evolution_profile
from .hankelphase import theta_profile
from .liouville import OperatorCoefficients
from .longrange import residual_symbol, sigma_iterate
from .profile import _FAMILIES, ChangeOfVariables, WeightProfile
from .scattering import PotentialSpec, scattering_matrix
from .statphase import verify_remainder


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _fmt(x):
    return f"{x:.17g}"


def _emit(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    _emit(path, "\n".join(lines) + "\n")


def _emit_json(path, payload):
    _emit(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_list(text, sep=","):
    try:
        vals = [float(v) for v in text.split(sep) if v.strip() != ""]
        if all(map(math.isfinite, vals)):
            return vals
    except ValueError:
        pass
    raise ConfigurationError(f"not a list of finite numbers: {text!r}")


def _parse_grid(text):
    """'a:b:step' (finite, nonzero step) or comma list, with at least one point."""
    if ":" not in text:
        grid = _parse_list(text)
    else:
        grid = _parse_list(text, ":")
        if len(grid) != 3 or grid[2] == 0.0:
            raise ConfigurationError(f"grid {text!r} is not a:b:step with a finite, "
                                     "nonzero step")
        a, b, step = grid
        # a + i step, so -4:4:0.1 holds an exact 0 (np.arange steps by
        # (a + step) - a); the last point lies less than half a step past b
        grid = list(a + step * np.arange(math.ceil((b - a) / step + 0.5)))
    if not grid:
        raise ConfigurationError(f"grid {text!r} has no points")
    return grid


def _profile_from_args(args):
    return WeightProfile(args.family, alpha=args.alpha, beta=args.beta)


def _poly_pair(args):
    if args.p is not None and args.q is not None:
        raise ConfigurationError("give exactly one of --p / --q")
    if args.p is not None:
        P = RealPolynomial(_parse_list(args.p))
        return P, p_to_q(P)
    if args.q is not None:
        Q = RealPolynomial(_parse_list(args.q))
        return q_to_p(Q), Q
    raise ConfigurationError("one of --p / --q is required")


def _operator(args):
    """Q, its change of variables and OperatorCoefficients from --p/--q and
    the weight flags."""
    Q = _poly_pair(args)[1]
    cov = ChangeOfVariables(_profile_from_args(args), Q.degree)
    return Q, cov, OperatorCoefficients(Q, cov)


# -- subcommands -------------------------------------------------------------


def _cmd_map_coeffs(args):
    P, Q = _poly_pair(args)
    _emit_json(args.emit, {"p": list(P.coeffs), "q": list(Q.coeffs)})
    return 0


def _cmd_profile(args):
    prof = _profile_from_args(args)
    cov = ChangeOfVariables(prof, args.n)
    xi = np.asarray(_parse_grid(args.xi_grid))
    rows = [(x, prof.v(x), cov.x_of_xi(x)) for x in xi]
    _emit_csv(args.emit, ["xi", "v", "x"], rows)
    return 0


def _cmd_transform(args):
    Q, _, op = _operator(args)
    xs = np.asarray(_parse_grid(args.x_grid))
    coeffs = {"b": op.b_values(xs), "bt": op.gauged_values(xs)}
    header = ["x"] + [f"{part}_{name}{m}" for name in coeffs
                      for m in range(Q.degree + 1) for part in ("re", "im")]
    cols = [xs] + [f(c[m]) for c in coeffs.values()
                   for m in range(Q.degree + 1) for f in (np.real, np.imag)]
    _emit_csv(args.emit, header, np.column_stack(cols))
    return 0


def _cmd_scatter(args):
    if args.points < 1:
        raise ConfigurationError(f"--points {args.points} must be at least 1")
    Q, _, op = _operator(args)
    n = Q.degree
    pot = PotentialSpec.from_operator(op)
    lams = list(np.linspace(args.lambda_min, args.lambda_max, args.points))
    records = []
    for lam in lams:
        e = scattering_matrix(pot, lam, X=args.truncation)
        records.append({
            "lambda": lam,
            "entries": [[[v.real, v.imag] for v in row] for row in e.S],
            "unitarity_defect": e.unitarity_defect,
            "unitarity_defect_2X": e.unitarity_defect_2X,
            "extrapolated_defect": e.extrapolated_defect,
            "truncation_X": e.truncation_X,
            "core_radius": e.core_radius,
            "rcond": e.rcond,
        })
    _emit_json(args.emit, {"n": n, "records": records})
    return 0


def _cmd_longrange(args):
    prof = _profile_from_args(args)
    if args.p is None and args.q is None:
        Q = p_to_q(RealPolynomial([0.0] * (2 if args.n is None else args.n) + [1.0]))
    else:
        Q = _poly_pair(args)[1]
        if args.n is not None and args.n != Q.degree:
            raise ConfigurationError(f"--n {args.n} disagrees with the degree "
                                     f"{Q.degree} of the given polynomial")
    cov = ChangeOfVariables(prof, Q.degree)
    op = OperatorCoefficients(Q, cov)
    xs = np.asarray(_parse_grid(args.x_grid))
    s, v = sigma_iterate(op, args.j, xs, args.k), residual_symbol(op, args.j, xs, args.k)
    rows = zip(xs, s.real, s.imag, v.real, v.imag)
    _emit_csv(args.emit, ["x", "re_sigma", "im_sigma", "re_resid", "im_resid"], rows)
    return 0


def _cmd_hankel_theta(args):
    Ns = np.asarray(_parse_grid(args.N_grid))
    Ns = Ns[Ns != 0.0]
    if Ns.size == 0:
        raise ConfigurationError(f"--N-grid {args.N_grid!r} has no N = ln t != 0")
    Q, cov, op = _operator(args)
    n = Q.degree
    pot = PotentialSpec.from_operator(op)
    e = scattering_matrix(pot, args.k ** n, X=args.truncation)
    entries = {"s": e.S[0, 0]} if n % 2 == 1 else \
        {f"s{i + 1}{j + 1}": e.S[i, j] for i in range(2) for j in range(2)}
    field = next(f for f in e.fields if np.sign(f.k) == np.sign(args.k))
    prof_res = theta_profile(Ns, field, Q, cov, entries=entries)
    v, a = prof_res.values, prof_res.asymptotic
    rows = zip(prof_res.N, v.real, v.imag, a.real, a.imag, prof_res.relative_residual)
    _emit_csv(args.emit, ["N", "re_theta", "im_theta", "re_asym", "im_asym",
                          "residual"], rows)
    return 0


def _cmd_statphase(args):
    if args.case != "fresnel":
        raise ConfigurationError("only the fresnel case is built in")
    omega = lambda y: np.asarray(y) ** 2
    g = lambda y: (1.0 + 1.5 * np.asarray(y)) * np.exp(-2.0 * np.asarray(y) ** 2)
    Ns = _parse_list(args.N)
    rep = verify_remainder(omega, g, Ns, a=4.0)
    payload = {
        "case": "fresnel",
        "decay_exponent": rep["decay_exponent"],
        "implied_constant": rep["implied_constant"],
        "rows": [{"N": r["N"], "remainder": r["remainder"],
                  "bound_shape": r["bound_shape"], "ratio": r["ratio"]}
                 for r in rep["rows"]],
    }
    _emit_json(args.emit, payload)
    return 0


def _cmd_evolve(args):
    if args.profile != "gaussian":
        raise ConfigurationError("only the gaussian spectral profile is built in")
    if not 0 < abs(args.T) < math.inf:   # before N = grid * |T| forms 0 * inf
        raise DomainError(f"--T {args.T} must be finite and nonzero")
    prof = _profile_from_args(args)
    P = RealPolynomial([0.0] * args.n + [1.0])
    Q = p_to_q(P)
    cov = ChangeOfVariables(prof, args.n)
    f_hat = lambda u: np.exp(-(np.asarray(u) - 1.0) ** 2 / 0.08)
    N = np.asarray(_parse_grid(args.N_grid)) * abs(args.T)
    res = evolution_profile(f_hat, N, args.T, Q, cov)
    rows = [(res["N"][i], res["prediction"][i].real, res["prediction"][i].imag,
             res["branch"][i]) for i in range(len(N))]
    _emit_csv(args.emit, ["N", "re_pred", "im_pred", "branch"], rows)
    return 0


def _cmd_verify(args):
    from . import verify as _verify

    failures = _verify.run_suite(args.suite)
    return 0 if failures == 0 else 3


def build_parser():
    ap = _Parser(prog="carleman",
                 description="generalized Carleman / Hankel operator laboratory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_family(p):
        p.add_argument("--family", default="cosh", choices=_FAMILIES)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)

    def add_common(p, poly=True, family=True):
        if poly:
            p.add_argument("--p", help="kernel polynomial coefficients, low->high")
            p.add_argument("--q", help="symbol polynomial coefficients, low->high")
        if family:
            add_family(p)
        p.add_argument("--emit", default=None, help="output path (stdout if omitted)")
        p.add_argument("--config", default=None,
                       help="JSON file whose entries override the flags")

    p = sub.add_parser("map-coeffs", help="P <-> Q coefficient map")
    add_common(p, family=False)
    p.set_defaults(fn=_cmd_map_coeffs)

    p = sub.add_parser("profile", help="emit weight/map table",
                       description="CSV columns: xi, v, x  (weight value and "
                                   "the change of variables at each xi)")
    add_common(p, poly=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi-grid", default="-10:10:0.25")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("transform", help="emit b_m(x) and gauged b~_m(x)",
                       description="CSV columns: x, re_b0..im_bn, "
                                   "re_bt0..im_btn (raw and gauged operator "
                                   "coefficients)")
    add_common(p)
    p.add_argument("--x-grid", default="-20:20:0.5")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("scatter", help="scattering matrices over a lambda grid")
    add_common(p)
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--truncation", type=float, default=1.0e4)
    p.set_defaults(fn=_cmd_scatter)

    p = sub.add_parser("longrange", help="sigma iteration and residual symbol",
                       description="CSV columns: x, re_sigma, im_sigma, "
                                   "re_resid, im_resid")
    add_common(p)
    p.add_argument("--n", type=int, default=None,
                   help="degree n of P = X^n (default 2); with --p / --q it "
                        "must equal their degree")
    p.add_argument("--j", type=int, default=3)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--x-grid", default="100,1000,10000,100000")
    p.set_defaults(fn=_cmd_longrange)

    p = sub.add_parser("hankel-theta", help="sqrt(t) theta(t,k) vs asymptotics",
                       description="CSV columns: N (= ln t), re_theta, "
                                   "im_theta, re_asym, im_asym, residual")
    add_common(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--N-grid", default="-30:30:5")
    p.add_argument("--truncation", type=float, default=1.0e4)
    p.set_defaults(fn=_cmd_hankel_theta)

    p = sub.add_parser("statphase", help="stationary-phase remainder report")
    p.add_argument("--case", default="fresnel")
    p.add_argument("--N", default="1e2,1e3,1e4")
    p.add_argument("--emit", default=None)
    p.set_defaults(fn=_cmd_statphase)

    p = sub.add_parser("evolve", help="large-time profile prediction")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--T", type=float, default=1000.0)
    p.add_argument("--profile", default="gaussian")
    add_family(p)
    p.add_argument("--N-grid", default="-4:4:0.1",
                   help="grid of ln t in units of |T|")
    p.add_argument("--emit", default=None)
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="core", choices=["core", "all"])
    p.set_defaults(fn=_cmd_verify)
    return ap


def _config_flags(path):
    """The entries of the JSON object in the file at path, as --key=value flags
    (underscores in a key read as dashes; a value that is no string as JSON)."""
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read --config {path!r}: {exc}") from None
    if not isinstance(entries, dict):
        raise ConfigurationError(f"--config {path!r} does not hold a JSON object")
    # a key that reads as --config would name a file nothing reads
    nested = [key for key in entries if key and "config".startswith(key.replace("_", "-"))]
    if nested:
        raise ConfigurationError(f"--config {path!r} holds the key {nested[0]!r}: "
                                 "a config cannot name another")
    return [f"--{key.replace('_', '-')}="
            f"{value if isinstance(value, str) else json.dumps(value)}"
            for key, value in entries.items()]


def _merge_negative_values(argv):
    """Join each long option with a following argument that starts with a
    single '-' (grids like -30:30:1 would otherwise be mistaken for options):
    every long option takes one value, and --help refuses one."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv) and \
                argv[i + 1].startswith("-") and not argv[i + 1].startswith("--"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    argv = _merge_negative_values(sys.argv[1:] if argv is None else list(argv))
    # the config's flags follow the command line's into the one parse, so
    # they may supply required flags, override the others and are refused
    # alike; a subcommand without --config refuses it as a usage error, so an
    # unreadable file is reported only after the parse
    pre = _Parser(prog="carleman", add_help=False)
    pre.add_argument("--config", nargs="?")  # a missing value is the parse's error
    path, flags, unread = pre.parse_known_args(argv)[0].config, [], None
    try:
        flags = _config_flags(path) if path else []
    except ConfigurationError as exc:
        unread = exc
    args = build_parser().parse_args(argv + flags)
    try:
        if unread:
            raise unread
        rc = args.fn(args)
    except (ConfigurationError, DomainError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
