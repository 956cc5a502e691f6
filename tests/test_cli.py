import json
import subprocess
import sys

import numpy as np
import pytest

from carleman.cli import main


def run_cli(args, tmp_path=None):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


def test_map_coeffs_p_direction():
    rc, out = run_cli(["map-coeffs", "--p", "0,1"])
    assert rc == 0
    payload = json.loads(out)
    assert abs(payload["q"][0] + 0.5772156649015329) < 1e-10
    assert payload["q"][1] == 1.0


def test_map_coeffs_q_direction():
    rc, out = run_cli(["map-coeffs", "--q", "-0.5772156649015329,1"])
    assert rc == 0
    payload = json.loads(out)
    assert abs(payload["p"][0]) < 1e-10


def test_map_coeffs_requires_exactly_one():
    rc, _ = run_cli(["map-coeffs"])
    assert rc == 2
    rc, _ = run_cli(["map-coeffs", "--p", "0,1", "--q", "0,1"])
    assert rc == 2


def test_unknown_flag_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "carleman.cli", "scatter", "--bogus"],
        capture_output=True)
    assert proc.returncode == 1


def test_profile_table(tmp_path):
    out_file = tmp_path / "xi.csv"
    rc, _ = run_cli(["profile", "--family", "cosh", "--n", "2",
                     "--xi-grid", "0:2:1", "--emit", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "xi,v,x"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and abs(first[1] - np.sqrt(np.pi)) < 1e-12


def test_profile_reproducible(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        run_cli(["profile", "--family", "cosh", "--n", "2",
                 "--xi-grid", "-3:3:0.5", "--emit", str(f)])
    assert f1.read_bytes() == f2.read_bytes()


def test_transform_table(tmp_path):
    out_file = tmp_path / "b.csv"
    rc, _ = run_cli(["transform", "--p", "0,0,1", "--family", "cosh",
                     "--x-grid", "0:4:2", "--emit", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert "re_b2" in header and "re_bt1" in header
    row0 = dict(zip(header, (float(v) for v in lines[1].split(","))))
    assert abs(row0["re_b2"] - 1.0) < 1e-12      # b_n = 1
    assert abs(row0["re_bt1"]) < 1e-12           # gauged subprincipal = 0


def test_statphase_json(tmp_path):
    out_file = tmp_path / "r.json"
    rc, _ = run_cli(["statphase", "--case", "fresnel", "--N", "1e2,1e3",
                     "--emit", str(out_file)])
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert 0.5 < payload["decay_exponent"] < 1.5
    assert len(payload["rows"]) == 2


def test_statphase_bad_case():
    rc, _ = run_cli(["statphase", "--case", "airy"])
    assert rc == 2


def test_evolve_csv(tmp_path):
    out_file = tmp_path / "evo.csv"
    rc, _ = run_cli(["evolve", "--n", "2", "--T", "50", "--profile", "gaussian",
                     "--N-grid", "0.5:3:0.25", "--emit", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "N,re_pred,im_pred,branch"
    assert len(lines) > 5


def test_evolve_default_grid_holds_an_exact_zero():
    rc, out = run_cli(["evolve", "--n", "2", "--T", "1000", "--profile", "gaussian"])
    assert rc == 0
    assert "0,0,0,0" in out.splitlines()


@pytest.mark.parametrize("argv", [["--n", "4", "--T", "1000"],
                                  ["--n", "3", "--T", "10", "--family", "power_law"]])
def test_evolve_readme_examples_beyond_n2_cosh(argv, tmp_path):
    rc, _ = run_cli(["evolve", *argv, "--profile", "gaussian",
                     "--emit", str(tmp_path / "evo.csv")])
    assert rc == 0


def test_step_grids_are_exact():
    from carleman.cli import _parse_grid

    grid = _parse_grid("-4:4:0.1")
    assert len(grid) == 81 and grid[40] == 0.0
    for text in ("-30:30:5", "-10:10:0.25", "-20:20:0.5", "-4:4:0.5"):
        a, b, step = map(float, text.split(":"))
        assert np.array_equal(_parse_grid(text), np.arange(a, b + 0.5 * step, step))


@pytest.mark.parametrize("argv, want", [
    (["evolve", "--T", "inf"], 2), (["evolve", "--T=-inf"], 2),
    (["evolve", "--T", "1e-300"], 2), (["evolve", "--n", "3", "--T", "1e-300"], 2),
    (["evolve", "--family", "power_law", "--alpha", "0.01"], 2),
    (["evolve", "--family", "stretched_exp", "--alpha", "1e-3"], 2),
    (["profile", "--n", "2", "--family", "power_law", "--alpha", "1e-9"], 0)])
def test_evolve_and_profile_at_extreme_parameters(argv, want, capsys):
    # an infinite or underflowing T and a guard past the double range are
    # refused (or, for profile, served) without a warning or a traceback
    rc, out = run_cli(argv)
    assert rc == want
    if want == 0:
        assert np.all(np.isfinite(np.loadtxt(out.splitlines()[1:], delimiter=",")))
    else:
        assert "validation error" in capsys.readouterr().err


def test_evolve_rejects_first_order():
    # the stationary-point equation has the exponent 1/(n-1)
    rc, _ = run_cli(["evolve", "--n", "1", "--T", "50", "--N-grid", "0.5:1:0.5"])
    assert rc == 2


def test_longrange_csv(tmp_path):
    out_file = tmp_path / "sigma.csv"
    rc, _ = run_cli(["longrange", "--family", "power_law", "--alpha", "1",
                     "--n", "2", "--j", "2", "--x-grid", "100,1000",
                     "--emit", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 3


def test_longrange_honours_q_and_checks_n():
    grid = ["--x-grid", "100,1000"]
    rc, x2 = run_cli(["longrange", *grid])
    assert rc == 0
    rc, q = run_cli(["longrange", "--q", "7,3,1", *grid])
    assert rc == 0 and q != x2
    assert run_cli(["longrange", "--q", "7,3,1", "--n", "2", *grid]) == (0, q)
    assert run_cli(["longrange", "--q", "7,3,1", "--n", "3", *grid])[0] == 2
    assert run_cli(["longrange", "--p", "0,0,1", "--n", "3", *grid])[0] == 2


def test_verify_core():
    rc, out = run_cli(["verify", "--suite", "core"])
    assert rc == 0
    assert "all invariants pass" in out


def test_verify_all():
    rc, out = run_cli(["verify", "--suite", "all"])
    assert rc == 0
    assert "all invariants pass" in out


def test_verify_has_no_scatter_suite():
    # "all" runs the scattering checks; a third value for the same suites is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "scatter"])
    assert exc.value.code == 1


def test_verify_core_sees_a_corrupted_gamma(monkeypatch, capsys):
    # one Lanczos coefficient off by 1e-6 must fail an invariant
    from carleman import specfun, verify

    c = specfun._LANCZOS_C.copy()
    c[3] *= 1.0 + 1e-6
    monkeypatch.setattr(specfun, "_LANCZOS_C", c)
    assert verify.run_suite("core") >= 1
    assert "FAIL" in capsys.readouterr().out


def test_hankel_theta_csv(tmp_path):
    out_file = tmp_path / "theta.csv"
    rc, _ = run_cli(["hankel-theta", "--p", "-1,0,1", "--family", "cosh",
                     "--k", "1.0", "--N-grid", "-20,20", "--truncation", "2000",
                     "--emit", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "N,re_theta,im_theta,re_asym,im_asym,residual"
    rows = [dict(zip(lines[0].split(","), (float(v) for v in ln.split(","))))
            for ln in lines[1:]]
    assert all(r["residual"] < 0.2 for r in rows)


def test_config_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": "0,1"}))
    rc, out = run_cli(["map-coeffs", "--p", "0,0,1", "--config", str(cfg)])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["q"]) == 2  # the config overrode the degree-2 flag


def test_near_exceptional_guard(tmp_path, monkeypatch):
    # with the rcond floor at 1 every solve is near-exceptional: the library
    # raises, and the CLI exits 3
    import carleman.scattering as sc
    from carleman.errors import NearExceptionalPointError

    pot = sc.PotentialSpec(2, [lambda x: -0.6 * np.exp(-np.asarray(x) ** 2)],
                           support=4.0)
    monkeypatch.setattr(sc, "RCOND_FLOOR", 1.0)
    with pytest.raises(NearExceptionalPointError):
        sc.scattering_matrix(pot, 1.0, X=10.0)
    rc, out = run_cli(["scatter", "--p", "0,0,1", "--family", "cosh",
                       "--lambda-min", "1.0", "--lambda-max", "1.0",
                       "--points", "1", "--truncation", "500",
                       "--emit", str(tmp_path / "smatrix.json")])
    assert rc == 3 and out == ""


def test_long_range_weight_names_its_cause(tmp_path, capsys):
    # power_law weights give b~ ~ x^{-1}: a solve goes through, but S drifts
    # with X, and the failure says the coefficients are long-range
    rc, out = run_cli(["scatter", "--p", "0,0,1", "--family", "power_law",
                       "--lambda-min", "1", "--lambda-max", "1", "--points", "1",
                       "--emit", str(tmp_path / "smatrix.json")])
    assert rc == 3 and out == ""
    assert "long-range" in capsys.readouterr().err


def test_power_law_refused_even_where_born_converges(tmp_path, capsys):
    # at lambda = 20 too a solve on b~ ~ x^-1 would go through; the
    # short-range check refuses the coefficients before any factorization
    rc, out = run_cli(["scatter", "--p", "0,0,1", "--family", "power_law",
                       "--lambda-min", "20", "--lambda-max", "20", "--points", "1",
                       "--emit", str(tmp_path / "smatrix.json")])
    assert rc == 3 and out == ""
    assert "longrange.py" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scatter", "--truncation", "1e-3"],
    ["scatter", "--family", "power_law", "--truncation", "100"],
    *(["scatter", "--truncation", X] for X in ("0", "-5", "nan", "inf")),
    ["scatter", "--lambda-min", "nan"],
    ["hankel-theta", "--k", "nan"]])
def test_inputs_the_solve_cannot_honour_exit_2(argv, capsys):
    # a truncation inside the core (or not a finite positive number) leaves no
    # outer side to scatter into, and nan is no spectral point
    base = {"scatter": ["--lambda-min", "1", "--lambda-max", "1", "--points", "1"],
            "hankel-theta": ["--N-grid", "5"]}[argv[0]]
    rc, out = run_cli([argv[0], "--p", "0,0,1", *base, *argv[1:]])
    assert rc == 2 and out == ""
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["profile", "--n", "2", "--xi-grid=0:1:0"],
    ["transform", "--p", "0,0,1", "--x-grid=0:1:0"],
    ["longrange", "--x-grid=1:2:0"],
    ["map-coeffs", "--p", "1,x"],
    ["profile", "--n", "2", "--xi-grid=0:x:1"],
    ["hankel-theta", "--p", "0,0,1", "--k", "1", "--N-grid=0:1:0"],
    # non-finite entries, and a non-finite time
    ["profile", "--n", "2", "--xi-grid=nan,1"],
    ["transform", "--p", "0,0,1", "--x-grid=nan,1"],
    ["hankel-theta", "--p", "0,0,1", "--k", "1", "--N-grid=nan,5"],
    *(["evolve", "--p", "0,0,1", "--profile", "gaussian", "--N-grid=0.1:0.3:0.1",
       "--T", T] for T in ("nan", "inf")),
    ["evolve", "--p", "0,0,1", "--profile", "gaussian", "--T", "1000",
     "--N-grid=nan,0.2"],
    # a non-finite weight parameter the family uses
    *(["profile", "--family", "power_law", "--alpha", A, "--n", "2",
       "--xi-grid=0:1:0.5"] for A in ("nan", "inf")),
    ["profile", "--family", "stretched_exp", "--alpha", "1", "--beta", "nan",
     "--n", "2", "--xi-grid=0:1:0.5"],
    ["longrange", "--family", "power_law", "--alpha", "inf", "--n", "2", "--j", "3"],
    ["evolve", "--n", "2", "--T", "1000", "--profile", "gaussian",
     "--N-grid=1:2:0.5", "--family", "power_law", "--alpha", "nan"],
    # empty grids, and an N grid whose only points are N = 0, which is skipped
    *(["hankel-theta", "--p", "0,0,1", "--k=1", f"--N-grid={g}"]
      for g in ("5:1:1", "0", "0,0")),
    ["profile", "--n", "2", "--xi-grid=5:1:1"],
    ["evolve", "--n", "2", "--T", "1000", "--profile", "gaussian", "--N-grid=2:1:0.5"],
    # a decay fit needs N != 0 at two or more distinct |N|
    *(["statphase", f"--N={N}"] for N in (",", "0", "-5", "5", "1e2,1e2")),
    # a lambda grid of no points
    *(["scatter", "--p", "0,0,1", "--lambda-min", "0.2", "--lambda-max", "5",
       "--points", n] for n in ("0", "-2"))])
def test_malformed_grids_and_lists_exit_2(argv, capsys, monkeypatch):
    # refused before any solve starts
    monkeypatch.setattr("carleman.cli.scattering_matrix",
                        lambda *a, **kw: pytest.fail("solved before parsing"))
    rc, out = run_cli(argv)
    assert rc == 2 and out == ""
    assert "validation error" in capsys.readouterr().err


SCATTER_ONE = ["--lambda-min", "1", "--lambda-max", "1", "--points", "1"]


@pytest.mark.parametrize("argv", [
    ["scatter", "--q", q, *SCATTER_ONE] for q in ("0,0,2", "0,0,0.5", "0,0,0,3")] + [
    ["scatter", "--p", p, *SCATTER_ONE] for p in ("0,0,1e-300", "0,0,2", "0,0,-1",
                                                   "0,0,1,0")] + [
    ["hankel-theta", "--q", "0,0,2", "--k", "1", "--N-grid=5"],
    ["longrange", "--q", "0,0,2", "--j", "2"],
    ["transform", "--q", "0,0,2"]])
def test_non_monic_polynomials_exit_2(argv, capsys, monkeypatch):
    # the solver takes the D^n coefficient of B~ to be 1, so q_n != 1 would
    # scatter by another operator; it is refused before any solve
    monkeypatch.setattr("carleman.cli.scattering_matrix",
                        lambda *a, **kw: pytest.fail("solved a non-monic operator"))
    rc, out = run_cli(argv)
    assert rc == 2 and out == ""
    assert "monic" in capsys.readouterr().err


@pytest.mark.parametrize("text, cmd, rc", [
    ('{"fn": 1}', "map-coeffs", 1),
    ('{"nonsense": 3}', "map-coeffs", 1),
    ('{"p": [0, 1]}', "map-coeffs", 2),
    ('{"lambda_min": "a"}', "scatter", 1),
    ("[1, 2]", "map-coeffs", 2),
    ('{"config": "other.json"}', "scatter", 2),
    ('{"p": ', "map-coeffs", 2),
    (None, "map-coeffs", 2)])
def test_config_entries_are_refused_as_flags(text, cmd, rc, tmp_path):
    # each config entry is a flag: an unknown or ill-typed one is a usage
    # error, a value the command refuses is a validation error, and so is a
    # missing file, malformed JSON or JSON that is no object; no traceback
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    base = {"map-coeffs": ["--p", "0,1"], "scatter": ["--p", "0,0,1", *SCATTER_ONE]}[cmd]
    proc = subprocess.run([sys.executable, "-m", "carleman.cli", cmd, *base,
                           "--config", str(cfg)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (rc, "")
    assert "Traceback" not in proc.stderr


def test_config_supplies_required_flags(tmp_path):
    # the config's flags join the command line's before the one parse
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_min": 1, "lambda_max": 1, "points": 1}))
    argv = ["scatter", "--p", "0,0,1", "--truncation", "500"]
    got, want = (run_cli(argv + extra) for extra in (["--config", str(cfg)], SCATTER_ONE))
    assert got == want and want[0] == 0


@pytest.mark.parametrize("cmd", [["statphase"], ["evolve"], ["verify", "--suite", "core"]])
@pytest.mark.parametrize("text", ['{"T": 10}', None])
def test_config_is_a_usage_error_where_no_flag_takes_it(cmd, text, tmp_path):
    # statphase, evolve and verify take no --config, readable or not
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(cmd + ["--config", str(cfg)])
    assert exc.value.code == 1


def test_config_entry_is_the_flag(tmp_path):
    # {"N-grid": "-5:5:5"} reads as --N-grid=-5:5:5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N-grid": "-5:5:5"}))
    argv = ["hankel-theta", "--p", "0,0,1", "--k", "1", "--truncation", "2000"]
    got, want = (run_cli(argv + extra) for extra in (["--config", str(cfg)],
                                                     ["--N-grid=-5:5:5"]))
    assert got == want and want[0] == 0


def test_truncation_past_the_initial_table(tmp_path):
    # X = 5e4 reads b~ out to 1e5, beyond the 2.6e4 the operator's table
    # starts with; the table is extended, never extrapolated
    S = {}
    for X in ("1e4", "5e4"):
        out_file = tmp_path / f"smatrix{X}.json"
        rc, _ = run_cli(["scatter", "--p", "0,0,1", "--lambda-min", "1",
                         "--lambda-max", "1", "--points", "1", "--truncation", X,
                         "--emit", str(out_file)])
        assert rc == 0
        rec = json.loads(out_file.read_text())["records"][0]
        S[X] = np.array([[complex(*v) for v in row] for row in rec["entries"]])
    assert np.max(np.abs(S["1e4"] - S["5e4"])) <= 1e-8


def test_scatter_json_small(tmp_path):
    out_file = tmp_path / "smatrix.json"
    rc, _ = run_cli(["scatter", "--p", "0,0,1", "--family", "cosh",
                     "--lambda-min", "1.0", "--lambda-max", "1.0",
                     "--points", "1", "--truncation", "500",
                     "--emit", str(out_file)])
    assert rc == 0
    payload = json.loads(out_file.read_text())
    rec = payload["records"][0]
    assert rec["unitarity_defect"] < 5e-4
    assert rec["truncation_X"] == 500.0
    S = np.array([[complex(*rec["entries"][i][j]) for j in range(2)]
                  for i in range(2)])
    assert np.linalg.norm(S.conj().T @ S - np.eye(2), 2) < 1e-3


def test_scatter_record_carries_the_defect_of_its_entries(tmp_path):
    # entries hold S = 2 S_2X - S_X; unitarity_defect stays that of S_X
    out_file = tmp_path / "smatrix.json"
    rc, _ = run_cli(["scatter", "--p", "0,0,0,1", "--lambda-min", "-1", "--lambda-max", "1",
                     "--points", "2", "--truncation", "500", "--emit", str(out_file)])
    assert rc == 0
    for rec in json.loads(out_file.read_text())["records"]:
        S = np.array([[complex(*v) for v in row] for row in rec["entries"]])
        defect = np.linalg.norm(S.conj().T @ S - np.eye(len(S)), 2)
        assert rec["extrapolated_defect"] == defect
        assert rec["extrapolated_defect"] != rec["unitarity_defect"]


def test_degree_flag_rejected_where_the_polynomial_sets_it():
    # scatter and hankel-theta take the degree from --p/--q; --n is a usage
    # error there (exit 1), not a silently ignored flag
    for cmd in (["scatter", "--lambda-min", "1", "--lambda-max", "1"],
                ["hankel-theta", "--k", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--n", "2"])
        assert exc.value.code == 1


@pytest.mark.parametrize("p, grid, solvers", [("-1,0,1", "-20,20", 1),
                                              ("0,0,0,1", "5,10", 1)])
def test_hankel_theta_reuses_the_scattering_field(p, grid, solvers, tmp_path,
                                                  monkeypatch):
    # one core solver per lambda of S, shared by +-k; theta reuses the field
    # of the k given
    import carleman.scattering as sc

    built = []

    class Counting(sc._CoreSolver):
        def __init__(self, *args, **kw):
            built.append(args[1])
            super().__init__(*args, **kw)

    monkeypatch.setattr(sc, "_CoreSolver", Counting)
    out_file = tmp_path / "theta.csv"
    rc, _ = run_cli(["hankel-theta", "--p", p, "--family", "cosh", "--k", "1.0",
                     "--N-grid", grid, "--truncation", "2000",
                     "--emit", str(out_file)])
    assert rc == 0
    assert len(built) == solvers
    assert len(out_file.read_text().strip().splitlines()) == 3

