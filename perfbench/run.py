"""The carleman benchmark: one workload, timed untraced or traced per layer.

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it is a
report with the environment, every batch time, the accuracy figures, the
failures and (traced) the ROADMAP baseline cross-check.

--trace 0  end-to-end metrics: setup_s (median of SETUP_PROBES fresh
           interpreters, each timing imports + problem set-up), solve_s
           (median batch time; batches run until --seconds have passed, at
           least MIN_BATCHES), peak_rss_mb.  Both times are reference
           seconds (speed.py): wall time corrected for the speed the shared
           machine gave the process while it ran.  Wall times are in the
           report line.
--trace 1  per-layer metrics: the first TRACE_BATCHES batches run untraced,
           then again with spans around the library's entry points.  Span
           times are wall seconds without the speedometer's ticks;
           trace.overhead_s is in reference seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
MIN_BATCHES = 3
TRACE_BATCHES = 1
SETUP_PROBES = {"full": 3, "tiny": 1}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# ROADMAP "Baseline measured at this re-anchor" (2-core box, seconds)
BASELINE = {
    "scattering_matrix n=2 lambda=1": 4.1,
    "ThetaEvaluator build n=2": 1.21,
    "ThetaEvaluator build n=3": 0.80,
    "theta per N n=2": 0.48,
    "theta per N n=3": 0.12,
    "evolution_profile 400 points n=2": 3.8,
    "btilde_splines": 0.03,
}


class SetupError(RuntimeError):
    pass


def pin_threads():
    """One BLAS thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_library():
    """Import the checkout's library (never an installed copy) and numpy."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import carleman
    from carleman import (coeffmap, errors, evolution, hankelphase, liouville,
                          profile, scattering)

    if Path(carleman.__file__).resolve().parent != SRC / "carleman":
        raise SetupError(f"carleman imported from {carleman.__file__}, not {SRC}")
    return SimpleNamespace(coeffmap=coeffmap, errors=errors, evolution=evolution,
                           hankelphase=hankelphase, liouville=liouville,
                           profile=profile, scattering=scattering)


def setup(workload, size):
    """Imports + coefficient map + change of variables + potentials."""
    lib = load_library()
    import workloads

    wl = workloads.WORKLOADS[workload](lib, size)
    wl.setup()
    return lib, wl


def setup_probe(workload, size):
    """Set-up time of a fresh interpreter, imports of scipy and the library
    included (numpy is loaded first, by the speedometer)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": git_commit(), "seed": args.seed,
            "workload": args.workload, "size": args.size,
            "seconds": args.seconds, "trace": args.trace}


def run_batches(wl, batches, gate, count=None, seconds=None):
    """Solve + check batches; returns the solve time of each batch in
    reference seconds and in wall seconds."""
    from speed import Speedometer

    times, walls = [], []
    start = perf_counter()
    for i, batch in enumerate(batches):
        with Speedometer() as sp:
            results = wl.solve(batch)
        times.append(sp.reference_seconds())
        walls.append(sp.wall_seconds())
        gate.keep_outputs = i < TRACE_BATCHES
        wl.check(batch, results, gate)
        # free this batch's solvers before the next one, so peak memory does
        # not grow with the number of batches the time allows
        del results
        done = i + 1
        if count is not None and done >= count:
            break
        if seconds is not None and done >= MIN_BATCHES and perf_counter() - start >= seconds:
            break
    return times, walls


def load_reference(workload):
    """Stored outputs of the default seed's first batch, keyed by input."""
    if not REFERENCE.is_file():
        return {}
    prefix = workload + "|"
    return {k[len(prefix):]: v for k, v in json.loads(REFERENCE.read_text()).items()
            if k.startswith(prefix)}


def drift(outputs, workload):
    """Max |output - stored reference| per output kind, over shared inputs."""
    ref = load_reference(workload)
    worst = {"S": 0.0, "theta": 0.0, "prediction": 0.0}
    for key, vals in outputs.items():
        if key in ref:
            kind = key.split("|", 1)[0]
            d = max(abs(complex(*a) - complex(*b)) for a, b in zip(vals, ref[key]))
            worst[kind] = max(worst[kind], d)
    return worst


def write_reference(outputs, workload):
    """Replace this workload's entries; one JSON entry per line."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data = {k: v for k, v in data.items() if not k.startswith(workload + "|")}
    data.update({f"{workload}|{k}": v for k, v in outputs.items()})
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(data.items())]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def baseline_rows(workload, tracer, points):
    """ROADMAP baseline rows this workload covers, traced, flagged beyond 20%."""
    rows = {}
    if workload == "hankel-theta":
        n2, n3 = "n=2 P=X^2-1", "n=3 P=X^3"
        rows["scattering_matrix n=2 lambda=1"] = tracer.first_seconds(
            "scattering.scattering_matrix", n2)
        rows["ThetaEvaluator build n=2"] = tracer.first_seconds(
            "hankelphase.evaluator_build", n2)
        rows["ThetaEvaluator build n=3"] = tracer.first_seconds(
            "hankelphase.evaluator_build", n3)
        rows["theta per N n=2"] = tracer.median_seconds("hankelphase.theta_scaled", n2)
        rows["theta per N n=3"] = tracer.median_seconds("hankelphase.theta_scaled", n3)
    if workload == "evolve":
        t = tracer.first_seconds("evolution.evolution_profile", "n=2")
        rows["evolution_profile 400 points n=2"] = t * 400.0 / points
    if workload in ("scatter", "hankel-theta"):
        rows["btilde_splines"] = tracer.first_seconds("liouville.btilde_splines")
    out = {}
    for name, measured in rows.items():
        ratio = measured / BASELINE[name]
        out[name] = {"measured_s": measured, "baseline_s": BASELINE[name],
                     "ratio": ratio, "flagged": abs(ratio - 1.0) > 0.2}
    return out


def _extreme(values, pick):
    return pick(values) if values else 0.0


def per_layer(tracer, gate, drifts, overhead):
    t = tracer
    obs = {**gate.observed, **t.observed}
    mx = lambda name: _extreme(obs.get(name, []), max)
    return {
        "oscquad.exp_monomial_moments.calls": (t.calls("oscquad.exp_monomial_moments"), "count"),
        "oscquad.exp_monomial_moments.s": (t.seconds("oscquad.exp_monomial_moments"), "s"),
        "scattering.lu_factor.calls": (t.calls("scattering.lu_factor"), "count"),
        "scattering.lu_factor.s": (t.seconds("scattering.lu_factor"), "s"),
        "scattering.lu_solve.calls": (t.calls("scattering.lu_solve"), "count"),
        "scattering.scattering_matrix.calls": (t.calls("scattering.scattering_matrix"), "count"),
        "scattering.scattering_matrix.s": (t.seconds("scattering.scattering_matrix"), "s"),
        "scattering.scattering_matrix.self_s": (t.self_seconds("scattering.scattering_matrix"), "s"),
        "scattering.solve_lippmann_schwinger.calls": (t.calls("scattering.solve_lippmann_schwinger"), "count"),
        "scattering.solve_lippmann_schwinger.s": (t.seconds("scattering.solve_lippmann_schwinger"), "s"),
        "scattering.r_limits.s": (t.seconds("scattering.r_limits"), "s"),
        "scattering.field_eval.s": (t.seconds("scattering.field_eval"), "s"),
        "scattering.mesh_nodes.max": (mx("mesh_nodes"), "count"),
        "scattering.rcond.min": (_extreme(obs.get("rcond", []), min), "1"),
        "scattering.residual.max": (mx("residual"), "1"),
        "scattering.truncation_gap.max": (mx("truncation_gap"), "1"),
        "scattering.reciprocity.max": (mx("reciprocity"), "1"),
        "scattering.unitarity_defect.max": (mx("unitarity_defect"), "1"),
        "profile.xi_of_x.calls": (t.calls("profile.xi_of_x"), "count"),
        "profile.xi_of_x.self_s": (t.self_seconds("profile.xi_of_x"), "s"),
        "profile.a1_constant.calls": (t.calls("profile.a1_constant"), "count"),
        "specfun.eta_phase.calls": (t.calls("specfun.eta_phase"), "count"),
        "specfun.eta_phase.s": (t.seconds("specfun.eta_phase"), "s"),
        "hankelphase.evaluator_build.s": (t.seconds("hankelphase.evaluator_build"), "s"),
        "hankelphase.theta_scaled.s": (t.median_seconds("hankelphase.theta_scaled"), "s"),
        "hankelphase.theta_scaled.calls": (t.calls("hankelphase.theta_scaled"), "count"),
        "hankelphase.theta_residual.max": (mx("theta_residual"), "1"),
        "hankelphase.reflection_ratio.max": (mx("reflection_ratio"), "1"),
        "oscquad.integrate_panels.calls": (t.calls("oscquad.integrate_panels"), "count"),
        "oscquad.integrate_panels.s": (t.seconds("oscquad.integrate_panels"), "s"),
        "evolution.evolution_profile.s": (t.seconds("evolution.evolution_profile"), "s"),
        "evolution.stationary_point_y.calls": (t.calls("evolution.stationary_point_y"), "count"),
        "evolution.stationary_point_y.s": (t.seconds("evolution.stationary_point_y"), "s"),
        "evolution.mass_defect.max": (mx("mass_defect"), "1"),
        "evolution.stationary_residual.max": (mx("stationary_residual"), "1"),
        "liouville.btilde_splines.s": (t.seconds("liouville.btilde_splines"), "s"),
        "coeffmap.p_to_q.s": (t.seconds("coeffmap.p_to_q"), "s"),
        "scattering.S.drift_vs_seed": (drifts["S"], "1"),
        "hankelphase.theta.drift_vs_seed": (drifts["theta"], "1"),
        "evolution.prediction.drift_vs_seed": (drifts["prediction"], "1"),
        "gate.failed_frac": (gate.failed / max(gate.attempted, 1), "ratio"),
        "trace.overhead_s": (overhead, "s"),
    }


def measure(args):
    probes = []
    if not args.trace:
        probes = [setup_probe(args.workload, args.size)
                  for _ in range(SETUP_PROBES[args.size])]
    t0 = perf_counter()
    lib, wl = setup(args.workload, args.size)
    report = {"env": environment(args),
              "setup_samples_s": [p["setup_s"] for p in probes],
              "setup_wall_samples_s": [p["setup_wall_s"] for p in probes],
              "setup_in_process_s": perf_counter() - t0}
    from workloads import Gate

    gate = Gate()
    if not args.trace:
        times, walls = run_batches(wl, wl.batches(args.seed), gate,
                                   seconds=args.seconds)
        report.update(batch_solve_s=times, batch_wall_s=walls)
    else:
        from spans import Tracer
        from workloads import install_spans

        plain, plain_wall = run_batches(wl, wl.batches(args.seed), gate,
                                        count=TRACE_BATCHES)
        tracer = Tracer()
        install_spans(tracer, lib)
        wl.enter = lambda label: setattr(tracer, "tag", label)
        try:
            tracer.tag = "setup"
            wl.setup()
            traced, traced_wall = run_batches(wl, wl.batches(args.seed), gate,
                                              count=TRACE_BATCHES)
        finally:
            tracer.restore()
        report.update(batch_solve_s=plain, batch_wall_s=plain_wall,
                      traced_batch_solve_s=traced,
                      traced_batch_wall_s=traced_wall,
                      baseline=baseline_rows(args.workload, tracer,
                                             getattr(wl, "points", 0)))
    if args.write_reference:
        write_reference(gate.outputs, args.workload)
    drifts = drift(gate.outputs, args.workload)
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "solve_s": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = per_layer(tracer, gate, drifts, overhead)
    report["drift_vs_reference"] = drifts
    report["accuracy"] = {k: {"max": max(v), "min": min(v)} for k, v in gate.observed.items()}
    report["failures"] = gate.failures
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["scatter", "hankel-theta", "evolve"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: smoke-test inputs, same code paths")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the drift reference")
    args = ap.parse_args(argv)
    pin_threads()
    try:
        if not (SRC / "carleman" / "__init__.py").is_file():
            raise SetupError(f"no carleman package under {SRC}")
        if args.setup_probe:
            from speed import Speedometer

            with Speedometer() as sp:
                setup(args.workload, args.size)
            print(json.dumps({"setup_s": sp.reference_seconds(),
                              "setup_wall_s": sp.wall_seconds()}))
            return 0
        return measure(args)
    except SetupError as exc:
        sys.stderr.write(f"benchmark set-up failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
