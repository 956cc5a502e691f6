import os
import subprocess
import sys
from pathlib import Path

import carleman

# map-coeffs and evolve need only numpy; scipy loads where a stage uses it
SCRIPT = """
import sys

def no_scipy(step):
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    assert not loaded, f"{step} loaded {loaded[:5]}"

import carleman
from carleman import (coeffmap, errors, evolution, hankelphase, liouville,
                      profile, scattering)
no_scipy("import carleman")
Q = carleman.p_to_q(carleman.RealPolynomial([0.0, 0.0, 1.0]))
carleman.q_to_p(Q)
no_scipy("p_to_q and q_to_p")
cov = carleman.ChangeOfVariables(carleman.WeightProfile("cosh"), 2)
no_scipy("ChangeOfVariables")
carleman.evolution_profile(lambda u: u * 0 + 1.0, [-3.0, -1.0, 0.0, 1.0, 3.0],
                           100.0, Q, cov)
no_scipy("evolution_profile")
"""

# the b~ and psi tables and the Magnus oracle are numpy; only the LU loads
# scipy.linalg
SCATTER = """
import sys

import carleman
Q = carleman.p_to_q(carleman.RealPolynomial([0.0, 0.0, 1.0]))
cov = carleman.ChangeOfVariables(carleman.WeightProfile("cosh"), 2)
pot = carleman.PotentialSpec.from_operator(carleman.OperatorCoefficients(Q, cov))
carleman.scattering_matrix(pot, 1.0, X=1e3)
carleman.ode_cross_check(pot, 1.0, X=1e3)
field = carleman.solve_lippmann_schwinger(pot, 1.0, X=1e3)
carleman.theta_profile([-5.0, 5.0], field, Q, cov)
loaded = sorted(m for m in sys.modules
                if m.startswith(("scipy.interpolate", "scipy.integrate")))
assert not loaded, f"scatter loaded {loaded[:5]}"
"""


# the stationary-phase constants come from numpy Chebyshev interpolants
STATPHASE = """
import sys

import numpy as np
from carleman.statphase import verify_remainder
verify_remainder(lambda y: np.asarray(y) ** 2,
                 lambda y: np.exp(-2.0 * np.asarray(y) ** 2), [1e2, 1e3], 4.0)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, f"verify_remainder loaded {loaded[:5]}"
"""


def _run_fresh(script):
    src = str(Path(carleman.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_package_import_and_evolve_load_no_scipy():
    _run_fresh(SCRIPT)


def test_scatter_and_ode_oracle_load_no_interpolate_or_integrate():
    _run_fresh(SCATTER)


def test_verify_remainder_loads_no_scipy():
    _run_fresh(STATPHASE)
