"""What `import degenls` loads, and the literal RK45 tableau that lets it load less."""

import importlib
import json
import subprocess
import sys

from scipy.integrate import RK45, solve_ivp

gs = importlib.import_module("degenls.ground_state")

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.interpolate")


def test_import_loads_no_deferred_scipy_subpackage():
    # A fresh interpreter: this one has imported them for other tests.
    code = ("import json, sys; import degenls; "
            f"print(json.dumps([m for m in {list(DEFERRED)!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert json.loads(out.strip().splitlines()[-1]) == []


def test_tableau_literals_are_rk45s():
    assert [gs._C1, gs._C2, gs._C3, gs._C4, gs._C5] == RK45.C[1:].tolist()
    lower = [(gs._A10,), (gs._A20, gs._A21), (gs._A30, gs._A31, gs._A32),
             (gs._A40, gs._A41, gs._A42, gs._A43), (gs._A50, gs._A51, gs._A52, gs._A53, gs._A54)]
    assert [list(row) for row in lower] == [row[:s] for s, row in
                                            enumerate(RK45.A.tolist()) if s]
    assert [gs._B0, gs._B1, gs._B2, gs._B3, gs._B4, gs._B5] == RK45.B.tolist()
    assert [gs._E0, gs._E1, gs._E2, gs._E3, gs._E4, gs._E5, gs._E6] == RK45.E.tolist()
    assert gs._P.dtype == RK45.P.dtype and gs._P.tolist() == RK45.P.tolist()
    assert gs._ERROR_EXPONENT == -1.0 / (RK45.error_estimator_order + 1)


def test_solve_ivp_binding_resolves_on_lookup():
    assert gs.solve_ivp is solve_ivp
