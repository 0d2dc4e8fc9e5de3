"""Checks of the program's outputs against the independent reference.

Each checker returns a list of problems; an empty list means the output
is correct.  Tolerances:

* trajectories (both routes): q within 1e-6 of the DOP853 reference, and
  p within 1e-6 modulo 2 pi;
* energy column: within 1e-9 (relative, floored at 1) of the closed form
  at the same row, and within 1e-6 (same scale) of its first value;
* residual column: below 1e-6;
* verify: the report passes; at the first points of the same draw,
  |det g - 1| <= 1e-12 max(1, cond(g)/100) (rounding in det alone reaches
  0.7 eps cond(g)) and -tr(g J g^dag J)/2 matches the closed form to 1e-9
  (relative, floored at 1);
* involution: every bracket below 1e-5;
* limit: H2_closed within 1e-12 relative of the Sutherland H2, fitted
  order >= 0.9.
"""

from __future__ import annotations

import io
import json

import numpy as np

import reference

TRAJ_TOL = 1e-6
ENERGY_TOL = 1e-9
DRIFT_TOL = 1e-6
RESIDUAL_TOL = 1e-6
DET_TOL = 1e-12
PHI_TOL = 1e-9
BRACKET_TOL = 1e-5
H2_TOL = 1e-12
MIN_ORDER = 0.9
VERIFY_SUBSET = 3

#: the `bcn` defaults of alpha, x, y
DEFAULT_MODEL = {"alpha": 0.5, "x": 1.0, "y": 1.0}


def flags(argv) -> dict:
    """`--key value` and `--key=value` pairs of an argv (subcommand first)."""
    out, key = {}, None
    for tok in argv[1:]:
        if key is not None:
            out[key], key = tok, None
        elif "=" in tok:
            k, v = tok.split("=", 1)
            out[k.lstrip("-")] = v
        else:
            key = tok.lstrip("-")
    return out


def model_of(fl: dict):
    return tuple(float(fl.get(k, DEFAULT_MODEL[k])) for k in ("alpha", "x", "y"))


def floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


class Checker:
    """Holds reference trajectories already computed in this run."""

    def __init__(self):
        self._refs = {}

    def reference(self, q0, p0, times, model):
        key = (tuple(q0), tuple(p0), times.tobytes(), model)
        if key not in self._refs:
            self._refs[key] = reference.trajectory(q0, p0, times, *model)
        return self._refs[key]

    def trajectory(self, text: str, n: int, t_max: float, model, q0=None, p0=None):
        """Problems of one `t,q1..qn,p1..pn,energy,residual` CSV."""
        header = text.split("\n", 1)[0].split(",")
        want = (["t"] + [f"q{i + 1}" for i in range(n)]
                + [f"p{i + 1}" for i in range(n)] + ["energy", "residual"])
        if header != want:
            return [f"CSV header {header[:4]}... is not {want[:4]}..."]
        rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        t, q, p = rows[:, 0], rows[:, 1:n + 1], rows[:, n + 1:2 * n + 1]
        energy, residual = rows[:, -2], rows[:, -1]
        if q0 is None:
            q0, p0 = q[0], p[0]
        if not (t[0] == 0.0 and np.all(np.diff(t) > 0.0)
                and abs(t[-1] - t_max) <= 1e-9 * max(1.0, t_max)):
            return [f"time column is not an increasing grid on [0, {t_max}]"]
        problems = []
        ref = self.reference(np.asarray(q0), np.asarray(p0), t, model)
        dq = float(np.max(np.abs(q - ref[:, :n])))
        dp = float(np.max(np.abs(reference.wrap(p - ref[:, n:]))))
        if not (dq <= TRAJ_TOL and dp <= TRAJ_TOL):
            problems.append(f"trajectory off the reference: q {dq:.2e}, p {dp:.2e}")
        closed = reference.hamiltonian(q, p, *reference.abc(*model))
        scale = max(1.0, abs(float(closed[0])))
        de = float(np.max(np.abs(energy - closed))) / scale
        if not de <= ENERGY_TOL:
            problems.append(f"energy column off the closed form by {de:.2e}")
        drift = float(np.max(np.abs(energy - energy[0]))) / scale
        if not drift <= DRIFT_TOL:
            problems.append(f"energy drifts by {drift:.2e}")
        worst = float(np.max(residual))
        if not worst < RESIDUAL_TOL:
            problems.append(f"residual column reaches {worst:.2e}")
        return problems

    def simulate(self, argv, stdout: str, files: dict):
        fl = flags(argv)
        n, t_max, model = int(fl["n"]), float(fl.get("t-max", 1.0)), model_of(fl)
        q0 = floats(fl["q"]) if "q" in fl else None
        p0 = floats(fl["p"]) if "p" in fl else None
        if fl.get("method") != "both":
            return self.trajectory(stdout, n, t_max, model, q0, p0)
        problems = both_report(json.loads(stdout), float(fl.get("tol", 1e-6)))
        for path, text in files.items():
            problems += [f"{path}: {msg}" for msg in
                         self.trajectory(text, n, t_max, model, q0, p0)]
        if len(files) != 2:
            problems.append(f"expected two trajectory files, got {sorted(files)}")
        return problems

    def verify(self, argv, stdout: str):
        from bcn_ruijsenaars import assemble, make_params, random_admissible_point

        fl = flags(argv)
        rep = json.loads(stdout)
        n, seed = int(fl["n"]), int(fl["seed"])
        problems = verify_report(rep, n, int(fl["samples"]), float(fl.get("tol", 1e-10)))
        alpha, x, y = model_of(fl)
        params = make_params(alpha, x, y, n)
        rng = np.random.default_rng(seed)
        abc = reference.abc(alpha, x, y)
        for _ in range(min(VERIFY_SUBSET, int(fl["samples"]))):
            point = random_admissible_point(rng, params)
            g = assemble(point, params)[0].g
            problems += point_identities(g, point.q, point.p, abc)
        return problems

    def run(self, argv, stdout: str, files: dict):
        if argv[0] == "simulate":
            return self.simulate(argv, stdout, files)
        if argv[0] == "verify":
            return self.verify(argv, stdout)
        if argv[0] == "involution":
            return involution_report(json.loads(stdout))
        return limit_report(json.loads(stdout))


def both_report(rep: dict, tol: float):
    if rep.get("pass") is True and rep["q_dev"] < tol and rep["p_dev"] < tol:
        return []
    return [f"routes disagree: q_dev {rep['q_dev']}, p_dev {rep['p_dev']}"]


def verify_report(rep: dict, n: int, samples: int, tol: float):
    if (rep.get("pass") is True and rep["max_residual"] < tol
            and rep["n"] == n and rep["samples"] == samples):
        return []
    return [f"verify report fails: max_residual {rep.get('max_residual')}"]


def point_identities(g, q, p, abc):
    """det g = 1 and Phi_1(g) equal to the closed form H(q, p)."""
    problems = []
    det_err = abs(complex(np.linalg.det(g)) - 1.0)
    if not det_err <= DET_TOL * max(1.0, np.linalg.cond(g) / 100.0):
        problems.append(f"|det g - 1| = {det_err:.2e}")
    h = float(reference.hamiltonian(q, p, *abc))
    phi_err = abs(reference.phi1(g) - h) / max(1.0, abs(h))
    if not phi_err <= PHI_TOL:
        problems.append(f"Phi_1(g) off the closed form by {phi_err:.2e}")
    return problems


def involution_report(rep: dict):
    mat = np.asarray(rep["bracket_matrix"], float)
    worst = float(np.max(np.abs(mat))) if mat.size else np.inf
    if rep.get("pass") is True and mat.shape == (3, 3) and worst < BRACKET_TOL:
        return []
    return [f"bracket reaches {worst:.2e}"]


def limit_report(rep: dict):
    h2 = reference.sutherland_h2(rep["q"], rep["pi"], rep["xi"], rep["eta"], rep["zeta"])
    problems = []
    rel = abs(rep["H2_closed"] - h2) / abs(h2)
    if not rel <= H2_TOL:
        problems.append(f"H2_closed off the Sutherland H2 by {rel:.2e}")
    if not (rep["fitted_order"] >= MIN_ORDER and rep["passes"] is True):
        problems.append(f"fitted order {rep['fitted_order']}")
    return problems


def fault(result, expected):
    """The known fault fails with its exit code and message, or not at all."""
    if result.code == expected.code and expected.stderr in result.stderr:
        return []
    return [f"fails differently: exit {result.code}, {result.stderr.strip()[:200]!r}"]
