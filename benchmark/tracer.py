"""Per-layer call counts and self time, recorded from outside the program.

`Tracer.install` replaces each listed function of the package by a
timing wrapper: in the module that defines it and in every package
module that bound the same object by name (``dynamics.expm``,
``cli.assemble``, ...), so calls through any of those names are seen.
`ReducedPoint` is traced through its ``__post_init__`` validation.

A span is one call.  Its self time is its duration minus the part of it
covered by the spans it caused (its children).  Spans are aggregated as
they close, into a call count and a self-time sum per function, because
the hot functions are called millions of times in one run.
"""

from __future__ import annotations

import functools
import sys
import time

#: module -> traced functions; metric names are <module>.<function>.calls
#: and <module>.<function>.self_s
LAYERS = {
    "matops": ("expm", "indefinite_cholesky_upper",
               "indefinite_cholesky_upper_dual"),
    "model": ("ReducedPoint", "cartan_from_q"),
    "reconstruction": ("assemble", "verify_constraints", "solve_v",
                       "build_Ttilde", "build_sigma_rho"),
    "decomposition": ("decompose_KB", "decompose_BK", "cartan_KAK",
                      "extract_reduced", "surface_residuals"),
    "hamiltonians": ("grad_hamiltonian", "hamiltonian_sigma", "phi_trace",
                     "phi_reduced", "fd_gradient", "involution_report"),
    "dynamics": ("reduced_rhs", "integrate_reduced", "exact_flow",
                 "project_flow", "compare_trajectories",
                 "trajectory_csv_text"),
    "limits": ("limit_convergence", "phi_linearized", "richardson_H2",
               "fit_expansion", "sutherland_H2"),
    "sampling": ("random_admissible_point",),
    "cli": ("cmd_verify", "cmd_simulate", "cmd_involution", "cmd_limit"),
}

PACKAGE = "bcn_ruijsenaars"


def layer_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Call counts and self time per traced function."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in layer_names()}
        self.missing = []
        self._stack = []      # time covered by children, one entry per open span
        self._undo = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stats[0] += 1
                stats[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
        return traced

    def take(self) -> dict:
        """(calls, self seconds) of each function since the last take."""
        out = {name: tuple(v) for name, v in self.stats.items()}
        for v in self.stats.values():
            v[:] = [0, 0.0]
        return out

    def install(self):
        self.missing = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for mod_name, fns in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(home, fn_name, None)
                if isinstance(orig, type):          # trace the validation
                    post = orig.__dict__.get("__post_init__")
                    if post is None:
                        self.missing.append(name)
                        continue
                    self._set(orig, "__post_init__", self._wrap(name, post))
                    continue
                if not callable(orig):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
