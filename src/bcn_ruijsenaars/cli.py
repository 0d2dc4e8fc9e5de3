"""Command-line front end.

Subcommands:

* ``verify``     draw random admissible points, rebuild the constrained
                 elements (stacked, in chunks), and report the worst
                 constraint residual (a NaN residual is the worst);
* ``simulate``   integrate the reduced ODE and/or project the exact flow,
                 writing ``t,q1..qn,p1..pn,energy,residual`` CSV rows;
* ``involution`` estimate the pairwise Poisson brackets of the commuting
                 family on random points (JSON report);
* ``limit``      convergence report of the cotangent-bundle limit (JSON).

Exit codes: 0 success, 1 validation error (bad flags, inadmissible input
such as a start that breaks the separation condition, or an --output
file that cannot be written), 2 numerical failure or tolerance breach;
a numpy warning raised as an error (``python -W error::RuntimeWarning``)
is a numerical failure too.
Vector values may start with ``-`` (``--p -0.2,0.15``).  All random
draws are fixed by ``--seed``; identical configuration and seed give
byte-identical output.  A JSON file with the same field names as the
long flags (underscores for dashes) can be given as ``--config PATH``
or ``--config=PATH``; its values (JSON strings or numbers) are checked
as flag values are, explicit flags override them, and keys that name no
flag of the subcommand are ignored.  ``--format json|csv`` selects the
report format of ``verify``, ``involution`` and ``limit``.

``main`` builds its argument parser on its first call and reuses it, so a
caller that runs many commands in one process pays the parser build once;
``build_parser()`` returns a new parser on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .dynamics import (
    compare_trajectories,
    integrate_reduced,
    project_flow,
    sample_times,
    step_count,
    trajectory_csv_text,
)
from .errors import BCNError, ChamberViolation, InvalidInput, SeparationViolation
from .hamiltonians import BRACKET_DRAW, involution_report
from .limits import LimitParams, limit_convergence
from .model import make_params, require_point, separation_gap
from .reconstruction import assemble_stack, constraint_report, constraint_residuals
from .sampling import random_admissible_points

_VALIDATION_ERRORS = (InvalidInput, ChamberViolation, SeparationViolation)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InvalidInput(f"could not parse vector {text!r}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write output file {output!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=lambda o: o.tolist()) + "\n"


def _kv_csv(payload: dict) -> str:
    flat = {}
    for key, val in payload.items():
        if isinstance(val, dict):       # one `key.name` row per entry
            flat.update({f"{key}.{name}": v for name, v in val.items()})
        else:
            flat[key] = val
    lines = ["key,value"]
    for key, val in sorted(flat.items()):
        if isinstance(val, (list, tuple, np.ndarray)):
            val = ";".join(_fmt(float(v)) for v in np.ravel(np.asarray(val)))
        elif isinstance(val, float):
            val = _fmt(val)
        lines.append(f"{key},{val}")
    return "\n".join(lines) + "\n"


def _report_text(payload: dict, fmt: str) -> str:
    return _kv_csv(payload) if fmt == "csv" else _json_text(payload)


def cmd_verify(args) -> int:
    params = make_params(args.alpha, args.x, args.y, args.n)
    q, p = random_admissible_points(np.random.default_rng(args.seed), params, args.samples)
    rep = constraint_report({name: np.max(r) for name, r in
                             constraint_residuals(q, p, params).items()}, args.tol)
    payload = {
        "alpha": params.alpha, "x": params.x, "y": params.y, "n": params.n,
        "samples": args.samples, "seed": args.seed, "tol": args.tol,
        "max_residual": rep.max_residual, "worst_constraint": rep.worst()[0],
        "per_constraint_max": rep.residuals, "pass": rep.ok,
    }
    _emit(_report_text(payload, args.format), args.output)
    print(f"max residual {_fmt(rep.max_residual)} over {args.samples} samples "
          f"({'PASS' if payload['pass'] else 'FAIL'} at tol {args.tol:g})",
          file=sys.stderr)
    return 0 if payload["pass"] else 2


#: how far above the bound the gate's refusal reaches: far above the 2 eps by
#: which the assembly's and the kernel's float forms of the pair test can miss
#: the bound, so that they accept every start the gate passes (a seeded property
#: in tests/test_cli.py, TestStartGate), and far below any gap meant to clear it
_ROUNDING = 2.0 ** -44


def _initial_point(args, params):
    """The start point (q, p), with its group element g when --q/--p give
    it (by the point rule, then q_i > q_{i+1} + separation_gap(c^2) +
    `_ROUNDING` for each adjacent pair, the gap ln(1/alpha)), else None.
    The gate's error names the closest pair, its gap and the bound; an
    error of the start's assembly (an underflow far out) stands."""
    if args.q is not None or args.p is not None:
        if args.q is None or args.p is None:
            raise InvalidInput("--q and --p must be given together")
        q, p = _parse_vector(args.q), _parse_vector(args.p)
        if q.size != params.n or p.size != params.n:
            raise InvalidInput(f"--q/--p must have n={params.n} entries")
        q, p = require_point(q, p)
        bound = separation_gap(params.coupling_sq)
        near = np.flatnonzero(q[:-1] <= q[1:] + (bound + _ROUNDING))
        if near.size:           # each such gap is at most the band's top: no overflow
            gaps = q[near] - q[near + 1]
            i = near[np.argmin(gaps)]
            raise SeparationViolation(f"separation condition: q_{i + 1} - q_{i + 2} = "
                                      f"{gaps.min():.3g} must exceed ln(1/alpha) = {bound:.3g}")
        return q, p, assemble_stack(q, p, params)[0].g
    q, p = random_admissible_points(np.random.default_rng(args.seed), params, 1)
    return q[0], p[0], None


def cmd_simulate(args) -> int:
    params = make_params(args.alpha, args.x, args.y, args.n)
    q, p, g0 = _initial_point(args, params)
    n_steps = step_count(args.t_max, args.dt)
    stride = max(1, n_steps // args.sample_count)

    reduced = exact = None
    if args.method in ("reduced", "both"):
        reduced = integrate_reduced(q, p, params, args.t_max, args.dt,
                                    method=args.integrator, sample_every=stride)
        if reduced.chamber_approach:
            print("warning: chamber-wall approach, trajectory truncated", file=sys.stderr)
    if args.method in ("exact", "both"):
        if g0 is None:
            g0 = assemble_stack(q, p, params)[0].g
        if reduced is not None:
            times = reduced.times
        else:
            step, counts = sample_times(args.t_max, args.dt, stride)
            times = counts * step
        exact = project_flow(g0, params, times)

    primary = reduced if reduced is not None else exact
    if args.output:
        _emit(trajectory_csv_text(primary), args.output)
        if args.method == "both":
            base, ext = os.path.splitext(args.output)
            try:
                _emit(trajectory_csv_text(exact), base + ".exact" + ext)
            except InvalidInput:        # a failed run leaves no file it wrote
                os.remove(args.output)
                raise
    elif args.method != "both":
        sys.stdout.write(trajectory_csv_text(primary))

    if args.method == "both":
        dev = compare_trajectories(reduced, exact)
        payload = {**vars(dev), "tol": args.tol,
                   "pass": dev.q_dev < args.tol and dev.p_dev < args.tol}
        sys.stdout.write(_json_text(payload))
        return 0 if payload["pass"] else 2
    return 0


def cmd_involution(args) -> int:
    params = make_params(args.alpha, args.x, args.y, args.n)
    q, p = random_admissible_points(np.random.default_rng(args.seed), params,
                                    args.points, **BRACKET_DRAW)
    rep = involution_report(params, q, p, max_order=args.max_order)
    payload = {**vars(rep), "alpha": params.alpha, "x": params.x, "y": params.y,
               "n": params.n, "points": args.points, "seed": args.seed,
               "tol": args.tol, "pass": rep.max_abs < args.tol}
    _emit(_report_text(payload, args.format), args.output)
    return 0 if payload["pass"] else 2


def cmd_limit(args) -> int:
    lp = LimitParams(xi=args.xi, eta=args.eta, zeta=args.zeta)
    rng = np.random.default_rng(args.seed)
    if args.q is not None:
        q = _parse_vector(args.q)
    else:
        gaps = rng.uniform(0.55, 1.0, size=args.n - 1)
        q = rng.uniform(-0.4, 1.2) - np.concatenate([[0.0], np.cumsum(gaps)])
    pi_vec = _parse_vector(args.pi) if args.pi is not None \
        else rng.uniform(-0.7, 0.7, size=args.n)
    if q.size != args.n or pi_vec.size != args.n:
        raise InvalidInput(f"--q/--pi must have n={args.n} entries")
    t_grid = _parse_vector(args.t_grid) if args.t_grid is not None else None
    rep = limit_convergence(q, pi_vec, lp, t_grid=t_grid)
    payload = {**vars(rep), "xi": lp.xi, "eta": lp.eta, "zeta": lp.zeta,
               "n": args.n, "q": q, "pi": pi_vec, "seed": args.seed}
    _emit(_report_text(payload, args.format), args.output)
    return 0 if rep.passes else 2


def _positive(kind, or_zero=False):
    """An argparse type: a `kind` value that must be positive and finite,
    or zero too with `or_zero` (a seed of numpy's generators)."""
    def value(text):
        number = kind(text)
        if not (0 < number < np.inf or or_zero and number == 0):
            raise argparse.ArgumentTypeError(
                f"must be {'non-negative' if or_zero else 'positive and finite'}, got {text}")
        return number
    value.__name__ = kind.__name__      # named in "invalid int value: ..."
    return value


def _add_model_flags(sp):
    sp.add_argument("--n", type=int, default=2, help="particle count")
    sp.add_argument("--alpha", type=float, default=0.5, help="deformation parameter")
    sp.add_argument("--x", type=float, default=1.0, help="right scale parameter")
    sp.add_argument("--y", type=float, default=1.0, help="left scale parameter")


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as InvalidInput (exit 1) instead of exiting 2,
    a subcommand's unknown arguments with that subcommand's usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInput(message)

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def _attach_vector_values(argv):
    """`--p -0.2,0.15` -> `--p=-0.2,0.15`; argparse reads such a value as a flag.
    A token is a value when its first comma field is a float (`-inf,0` is,
    `-h` is not)."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--q", "--p", "--pi", "--t-grid"):
            try:
                float(tok.split(",")[0])
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the four subcommands."""
    ap = _Parser(
        prog="bcn",
        description="Hyperbolic Ruijsenaars-type model: verification, "
                    "simulation, involution and limit workflows")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("verify", help="random-point constraint residual suite")
    _add_model_flags(sp)
    sp.add_argument("--samples", type=_positive(int), default=100)
    sp.add_argument("--tol", type=_positive(float), default=1e-10)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="trajectory CSV (reduced/exact/both)")
    _add_model_flags(sp)
    sp.add_argument("--q", default=None, help="comma-separated initial positions")
    sp.add_argument("--p", default=None, help="comma-separated initial momenta")
    sp.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--method", choices=("reduced", "exact", "both"),
                    default="reduced")
    sp.add_argument("--integrator", choices=("rk4", "rk45"), default="rk4")
    sp.add_argument("--sample-count", dest="sample_count", type=_positive(int), default=100)
    sp.add_argument("--tol", type=_positive(float), default=1e-6,
                    help="deviation tolerance for --method both")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("involution", help="Poisson-bracket matrix of the family")
    _add_model_flags(sp)
    sp.add_argument("--points", type=_positive(int), default=20)
    sp.add_argument("--max-order", dest="max_order", type=int, default=3)
    sp.add_argument("--tol", type=_positive(float), default=1e-5)
    sp.set_defaults(func=cmd_involution)

    sp = sub.add_parser("limit", help="cotangent-bundle limit convergence report")
    sp.add_argument("--n", type=_positive(int), default=2)
    sp.add_argument("--xi", type=float, default=0.3)
    sp.add_argument("--eta", type=float, default=-0.2)
    sp.add_argument("--zeta", type=float, default=0.4)
    sp.add_argument("--q", default=None, help="comma-separated positions")
    sp.add_argument("--pi", default=None, help="comma-separated momentum rates")
    sp.add_argument("--t-grid", dest="t_grid", default=None,
                    help="comma-separated scale grid")
    sp.set_defaults(func=cmd_limit)

    for name, sp in sub.choices.items():
        sp.add_argument("--seed", type=_positive(int, or_zero=True), default=0, help="RNG seed")
        sp.add_argument("--output", default=None, help="output file (default stdout)")
        if name != "simulate":      # simulate writes trajectory CSV only
            sp.add_argument("--format", choices=("json", "csv"), default="json",
                            help="report format")
        sp.add_argument("--config", default=None, help="JSON file with flag defaults")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on first use and shared by every later
    call in the process: parsing leaves it as it was (no default is a
    mutable object, --config is parsed again as tokens, and the usage
    takes its width when it is printed)."""
    return build_parser()


def _config_tokens(args) -> list:
    """`--flag=value` tokens for the keys of the --config JSON object that
    name a flag of the chosen subcommand."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:    # ValueError: bad JSON or encoding
        raise InvalidInput(f"cannot read config file {args.config!r}: {exc}") from None
    if not isinstance(cfg, dict):
        raise InvalidInput("config file must hold a JSON object")
    sub = cfg.pop("subcommand", None)
    if sub is not None and sub != args.subcommand:
        raise InvalidInput(f"config is for subcommand {sub!r}, got {args.subcommand!r}")
    # every flag has a default, so the parsed namespace names them all
    flags = set(vars(args)) - {"func", "subcommand", "config"}
    tokens = []
    for key, value in cfg.items():
        if key not in flags:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise InvalidInput(f"config value of {key!r} must be a string or a number")
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def main(argv=None) -> int:
    argv = _attach_vector_values(list(sys.argv[1:] if argv is None else argv))
    ap = _parser()
    try:
        args = ap.parse_args(argv)
        if args.config is not None:
            # config flags go first, so the command line's own flags win
            at = argv.index(args.subcommand) + 1
            args = ap.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BCNError, RuntimeWarning, FloatingPointError) as exc:
        # a numpy warning reaches here only when it is raised as an error
        # (python -W error::RuntimeWarning, or np.errstate(...="raise"))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
