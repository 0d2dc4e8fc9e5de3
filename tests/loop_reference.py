"""Loop references for the generated q-chart kernel and RK steps.

`loop_q_chart` is the q-chart kernel as a loop over the pairs, and
`loop_rk4_step`, `loop_ck_step` and `loop_integrate` the RK steps and the
stepping loop around it.  The package generates straight-line forms of
the same float operations in the same order; the tests compare the two
bit for bit.
"""

import math
import operator

import numpy as np

from bcn_ruijsenaars.dynamics import (FLOW_SIGN, FLOW_TIME_SCALE, RK45_ATOL, RK45_MIN_STEP,
                                      RK45_RTOL, WALL_MARGIN, sample_times)
from bcn_ruijsenaars.errors import ChamberViolation, NumericalFailure, SeparationViolation
from bcn_ruijsenaars.model import abc_from_params, separation_margin


def loop_q_chart(z, n: int, a2: float, b2: float, c2: float, scale: float = 1.0):
    """(H, field) of the three-constant form at one point.  z is the list
    q + p of 2n floats, and field the list

        [scale dH/dp_1 ... scale dH/dp_n, -scale dH/dq_1 ... -scale dH/dq_n]

    in z's order: at scale FLOW_SIGN * FLOW_TIME_SCALE, the reduced ODE's
    vector field, and at scale 1.0, the gradient with dH/dq negated (both
    exactly, as scale 2.0 and negation round nothing).

    Each pair i < k gives its factor f = 1 - c2 / (4 sinh^2(q_i - q_k))
    and dl = d log sqrt(f) / d q_i once; the (k, i) entry is -dl.  A pair
    whose sinh overflows has its float64 limit: factor 1, dl = 0.  Other
    overflows give the IEEE value (an overflowing e^{-2 q_i} is inf, cos
    and sin of an infinite p are NaN), so an overflowed RK stage fails at
    the next stage's q.  Raises NumericalFailure (non-finite q),
    ChamberViolation (unordered q) or SeparationViolation (f <= 0).
    """
    q = z[:n]
    # ordered q is finite when its ends are: a NaN fails the order test
    if not (all(map(operator.gt, q, q[1:])) and math.isfinite(q[0])
            and math.isfinite(q[-1])):
        q = np.array(q, dtype=float)
        if not np.isfinite(q).all():
            raise NumericalFailure(f"non-finite positions q = {q}")
        raise ChamberViolation(f"q must be strictly decreasing, got {q}")
    prod = [1.0] * n
    rowsum = [0.0] * n
    pairs = []
    for i in range(n - 1):
        qi = q[i]
        for k in range(i + 1, n):
            d = qi - q[k]
            try:
                sh, ch = math.sinh(d), math.cosh(d)
            except OverflowError:
                continue
            try:
                ratio = c2 / (4.0 * (sh * sh))
            except ZeroDivisionError:   # sinh^2 underflows: ratio inf
                ratio = math.inf
            fac = 1.0 - ratio
            if not fac > 0.0:
                raise SeparationViolation("non-positive interaction radicand")
            root = math.sqrt(fac)
            prod[i] *= root
            prod[k] *= root
            dl = ratio * (ch / sh) / fac
            rowsum[i] += dl
            rowsum[k] -= dl
            pairs.append((i, k, dl))
    h_u = h_cw = 0.0
    field, dh_dq, cw, cross = [], [], [], [0.0] * n
    for qi, pi, pr, rs in zip(q, z[n:], prod, rowsum):
        try:
            u = math.exp(-2.0 * qi)
        except OverflowError:
            u = math.inf
        radicand = 1.0 + (1.0 + b2) * u + b2 * (u * u)
        bracket = math.sqrt(radicand)
        try:
            cos_p, sin_p = math.cos(pi), math.sin(pi)
        except ValueError:          # p = +-inf
            cos_p = sin_p = math.nan
        cwi = cos_p * bracket * pr
        dlog_bracket = u * (-1.0 - b2 - 2.0 * b2 * u) / radicand
        dh_dq.append(-2.0 * a2 * u - cwi * (dlog_bracket + rs))
        field.append(scale * (sin_p * bracket * pr))
        cw.append(cwi)
        h_u += u
        h_cw += cwi
    # the cross term sum_i cw_i dlog[i, k], in the order of i
    for i, k, dl in pairs:
        cross[k] += cw[i] * dl
        cross[i] -= cw[k] * dl
    field.extend([-scale * (g + c) for g, c in zip(dh_dq, cross)])
    return a2 * h_u - h_cw, field


# Cash-Karp embedded 4(5) pair
_CK_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [3 / 10, -9 / 10, 6 / 5],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
]
_CK_B5 = [37 / 378, 0, 250 / 621, 125 / 594, 0, 512 / 1771]
_CK_B4 = [2825 / 27648, 0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4]


def loop_rk4_step(f, z, h):
    """One classical RK4 step on the float list z."""
    k1 = f(z)
    h2 = 0.5 * h
    k2 = f([a + h2 * b for a, b in zip(z, k1)])
    k3 = f([a + h2 * b for a, b in zip(z, k2)])
    k4 = f([a + h * b for a, b in zip(z, k3)])
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]


def loop_combine(z, h, weights, ks):
    """z + h * sum_s weights[s] * ks[s], summed stage by stage in order
    from 0.0, as `sum` adds floats.  A zero weight still multiplies its
    stage: 0 * inf is NaN, so an overflowed stage fails the trial step."""
    acc = [0.0 + weights[0] * k for k in ks[0]]
    for w, stage in zip(weights[1:], ks[1:]):
        acc = [s + w * k for s, k in zip(acc, stage)]
    return [a + h * s for a, s in zip(z, acc)]


def loop_ck_step(f, z, h):
    """One Cash-Karp trial step on the float list z: the fifth-order
    result and the fourth-order one."""
    ks = [f(z)]
    for row in _CK_A[1:]:
        ks.append(f(loop_combine(z, h, row, ks)))
    return loop_combine(z, h, _CK_B5, ks), loop_combine(z, h, _CK_B4, ks)


def loop_integrate(q0, p0, params, t_max, dt, method="rk4", sample_every=1):
    """The stepping loop of `integrate_reduced` on the loop steps: the
    sample times, the (T, 2n) sampled states and the approach flag."""
    n = len(q0)
    step, counts = sample_times(t_max, dt, sample_every)
    a2, b2, c2 = abc_from_params(params)

    def f(z):
        return loop_q_chart(z, n, a2, b2, c2, FLOW_SIGN * FLOW_TIME_SCALE)[1]

    def finite(z):
        if not all(map(math.isfinite, z)):
            raise NumericalFailure("reduced flow: non-finite state after a step")
        return z

    def rk4_steps(t, z, k0, k):
        for j in range(k0 + 1, k + 1):
            z = finite(loop_rk4_step(f, z, step))
            yield j * step, z

    h = dt

    def rk45_steps(t, z, k0, k):
        nonlocal h
        t_target = k * step
        while t < t_target:
            h = min(h, t_target - t)
            try:
                z5, z4 = loop_ck_step(f, z, h)
                err = max(abs(a - b) for a, b in zip(finite(z5), finite(z4)))
            except (ChamberViolation, SeparationViolation, NumericalFailure):
                err = math.inf
            scale = RK45_ATOL + RK45_RTOL * max(map(abs, z))
            if err <= scale:
                t += h
                z = z5
                yield t, z
            elif h < RK45_MIN_STEP:
                raise NumericalFailure(f"rk45: step {h:.3g} rejected at t = {t:.10g}")
            h *= min(5.0, max(0.2, 0.9 * (scale / max(err, 1e-300)) ** 0.2))

    steps = rk4_steps if method == "rk4" else rk45_steps
    t, z = 0.0, list(q0) + list(p0)
    kept = [(t, z)]
    approached = False
    for k0, k in zip(counts.tolist(), counts[1:].tolist()):
        for t, z in steps(t, z, k0, k):
            approached = separation_margin(z[:n], c2) < WALL_MARGIN
            if approached:
                break
        if approached:
            break
        kept.append((t, z))
    times, zs = zip(*kept)
    return np.array(times), np.array(zs), approached
