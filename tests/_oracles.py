"""Slow, independent reference implementations used to pin down expected values.

Everything here trades speed for obviousness: exhaustive vertex enumeration
for linear programs and dense angle scans for best-fit problems.  Test
modules import these to cross-check the fast implementations.
"""

import itertools
import math

import numpy as np

from hellyfit.lp import BOX_BOUND, INFEASIBLE, OPTIMAL, UNBOUNDED, LpInstance

ORACLE_FEAS_TOL = 1e-9


def lp_vertex_oracle(instance):
    """Solve max <c, x> s.t. rows @ x <= bounds by enumerating vertices.

    Mirrors the production solver's implicit box (in offset-normalized
    units) so unbounded problems are classified identically.  Returns
    (status, value) with value in original units.
    """
    A0 = instance.rows
    c = instance.objective
    d = instance.dim_vars
    scale = max(1.0, float(np.max(np.abs(instance.bounds))) if len(instance.bounds) else 1.0)
    b0 = instance.bounds / scale
    box_rows = np.vstack([np.eye(d), -np.eye(d)])
    box_b = np.full(2 * d, BOX_BOUND)
    A = np.vstack([A0, box_rows]) if A0.size else box_rows
    b = np.concatenate([b0, box_b])
    n = A.shape[0]
    best_val = -math.inf
    best_x = None
    for idx in itertools.combinations(range(n), d):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(idx)])
        tol = ORACLE_FEAS_TOL * np.maximum(1.0, np.abs(b)) + 1e-12 * (np.abs(A) @ np.abs(x))
        if np.all(A @ x <= b + tol):
            val = float(c @ x)
            if val > best_val:
                best_val, best_x = val, x
    if best_x is None:
        return INFEASIBLE, -math.inf
    if np.max(np.abs(best_x)) >= (1.0 - 1e-6) * BOX_BOUND:
        return UNBOUNDED, math.inf
    return OPTIMAL, scale * best_val


def vertex_beta_instance(K, rotation, P):
    """The fixed-rotation scale LP in its n*m vertex rows.

    Row (i, j) is <u_i, a> + alpha * <u_i, A v_j> <= b_i, one per half-space
    i and vertex j, ordered half-space major, so row r belongs to half-space
    r // m.  There is no sign row on alpha.
    """
    U, off = P.normals, P.offsets
    W = K.vertices @ rotation.matrix.T
    n, m, d = U.shape[0], W.shape[0], U.shape[1]
    rows = np.empty((n * m, d + 1))
    rows[:, :d] = np.repeat(U, m, axis=0)
    rows[:, d] = (U @ W.T).reshape(-1)
    return LpInstance.maximize_last(rows, np.repeat(off, m))


def highs_scale(K, rotation, P):
    """Fixed-rotation scale from scipy's HiGHS: a float, math.inf, or None if P is empty."""
    from scipy.optimize import linprog

    U, b = P.normals, P.offsets
    h = (U @ (K.vertices @ rotation.matrix.T).T).max(axis=1)
    d = U.shape[1]
    c = np.zeros(d + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([U, h[:, None]]), b_ub=b,
                  bounds=[(None, None)] * d + [(0.0, None)], method="highs")
    if res.status == 0:
        return float(-res.fun)
    if res.status == 3:
        return math.inf
    if res.status == 2:
        return None
    raise RuntimeError(f"HiGHS failed: {res.message}")


def beta_angle_scan(K, P, angles, seed=0):
    """Best scale over an explicit list of rotation angles (2-d only)."""
    from hellyfit.geometry import Rotation
    from hellyfit.lp import beta_fixed_rotation

    best = -math.inf
    best_theta = None
    for theta in angles:
        r = beta_fixed_rotation(K, Rotation.from_angle(theta), P, seed=seed,
                                canonical=False)
        v = r.value if r.status == OPTIMAL else (math.inf if r.status == UNBOUNDED else 0.0)
        if v > best:
            best, best_theta = v, theta
    return best, best_theta


def square_fit_scale(theta):
    """Exact best scale of a theta-rotated unit square inside the unit square."""
    return 1.0 / (abs(math.cos(theta)) + abs(math.sin(theta)))


def triangle_fit_scale(theta):
    """Exact best scale of a rotated equilateral triangle inside itself.

    The triangle has vertices at circumradius 1 and the formula is periodic
    with period 2*pi/3 and symmetric about 0.
    """
    t = abs(math.remainder(theta, 2.0 * math.pi / 3.0))
    return 1.0 / (2.0 * math.cos(math.pi / 3.0 - t))
