"""Slow, independent reference implementations used to pin down expected values.

Everything here trades speed for obviousness: exhaustive vertex enumeration
for linear programs and dense angle scans for best-fit problems and arc
measures.  Test modules import these to cross-check the fast
implementations.
"""

import itertools
import math

import numpy as np

from hellyfit.lp import (
    BOX_BOUND,
    EVAL_GUARD,
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LpInstance,
    LpResult,
    _Infeasible,
)

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


def _rescan_row_tols(A, b, x):
    return FEAS_TOL * np.maximum(1.0, np.abs(b)) + EVAL_GUARD * (np.abs(A) @ np.abs(x))


def _rescan_base_1d(A, b, ids, c):
    a = A[:, 0]
    pos = a > PIVOT_TOL
    neg = a < -PIVOT_TOL
    flat = ~(pos | neg)
    if np.any(b[flat] < -FEAS_TOL * np.maximum(1.0, np.abs(b[flat]))):
        raise _Infeasible
    hi, hi_id = BOX_BOUND, -1
    lo, lo_id = -BOX_BOUND, -1
    if np.any(pos):
        ub = b[pos] / a[pos]
        k = int(np.argmin(ub))
        if ub[k] < hi:
            hi, hi_id = float(ub[k]), int(ids[pos][k])
    if np.any(neg):
        lb = b[neg] / a[neg]
        k = int(np.argmax(lb))
        if lb[k] > lo:
            lo, lo_id = float(lb[k]), int(ids[neg][k])
    if lo > hi + FEAS_TOL * max(1.0, abs(lo), abs(hi)):
        # crossed bounds fail only if neither bound meets every row and the
        # box within the row's own tolerance; else both take the first that does
        tol = FEAS_TOL * np.maximum(1.0, np.abs(b))

        def meets(x):
            return bool(np.all(a * x - b <= tol)) and (
                abs(x) - BOX_BOUND <= FEAS_TOL * BOX_BOUND)

        if meets(hi):
            lo, lo_id = hi, hi_id
        elif meets(lo):
            hi, hi_id = lo, lo_id
        else:
            raise _Infeasible
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)
    if c[0] > PIVOT_TOL:
        x, chain = hi, [hi_id]
    elif c[0] < -PIVOT_TOL:
        x, chain = lo, [lo_id]
    else:
        x, chain = min(max(0.0, lo), hi), []
    return np.array([x]), [i for i in chain if i >= 0]


def _rescan_eliminate(A, b, ids, c, rng, ridx, prefix):
    d = c.shape[0]
    row, rb = A[ridx], b[ridx]
    j = int(np.argmax(np.abs(row)))
    pv = row[j]
    coef = row / pv
    rhs = rb / pv
    if d == 1:
        x = np.array([rhs])
        return x, ([int(ids[ridx])] if ids[ridx] >= 0 else [])
    keep = np.arange(d) != j
    Ap, bp, idp = A[prefix], b[prefix], ids[prefix]
    Ared = np.vstack([
        Ap[:, keep] - np.outer(Ap[:, j], coef[keep]),
        -coef[None, keep],
        coef[None, keep],
    ])
    bred = np.concatenate([bp - Ap[:, j] * rhs, [BOX_BOUND - rhs, BOX_BOUND + rhs]])
    idred = np.concatenate([idp, [-1, -1]]).astype(int)
    cred = c[keep] - c[j] * coef[keep]
    xsub, subchain = _rescan_solve(Ared, bred, idred, cred, rng)
    x = np.empty(d)
    x[keep] = xsub
    x[j] = rhs - coef[keep] @ xsub
    return x, ([int(ids[ridx])] if ids[ridx] >= 0 else []) + subchain


def _rescan_solve(A, b, ids, c, rng):
    d = c.shape[0]
    if d == 1:
        return _rescan_base_1d(A, b, ids, c)
    n = A.shape[0]
    x = np.where(c > PIVOT_TOL, BOX_BOUND, np.where(c < -PIVOT_TOL, -BOX_BOUND, 0.0))
    chain = []
    order = rng.permutation(n) if n else np.empty(0, dtype=int)
    pos = 0
    while pos < n:
        sel = order[pos:]
        slack = A[sel] @ x - b[sel] - _rescan_row_tols(A[sel], b[sel], x)
        bad = np.nonzero(slack > 0)[0]
        if bad.size == 0:
            break
        at = pos + int(bad[0])
        ridx = int(order[at])
        if abs(A[ridx, int(np.argmax(np.abs(A[ridx])))]) < PIVOT_TOL:
            if b[ridx] < -FEAS_TOL * max(1.0, abs(b[ridx])):
                raise _Infeasible
            pos = at + 1
            continue
        x, chain = _rescan_eliminate(A, b, ids, c, rng, ridx, order[:at])
        pos = at + 1
    return x, chain


def rescan_seidel_lp(instance, seed=0):
    """`seidel_lp` with the plain scan: every remaining row re-scored per violation.

    After each violated row the scan gathers and scores all rows after it
    again, Theta(d n log n) rows per recursion level, in numpy arrays.
    Everything else is written out plainly here (elimination, one-variable
    base case, row tolerances, polish) with `seidel_lp`'s constants and
    random stream, so the two must agree on status and value.  The scan's
    row tests round in Python floats and these in numpy, so a witness may
    differ in its last bits.
    """
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.max(np.abs(instance.bounds))) if len(instance.bounds) else 1.0)
    A = instance.rows
    b = instance.bounds / scale
    c = instance.objective
    ids = np.arange(A.shape[0], dtype=int)
    try:
        x, chain = _rescan_solve(A, b, ids, c, rng)
        for _ in range(4):
            if A.shape[0] == 0 or np.max(np.abs(x)) >= 0.999 * BOX_BOUND:
                break
            resid = A @ x - b - _rescan_row_tols(A, b, x)
            worst = int(np.argmax(resid))
            if resid[worst] <= 0:
                break
            if abs(A[worst, int(np.argmax(np.abs(A[worst])))]) < PIVOT_TOL:
                if b[worst] < -FEAS_TOL * max(1.0, abs(b[worst])):
                    raise _Infeasible
                break
            prefix = np.delete(np.arange(A.shape[0]), worst)
            x, chain = _rescan_eliminate(A, b, ids, c, rng, worst, prefix)
    except _Infeasible:
        return LpResult(INFEASIBLE, -math.inf, None, ())
    witness = x * scale
    if np.max(np.abs(x)) >= (1.0 - 1e-6) * BOX_BOUND:
        return LpResult(UNBOUNDED, math.inf, witness, ())
    tight = tuple(dict.fromkeys(i for i in chain if i >= 0))
    return LpResult(OPTIMAL, float(instance.objective @ witness), witness, tight)


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


def full_sweep(K, net, P, seed):
    """One fit LP per net rotation, each with the seed the solver gives it.

    This is the sweep before dual pruning: no rotation is skipped.
    """
    from hellyfit.lp import beta_fixed_rotation
    from hellyfit.solver import _rotation_seed

    return [beta_fixed_rotation(K, A, P, seed=_rotation_seed(seed, i))
            for i, A in enumerate(net.rotations)]


def full_sweep_fit(K, net, P, seed):
    """(beta, rotation index, placement) of `full_sweep`.

    The winner is the lowest index within TIE_TOL of the best value; beta
    is the winner's value and its placement goes through
    `canonical_placement`, as `beta_direct`'s does.
    """
    from hellyfit.lp import canonical_placement
    from hellyfit.solver import TIE_TOL

    results = full_sweep(K, net, P, seed)
    values = [r.value for r in results]
    best = max(values)
    if math.isinf(best):
        return best, values.index(best), None
    i = next(k for k, v in enumerate(values)
             if v >= best - TIE_TOL * max(1.0, abs(best)))
    if results[i].status != OPTIMAL:
        return 0.0, i, None
    placement, _ = canonical_placement(K, results[i].placement, P)
    return results[i].value, i, placement


def beta_angle_scan(K, P, angles, seed=0):
    """Best scale over an explicit list of rotation angles (2-d only)."""
    from hellyfit.geometry import Rotation
    from hellyfit.lp import beta_fixed_rotation

    best = -math.inf
    best_theta = None
    for theta in angles:
        r = beta_fixed_rotation(K, Rotation.from_angle(theta), P, seed=seed)
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


def arc_cap_overlap_grid(arcs, cap, cells):
    """Arc length of `arcs` inside a planar `cap`, counted on an angle grid.

    Each of `cells` equal cells of the circle counts 2*pi/cells when its
    midpoint angle lies on an arc (taken modulo 2*pi) and its direction u
    has <u, cap.direction> >= -cap.slack.  Uses neither the cap's interval
    nor any shift bookkeeping, so it is independent of
    `CircleArcs.cap_overlap`.  An overlap made of k intervals is counted to
    within k cells.
    """
    step = 2.0 * math.pi / cells
    theta = (np.arange(cells) + 0.5) * step
    on_arc = np.zeros(cells, dtype=bool)
    for a, b in arcs.arcs:
        on_arc |= np.mod(theta - a, 2.0 * math.pi) <= b - a
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    in_cap = u @ cap.direction >= -cap.slack
    return float(np.count_nonzero(on_arc & in_cap)) * step


GRID_BISECT_TOL = 1e-9   # width to which the grid scan bisects a proper failure
GRID_REFINE_ROUNDS = 3   # parabola rounds, each moving at most one grid cell
GRID_REFINE_STEP = 1e-4  # half-width of the parabola refine's 3-point stencil


def _grid_margin(K, epsilon):
    """theta -> K's scale inside its own hull at R_theta, less 1 - epsilon."""
    from hellyfit.geometry import Rotation
    from hellyfit.lp import beta_fixed_rotation

    PK = K.hull_halfspaces()

    def margin(theta):
        res = beta_fixed_rotation(K, Rotation.from_angle(theta), PK)
        return res.value - (1.0 - epsilon) if res.ok else -1.0

    return margin


def _plain_bisect(margin, lo, hi):
    """Halve [lo, hi] down to GRID_BISECT_TOL; lo is clean, hi is not.  Returns hi."""
    from hellyfit.nets import TOUCH_TOL

    while hi - lo > GRID_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if margin(mid) > TOUCH_TOL:
            lo = mid
        else:
            hi = mid
    return hi


def _parabola_refine(margin, center, max_step):
    """A smooth local minimum near `center` from repeated 3-point parabola fits,
    each step clipped at `max_step`, the grid cell."""
    h = GRID_REFINE_STEP
    v = center
    for _ in range(GRID_REFINE_ROUNDS):
        m_l, m_c, m_r = margin(v - h), margin(v), margin(v + h)
        denom = m_l - 2.0 * m_c + m_r
        if denom <= 0.0:
            break
        v += float(np.clip(0.5 * h * (m_l - m_r) / denom, -max_step, max_step))
    return v, margin(v)


def _grid_first_stop(margin, sign, tol):
    """Plain scan of one direction: solves the margin at every grid point."""
    from hellyfit.nets import FAIL_TOL, TOUCH_TOL

    n_steps = int(math.ceil(math.pi / tol))
    thetas = [k * tol for k in range(1, n_steps)] + [math.pi]
    prev_t = 0.0
    window = [(0.0, margin(0.0))]  # trailing (theta, margin) for local minima
    for t in thetas:
        m = margin(sign * t)
        if m <= TOUCH_TOL:
            if m < -FAIL_TOL:
                return _plain_bisect(lambda x: margin(sign * x), prev_t, t)
            v, mv = _parabola_refine(lambda x: margin(sign * x), t, max_step=tol)
            return max(0.0, v)
        window.append((t, m))
        if len(window) == 3:
            (t0, m0), (t1, m1), (t2, m2) = window
            if m1 <= m0 and m1 <= m2:
                v, mv = _parabola_refine(lambda x: margin(sign * x), t1, max_step=tol)
                if mv <= TOUCH_TOL:
                    if mv < -FAIL_TOL:
                        return _plain_bisect(lambda x: margin(sign * x), t0, v)
                    return max(0.0, v)
            window.pop(0)
        prev_t = t
    return math.pi


def grid_scan_max_angle(K, epsilon, tol=1e-3):
    """Slack angle of K from one scale LP per grid point, no skipping.

    The sampled form of `nets.max_angle_2d`: it solves the scale LP
    (`beta_fixed_rotation`) at every grid point k*tol in both directions
    until the first stop.  A grid point at most TOUCH_TOL above 1 - eps,
    or a grid local minimum that a parabola refine takes there, stops it;
    a proper failure is bisected to GRID_BISECT_TOL.  A dip narrower than a
    cell that is not a local minimum of three grid points goes unseen.
    About pi/tol LPs per direction for a body with full slack, so tests
    keep it to bodies that stop early.
    """
    from hellyfit.nets import TOUCH_TOL

    margin = _grid_margin(K, epsilon)
    if margin(0.0) <= TOUCH_TOL:
        return 0.0
    a_pos = _grid_first_stop(margin, +1.0, tol)
    a_neg = _grid_first_stop(margin, -1.0, tol)
    return min(a_pos, a_neg, math.pi)


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def dual_rays_2d(U):
    """Every extreme ray of {lambda >= 0 : sum lambda_i u_i = 0} for unit rows U.

    Returns (rows, weights): the antipodal pairs with weights (1, 1), and
    the triples whose normals hold the origin strictly inside their hull,
    with the cross-product weights, which are then all positive.
    """
    m = len(U)
    rows, weights = [], []
    for i, j in itertools.combinations(range(m), 2):
        if np.linalg.norm(U[i] + U[j]) <= 1e-12:
            rows.append((i, j, j))
            weights.append((1.0, 1.0, 0.0))
    for i, j, k in itertools.combinations(range(m), 3):
        w = np.array([_cross(U[j], U[k]), _cross(U[k], U[i]), _cross(U[i], U[j])])
        w = w if w.sum() > 0 else -w
        if w.min() > 1e-12 * w.max():
            rows.append((i, j, k))
            weights.append(tuple(w))
    return np.array(rows), np.array(weights)


def _envelope_first_stop(V, U, b, target, sign):
    """First stop in direction `sign` of the lower envelope of the rays' bounds."""
    from hellyfit.nets import FAIL_TOL, TOUCH_TOL

    hi, lo = target + TOUCH_TOL, target - FAIL_TOL
    rows, lam = dual_rays_2d(U)
    top = (lam * b[rows]).sum(axis=1)                  # b . lambda, one per ray
    C = U @ V.T                                         # <u_i, R_x v_k> = C cos x + S sin x
    S = sign * (U @ np.stack([-V[:, 1], V[:, 0]], axis=1).T)
    normal = np.arctan2(U[:, 1], U[:, 0])
    # x where R_{sign x} turns some u_i onto an edge normal: h_i switches vertex
    cuts = np.mod(sign * (normal[:, None] - normal[None, :]), 2.0 * math.pi).ravel()
    cuts = np.unique(np.concatenate([[0.0, math.pi], cuts[cuts < math.pi]]))

    def beta(x):
        h = (C * math.cos(x) + S * math.sin(x)).max(axis=1)
        return float((top / (lam * h[rows]).sum(axis=1)).min())

    cross = None
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (x0 + x1)
        k = np.argmax(C * math.cos(mid) + S * math.sin(mid), axis=1)
        A = (lam * C[rows, k[rows]]).sum(axis=1)        # h(x) . lambda = A cos x + B sin x
        B = (lam * S[rows, k[rows]]).sum(axis=1)
        R = np.hypot(A, B)
        psi = mid + np.remainder(np.arctan2(B, A) - mid + math.pi, 2.0 * math.pi) - math.pi
        if cross is None:
            reach = top / (hi * R)
            ok = reach <= 1.0
            gap = np.arccos(np.minimum(reach, 1.0))
            first = np.maximum(x0, psi - gap)
            ok &= first <= np.minimum(x1, psi + gap)
            if ok.any():
                cross = float(first[ok].min())
        if cross is not None:
            for i in np.argsort(psi):
                p = float(psi[i])
                if max(x0, cross) <= p <= x1 and top[i] / R[i] <= beta(p) * (1.0 + 1e-12):
                    return p if beta(p) >= lo else cross
    if cross is None:
        return math.pi
    return math.pi if beta(math.pi) >= lo else cross


def envelope_slack_angle(K, epsilon):
    """`nets.max_angle_2d` from every extreme ray of the scale LP's dual cone.

    The fit of R_theta K in K is the LP max s subject to <u_i, a> + s h_i(theta)
    <= b_i over K's hull rows, with h_i(theta) = max_j <u_i, R_theta v_j>.  Its
    dual cone {lambda >= 0 : sum lambda_i u_i = 0} does not depend on theta, so
    beta(theta) is the least (b . lambda) / (h(theta) . lambda) over its extreme
    rays (`dual_rays_2d`).  Between the angles where some h_i switches vertex,
    every ray's denominator is A cos + B sin, so each ray's crossing of
    1 - eps + TOUCH_TOL is an acos and its minimum an atan2.  The stop rule is
    `max_angle_2d`'s, in each direction: the first crossing, unless the dip's
    minimum (the first stationary point of an active ray after it) stays at or
    above 1 - eps - FAIL_TOL, in which case that minimum.  Slow in the ray
    count, which is cubic in K's vertices.
    """
    from hellyfit.geometry import VPolytope, convex_hull_2d
    from hellyfit.nets import TOUCH_TOL

    if epsilon <= TOUCH_TOL:
        return 0.0
    V = K.vertices[convex_hull_2d(K.vertices)]
    V = V - V.mean(axis=0)
    PK = VPolytope(V).hull_halfspaces()
    U, b = PK.normals, PK.offsets
    stops = [_envelope_first_stop(V, U, b, 1.0 - epsilon, sign) for sign in (1.0, -1.0)]
    return min(stops + [math.pi])


def pairwise_clip_to_box(P, lo, hi, tol=1e-9):
    """P intersected with the box [lo, hi]^2 by enumerating vertices.

    Intersects every pair of rows (P's and the box's), keeps the points that
    satisfy every row within `tol` relative, and returns their hull in
    counterclockwise order, or an empty (0, 2) array when fewer than three
    such points span an area.  Cubic in the number of rows.
    """
    from hellyfit.geometry import DegenerateGeometryError, convex_hull_2d

    box_normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    box_offsets = np.array([hi[0], -lo[0], hi[1], -lo[1]])
    A = np.vstack([P.normals, box_normals])
    b = np.concatenate([P.offsets, box_offsets])
    pts = []
    for i, j in itertools.combinations(range(len(b)), 2):
        M = np.stack([A[i], A[j]])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, np.array([b[i], b[j]]))
        if np.all(A @ v <= b + tol * (1.0 + np.abs(b))):
            pts.append(v)
    if len(pts) < 3:
        return np.zeros((0, 2))
    pts = np.asarray(pts)
    try:
        return pts[convex_hull_2d(pts)]
    except DegenerateGeometryError:
        return np.zeros((0, 2))
