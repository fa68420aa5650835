"""Randomized incremental linear programming in a handful of variables.

`seidel_lp` maximizes a linear objective subject to inequality rows, with the
classic randomized incremental scheme: process constraints in random order,
and when one is violated, eliminate a variable on its boundary and re-solve
the prefix one dimension down.  Expected work is linear in the number of
rows for fixed dimension.

The solver works inside a large implicit box, which is how unboundedness is
reported rather than crashed on: an optimum pinned to the box wall means the
true problem escapes to infinity at the scale of the data.  Degenerate ties
never loop (the recursion only ever shrinks), they are broken by fixed rules,
and the scale-fitting layer canonicalizes witnesses afterwards so equal
optima always report the same placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    HPolytope,
    Placement,
    Rotation,
    UnsupportedDimensionError,
    VPolytope,
)

MAX_DIM = 8            # fixed small dimension regime
BOX_BOUND = 1e7        # implicit |x_j| <= BOX_BOUND, in offset-normalized units
FEAS_TOL = 1e-9        # feasibility tolerance on normalized constraints
PIVOT_TOL = 1e-11      # below this a coefficient row counts as zero
EVAL_GUARD = 1e-13     # relative guard so fp noise never looks like a violation
FIT_TOL = 1e-9         # slack used by fit_check
CANON_SLACK = 1e-11    # pinning slack while canonicalizing witnesses

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class InfeasibleProblem(RuntimeError):
    """Raised by `LpResult.require_optimal` on an infeasible program."""


class UnboundedProblem(RuntimeError):
    """Raised by `LpResult.require_optimal` on an unbounded program."""


class _Infeasible(Exception):
    pass


@dataclass(eq=False)
class LpInstance:
    """maximize <objective, x> subject to rows @ x <= bounds."""

    rows: np.ndarray
    bounds: np.ndarray
    objective: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.rows, dtype=float)
        if A.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        b = np.asarray(self.bounds, dtype=float).reshape(-1)
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise ValueError("rows and bounds disagree on row count")
        if A.shape[1] != c.shape[0]:
            raise ValueError("rows and objective disagree on variable count")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("non-finite LP data")
        self.rows = A
        self.bounds = b
        self.objective = c

    @property
    def dim_vars(self):
        return self.rows.shape[1]

    @classmethod
    def maximize_last(cls, rows, bounds):
        rows = np.asarray(rows, dtype=float)
        c = np.zeros(rows.shape[1])
        c[-1] = 1.0
        return cls(rows, bounds, c)


@dataclass(eq=False)
class LpResult:
    status: str
    value: float
    witness: np.ndarray | None
    tight_set: tuple

    def require_optimal(self):
        if self.status == INFEASIBLE:
            raise InfeasibleProblem("linear program is infeasible")
        if self.status == UNBOUNDED:
            raise UnboundedProblem("linear program is unbounded")
        return self


def _row_tols(A, b, x):
    return FEAS_TOL * np.maximum(1.0, np.abs(b)) + EVAL_GUARD * (np.abs(A) @ np.abs(x))


def _base_1d(A, b, ids, c):
    """Solve the one-variable program over [-BOX, BOX]."""
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
        raise _Infeasible
    if lo > hi:  # inverted by a rounding hair; collapse
        lo = hi = 0.5 * (lo + hi)
    if c[0] > 0:
        x, chain = hi, [hi_id]
    elif c[0] < 0:
        x, chain = lo, [lo_id]
    else:
        x, chain = min(max(0.0, lo), hi), []
    return np.array([x]), [i for i in chain if i >= 0]


def _eliminate(A, b, ids, c, rng, ridx, prefix):
    """Pin row `ridx` to equality, drop one variable, solve the prefix rows.

    Returns the lifted solution and its pinning chain.  Raises _Infeasible
    when the prefix has no point on the pinned boundary, which by the usual
    incremental argument means the prefix plus the row is empty.
    """
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
    xsub, subchain = _solve(Ared, bred, idred, cred, rng)
    x = np.empty(d)
    x[keep] = xsub
    x[j] = rhs - coef[keep] @ xsub
    return x, ([int(ids[ridx])] if ids[ridx] >= 0 else []) + subchain


def _solve(A, b, ids, c, rng):
    d = c.shape[0]
    if d == 1:
        return _base_1d(A, b, ids, c)
    n = A.shape[0]
    x = np.where(c > 0, BOX_BOUND, np.where(c < 0, -BOX_BOUND, 0.0))
    chain = []
    order = rng.permutation(n) if n else np.empty(0, dtype=int)
    pos = 0
    while pos < n:
        sel = order[pos:]
        slack = A[sel] @ x - b[sel] - _row_tols(A[sel], b[sel], x)
        bad = np.nonzero(slack > 0)[0]
        if bad.size == 0:
            break
        at = pos + int(bad[0])
        ridx = int(order[at])
        if abs(A[ridx, int(np.argmax(np.abs(A[ridx])))]) < PIVOT_TOL:
            # all coefficients vanish: 0 <= b must hold or nothing does
            if b[ridx] < -FEAS_TOL * max(1.0, abs(b[ridx])):
                raise _Infeasible
            pos = at + 1
            continue
        x, chain = _eliminate(A, b, ids, c, rng, ridx, order[:at])
        pos = at + 1
    return x, chain


def seidel_lp(instance: LpInstance, seed=0):
    """Solve a small-dimensional LP; see the module docstring for the scheme.

    The value and status are independent of `seed`; the witness is one
    optimal point (canonical tie-breaking happens a layer up, where the
    geometry lives).
    """
    d = instance.dim_vars
    if d > MAX_DIM:
        raise UnsupportedDimensionError(f"seidel_lp handles at most {MAX_DIM} variables, got {d}")
    if d == 0:
        raise ValueError("LP needs at least one variable")
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.max(np.abs(instance.bounds))) if len(instance.bounds) else 1.0)
    A = instance.rows
    b = instance.bounds / scale
    c = instance.objective
    ids = np.arange(A.shape[0], dtype=int)
    try:
        x, chain = _solve(A, b, ids, c, rng)
        # polish: a violation that slipped past the guards at huge
        # intermediate coordinates is repaired by pinning that row
        for _ in range(4):
            if A.shape[0] == 0 or np.max(np.abs(x)) >= 0.999 * BOX_BOUND:
                break
            resid = A @ x - b - _row_tols(A, b, x)
            worst = int(np.argmax(resid))
            if resid[worst] <= 0:
                break
            if abs(A[worst, int(np.argmax(np.abs(A[worst])))]) < PIVOT_TOL:
                if b[worst] < -FEAS_TOL * max(1.0, abs(b[worst])):
                    raise _Infeasible
                break
            prefix = np.delete(np.arange(A.shape[0]), worst)
            x, chain = _eliminate(A, b, ids, c, rng, worst, prefix)
    except _Infeasible:
        return LpResult(INFEASIBLE, -math.inf, None, ())
    witness = x * scale
    if np.max(np.abs(x)) >= (1.0 - 1e-6) * BOX_BOUND:
        return LpResult(UNBOUNDED, math.inf, witness, ())
    tight = tuple(dict.fromkeys(i for i in chain if i >= 0))
    return LpResult(OPTIMAL, float(instance.objective @ witness), witness, tight)


# ---------------------------------------------------------------------------
# scale fitting at a fixed rotation


@dataclass(eq=False)
class BetaResult:
    """Outcome of maximizing the scale of a placed copy at one rotation."""

    value: float
    placement: Placement | None
    status: str
    tight_rows: tuple   # indices of half-spaces of P that pin the optimum

    @property
    def ok(self):
        return self.status == OPTIMAL


def support_values(K: VPolytope, rotation: Rotation, normals) -> np.ndarray:
    """h_AK(u_i) = max_j <u_i, A v_j> for every row u_i of `normals`."""
    W = K.vertices @ rotation.matrix.T
    return np.max(normals @ W.T, axis=1)


def build_beta_instance(K: VPolytope, rotation: Rotation, P: HPolytope) -> LpInstance:
    """LP over (a, alpha): maximize alpha with a + alpha*A*K inside P.

    The constraint matrix has exactly len(P) + 1 rows.  Row i is
    <u_i, a> + alpha * h_AK(u_i) <= b_i with h_AK(u) = max_j <u, A v_j>, and
    the last row is -alpha <= 0.  For alpha >= 0 row i holds exactly when
    every vertex image a + alpha*A*v_j obeys half-space i, and the copy is
    the convex hull of those images; the sign row also makes an empty P
    infeasible outright.
    """
    if K.dim != P.dim or rotation.dim != K.dim:
        raise ValueError("body, rotation and container disagree on dimension")
    d = K.dim
    U, off = P.normals, P.offsets
    n = U.shape[0]
    rows = np.zeros((n + 1, d + 1))
    rows[:n, :d] = U
    rows[:n, d] = support_values(K, rotation, U)
    rows[n, d] = -1.0
    bounds = np.concatenate([off, [0.0]])
    return LpInstance.maximize_last(rows, bounds)


def _lex_min_translation(inst, best_value, d, seed):
    """Among optimal placements, pick the lexicographically smallest translation.

    Each pin row is scaled down until its offset is at most the largest
    offset of `inst` (and at least 1), so pinning never raises seidel_lp's
    offset normalization, and with it the tolerance on the rows of P.
    """
    rows, bounds = inst.rows, inst.bounds
    cap = max(1.0, float(np.max(np.abs(bounds))))
    pin_rows, pin_bounds = [], []

    def pin(row, bound):
        shrink = min(1.0, cap / abs(bound)) if bound else 1.0
        pin_rows.append(row * shrink)
        pin_bounds.append(bound * shrink)

    pin(np.concatenate([np.zeros(d), [-1.0]]), -(best_value - CANON_SLACK))
    witness = None
    for i in range(d):
        obj = np.zeros(d + 1)
        obj[i] = -1.0
        sub = LpInstance(np.vstack([rows] + pin_rows),
                         np.concatenate([bounds, pin_bounds]), obj)
        res = seidel_lp(sub, seed=seed + 7919 * (i + 1))
        if res.status != OPTIMAL:
            return witness  # keep whatever we had; never fail the solve here
        witness = res.witness
        e = np.zeros(d + 1)
        e[i] = 1.0
        pin(e, float(witness[i]) + CANON_SLACK)
    return witness


def beta_fixed_rotation(K: VPolytope, rotation: Rotation, P: HPolytope,
                        seed=0, canonical=True) -> BetaResult:
    """Largest alpha >= 0 with a + alpha * A * K inside P, at rotation A.

    Solves the len(P) + 1 row LP of `build_beta_instance`; `tight_rows` are
    the half-spaces of P among its pinning rows (the sign row is not one).
    An empty container reports status "infeasible" with value 0; a
    container that lets the copy grow forever reports "unbounded".  With
    `canonical` the witness goes through `canonical_placement`, so repeated
    runs (any seed) agree on the placement, not just the value.
    """
    inst = build_beta_instance(K, rotation, P)
    res = seidel_lp(inst, seed=seed)
    if res.status == INFEASIBLE:
        return BetaResult(0.0, None, INFEASIBLE, ())
    if res.status == UNBOUNDED:
        return BetaResult(math.inf, None, UNBOUNDED, ())
    value = max(res.value, 0.0)
    placement = Placement(res.witness[:K.dim], value, rotation)
    if canonical:
        placement = canonical_placement(K, placement, P, seed)
    n = len(P)
    tight = tuple(sorted(int(r) for r in res.tight_set if r < n))
    return BetaResult(value, placement, OPTIMAL, tight)


def canonical_placement(K: VPolytope, placement: Placement, P: HPolytope,
                        seed=0) -> Placement:
    """The optimal placement with the lexicographically smallest translation.

    `placement` must be optimal for the scale LP at its rotation.  Its
    rotation and scale are kept; the translation comes from
    `_lex_min_translation`, so it does not depend on which optimum
    `placement` was.
    """
    inst = build_beta_instance(K, placement.rotation, P)
    lex = _lex_min_translation(inst, placement.scale, K.dim, seed)
    if lex is None:
        return placement
    return Placement(lex[:K.dim], placement.scale, placement.rotation)


def fit_check(K: VPolytope, rotation: Rotation, scale, P: HPolytope, seed=0) -> bool:
    """Does some translate of scale * A * K fit inside P (within 1e-9)?"""
    res = beta_fixed_rotation(K, rotation, P, seed=seed, canonical=False)
    if res.status == UNBOUNDED:
        return True
    if res.status == INFEASIBLE:
        return False
    return res.value >= float(scale) - FIT_TOL


@dataclass(eq=False)
class InradiusResult:
    radius: float
    center: np.ndarray | None
    status: str


def chebyshev_inradius(P: HPolytope, seed=0) -> InradiusResult:
    """Largest ball inside P: maximize r subject to <u_k, c> + r <= b_k."""
    n, d = P.normals.shape
    rows = np.hstack([P.normals, np.ones((n, 1))])
    inst = LpInstance.maximize_last(rows, P.offsets)
    res = seidel_lp(inst, seed=seed)
    if res.status == UNBOUNDED:
        return InradiusResult(math.inf, None, UNBOUNDED)
    if res.status == INFEASIBLE or res.value < -FEAS_TOL:
        center = None if res.witness is None else res.witness[:d]
        return InradiusResult(float(res.value), center, INFEASIBLE)
    return InradiusResult(float(res.value), res.witness[:d], OPTIMAL)
