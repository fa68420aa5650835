"""Randomized incremental linear programming in a handful of variables.

`seidel_lp` maximizes a linear objective subject to inequality rows, with
Seidel's randomized incremental scheme: process the rows in random order,
and when one is violated, eliminate a variable on its boundary and re-solve
the rows before it one dimension down.  Expected work is linear in the
number of rows for fixed dimension.  No LP the package solves holds more
than a few dozen rows, so the scan is one plain-Python path: rows are lists
of floats, tested one at a time (`_solve`), and each elimination writes the
reduced rows out as lists (`_eliminate`).  At two variables the elimination
hands its reduced rows straight to the one-variable rule (`_step_2d`), and
that rule lives in one place (`_one_var`).  The scale LP over a whole
container is not solved by one scan: `_insertion_loop` holds a few of its
rows and reads the others only in one vectorized violation test a round
(`_overshoot`), inserting the deepest violator into the standing optimum.

The solver works inside a large implicit box, which is how unboundedness is
reported rather than crashed on: an optimum pinned to the box wall means the
true problem escapes to infinity at the scale of the data.  One zero rule
serves rows and objective alike: a coefficient within PIVOT_TOL of zero
counts as zero, the objective's once it is divided by its largest |c_j|,
so that a scaled objective is read as the unscaled one.  Eliminating one
of two antiparallel rows leaves the objective a coefficient of rounding
size along their strip, so a variable the objective ignores is never
driven to the box wall, and a copy that can only slide along a strip is
optimal, not unbounded.  Degenerate ties never loop (the recursion only
ever shrinks), they are broken by fixed rules, and the scale-fitting layer
canonicalizes witnesses afterwards so equal optima always report the same
placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from operator import mul

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
PIVOT_TOL = 1e-11      # a row or objective coefficient within this of 0 counts as 0
EVAL_GUARD = 1e-13     # relative guard so fp noise never looks like a violation
FIT_TOL = 1e-9         # slack used by fit_check
CANON_SLACK = 1e-11    # pinning slack while canonicalizing witnesses
CANON_SEED = 0         # seed of every lexicographic stage of canonical_placement
VIOL_TOL = 1e-9        # slack, relative to the largest offset, in violation tests
DUAL_TOL = 1e-12       # relative residual accepted in a recovered scale-LP dual
NEAR_TIGHT = 12        # most nearly tight rows whose (d+1)-subsets near_tight_dual tries

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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


def _offset_scale(b):
    """`seidel_lp`'s offset normalization: the largest |b_i|, at least 1."""
    return max(1.0, float(np.max(np.abs(b)))) if len(b) else 1.0


def _excess(row, bi, x):
    """Violation of row . x <= bi beyond its tolerance; > 0 means violated.

    The tolerance is FEAS_TOL * max(1, |bi|) plus a guard of EVAL_GUARD
    times sum |row_k x_k|, so that rounding never reads as a violation.
    """
    s = m = 0.0
    for p in map(mul, row, x):
        s += p
        m += abs(p)
    return s - bi - (FEAS_TOL * max(1.0, abs(bi)) + EVAL_GUARD * m)


def _flat(row):
    """Do all of the row's coefficients count as zero?"""
    return max(map(abs, row)) < PIVOT_TOL


def _one_var(rows, cred):
    """Maximize cred * x over [-BOX, BOX] and the rows a * x <= bb.

    `rows` is a list of (a, bb, id) in scan order, the box rows of an
    eliminated variable last with id -1.  A row with |a| <= PIVOT_TOL is
    flat and fails the program when bb < 0 beyond the tolerance; otherwise
    bb / a bounds x, and a bound replaces the box or an earlier bound only
    when strictly tighter, so the first row in scan order wins a tie and
    box rows lose one.  Bounds that cross by more than the tolerance fail
    the program only where neither bound meets the box and every row within
    the row's own tolerance (`_admits`), since a row of small |a| moves its
    bound far more than it is violated; otherwise both become the first of
    hi and lo that does, with its row.  The objective follows the same zero
    rule: where |cred| <= PIVOT_TOL, x is the point of [lo, hi] nearest 0.
    Returns x and its chain: the id of the row that pins it, unless that is
    a box row or cred counts as 0.
    """
    hi, hi_id = BOX_BOUND, -1
    lo, lo_id = -BOX_BOUND, -1
    for a, bb, i in rows:
        if a > PIVOT_TOL:
            r = bb / a
            if r < hi:
                hi, hi_id = r, i
        elif a < -PIVOT_TOL:
            r = bb / a
            if r > lo:
                lo, lo_id = r, i
        elif bb < -FEAS_TOL * max(1.0, abs(bb)):
            raise _Infeasible
    if lo > hi + FEAS_TOL * max(1.0, abs(lo), abs(hi)):
        if _admits(rows, hi):
            lo, lo_id = hi, hi_id
        elif _admits(rows, lo):
            hi, hi_id = lo, lo_id
        else:
            raise _Infeasible
    if lo > hi:  # inverted by a rounding hair; collapse
        lo = hi = 0.5 * (lo + hi)
    if cred > PIVOT_TOL:
        return hi, ([hi_id] if hi_id >= 0 else [])
    if cred < -PIVOT_TOL:
        return lo, ([lo_id] if lo_id >= 0 else [])
    return min(max(0.0, lo), hi), []


def _admits(rows, x):
    """Does x meet |x| <= BOX and every row of `_one_var` within its tolerance?

    Row a * x <= bb holds where a * x - bb <= FEAS_TOL * max(1, |bb|), the
    box rows (+-1, BOX_BOUND) alike.
    """
    if abs(x) - BOX_BOUND > FEAS_TOL * BOX_BOUND:
        return False
    return not any(a * x - bb > FEAS_TOL * max(1.0, abs(bb)) for a, bb, _ in rows)


def _step_2d(row, rb, prefix, cv):
    """Pin row . x = rb in two variables and solve the one-variable program left.

    `prefix` yields the rows before the pinned one as (coefficients,
    offset, id).  With j the first larger |coefficient| of `row`, each
    prefix row becomes a = r[k] - r[j] * ck, bb = bi - r[j] * rhs, and the
    box rows of x_j follow; `_one_var` takes the rows straight from there.
    Returns x and the one-variable chain.
    """
    j = 0 if abs(row[0]) >= abs(row[1]) else 1
    k = 1 - j
    pv = row[j]
    ck = row[k] / pv
    rhs = rb / pv
    rows = [(r[k] - r[j] * ck, bi - r[j] * rhs, i) for r, bi, i in prefix]
    # the box rows of x_j, last so that they lose ties
    rows += [(-ck, BOX_BOUND - rhs, -1), (ck, BOX_BOUND + rhs, -1)]
    xk, chain = _one_var(rows, cv[k] - cv[j] * ck)
    x = [0.0, 0.0]
    x[k] = xk
    x[j] = rhs - ck * xk
    return x, chain


def _eliminate(A, b, ids, c, rng, at):
    """Pin row `at` to equality, drop one variable, solve the rows before it.

    Returns the lifted solution and its pinning chain.  Raises _Infeasible
    when the rows before `at` have no point on the pinned boundary, which
    by the usual incremental argument means they and the row are empty.
    At two variables the step is `_step_2d`.  From three up the reduced
    rows, then the box rows of the eliminated variable, are written out and
    solved by `_solve` one dimension down.
    """
    row, rb, rid = A[at], b[at], ids[at]
    head = [rid] if rid >= 0 else []
    d = len(c)
    if d == 2:
        x, chain = _step_2d(row, rb, islice(zip(A, b, ids), at), c)
        return x, head + chain
    j = max(range(d), key=lambda k: abs(row[k]))  # the first largest
    pv = row[j]
    rhs = rb / pv
    if d == 1:
        return [rhs], head
    keep = [k for k in range(d) if k != j]
    ck = [row[k] / pv for k in keep]
    Ared = [[r[k] - r[j] * q for k, q in zip(keep, ck)] for r in islice(A, at)]
    Ared += [[-q for q in ck], ck]
    bred = [bi - r[j] * rhs for r, bi in zip(islice(A, at), b)]
    bred += [BOX_BOUND - rhs, BOX_BOUND + rhs]
    cred = [c[k] - c[j] * q for k, q in zip(keep, ck)]
    xsub, chain = _solve(Ared, bred, ids[:at] + [-1, -1], cred, rng)
    x = xsub[:j] + [rhs - sum(map(mul, ck, xsub))] + xsub[j:]
    return x, head + chain


def _solve(A, b, ids, c, rng):
    """Seidel's scan: add the rows in random order, re-solving on each violation.

    `A`, `b`, `ids` and `c` are lists of Python floats and ints.  The rows
    are visited in the order of one `rng.permutation` and tested one at a
    time (`_excess`); a violated row is pinned by `_eliminate`, which
    re-solves the rows before it.  A flat violated row fails the program
    when its offset is negative beyond the tolerance, and is skipped
    otherwise.  One variable is the base case, `_one_var` over every row.
    """
    d = len(c)
    if d == 1:
        x, chain = _one_var([(r[0], bi, i) for r, bi, i in zip(A, b, ids)], c[0])
        return [x], chain
    x = [BOX_BOUND if ci > PIVOT_TOL else -BOX_BOUND if ci < -PIVOT_TOL else 0.0
         for ci in c]
    chain = []
    n = len(A)
    if n:
        order = rng.permutation(n).tolist()
        A = [A[i] for i in order]
        b = [b[i] for i in order]
        ids = [ids[i] for i in order]
    for at in range(n):
        if _excess(A[at], b[at], x) > 0:
            if _flat(A[at]):
                # all coefficients vanish: 0 <= b must hold or nothing does
                if b[at] < -FEAS_TOL * max(1.0, abs(b[at])):
                    raise _Infeasible
                continue
            x, chain = _eliminate(A, b, ids, c, rng, at)
    return x, chain


def _normalized(instance):
    """`seidel_lp`'s view of an instance: the offsets divided by their
    `_offset_scale`, the objective by its largest |c_j|, and that scale.

    So FEAS_TOL is relative to the offsets and PIVOT_TOL to the objective.
    """
    scale = _offset_scale(instance.bounds)
    c = instance.objective
    c_max = float(np.max(np.abs(c)))
    if c_max > 0.0:
        c = c / c_max
    return instance.bounds / scale, c, scale


def _seidel(A, b, ids, c, rng):
    """`_solve`, then a polish: a violation that slipped past the guards at
    huge intermediate coordinates is repaired by pinning that row."""
    x, chain = _solve(A, b, ids, c, rng)
    for _ in range(4):
        if not A or max(map(abs, x)) >= 0.999 * BOX_BOUND:
            break
        resid = [_excess(r, bi, x) for r, bi in zip(A, b)]
        worst = max(range(len(resid)), key=resid.__getitem__)
        if resid[worst] <= 0:
            break
        if _flat(A[worst]):
            if b[worst] < -FEAS_TOL * max(1.0, abs(b[worst])):
                raise _Infeasible
            break
        order = [i for i in range(len(A)) if i != worst] + [worst]
        x, chain = _eliminate([A[i] for i in order], [b[i] for i in order],
                              [ids[i] for i in order], c, rng, len(A) - 1)
    return x, chain


def _read(objective, x, chain, scale):
    """The result of an optimum x found in `_normalized` units.

    x on the implicit box means unbounded; otherwise its pinning chain,
    ids of the instance's rows, gives the tight set in chain order.
    """
    witness = np.array(x) * scale
    if max(map(abs, x)) >= (1.0 - 1e-6) * BOX_BOUND:
        return LpResult(UNBOUNDED, math.inf, witness, ())
    tight = tuple(dict.fromkeys(i for i in chain if i >= 0))
    return LpResult(OPTIMAL, float(objective @ witness), witness, tight)


def seidel_lp(instance: LpInstance, seed=0):
    """Solve a small-dimensional LP; see the module docstring for the scheme.

    The value and status are independent of `seed`; the witness is one
    optimal point (canonical tie-breaking happens a layer up, where the
    geometry lives).  The objective is divided by its largest |c_j| before
    the zero rule reads it, so PIVOT_TOL is relative to the objective, as
    the offset normalization makes FEAS_TOL relative to the offsets; the
    value is that of the objective as given.  The scan is plain Python, a
    few microseconds a row, so it suits LPs of up to a few thousand rows;
    the scale LP over a large container goes through `beta_fixed_rotation`.
    """
    d = instance.dim_vars
    if d > MAX_DIM:
        raise UnsupportedDimensionError(f"seidel_lp handles at most {MAX_DIM} variables, got {d}")
    if d == 0:
        raise ValueError("LP needs at least one variable")
    b, c, scale = _normalized(instance)
    try:
        x, chain = _seidel(instance.rows.tolist(), b.tolist(), list(range(len(b))),
                           c.tolist(), np.random.default_rng(seed))
    except _Infeasible:
        return LpResult(INFEASIBLE, -math.inf, None, ())
    return _read(instance.objective, x, chain, scale)


# ---------------------------------------------------------------------------
# scale fitting at a fixed rotation


@dataclass(eq=False)
class BetaResult:
    """Outcome of maximizing the scale of a placed copy at one rotation."""

    value: float
    placement: Placement | None
    status: str
    tight_rows: tuple   # indices of half-spaces of P that pin the optimum
    held: np.ndarray     # rows of P the solve held at its end
    tested: int          # rows its violation tests read
    solves: int          # rounds: the first solve, then one per row held after it

    @property
    def ok(self):
        return self.status == OPTIMAL


def support_values(K: VPolytope, rotation: Rotation, normals) -> np.ndarray:
    """h_AK(u_i) = max_j <u_i, A v_j> for every row u_i of `normals`."""
    W = K.vertices @ rotation.matrix.T
    return np.max(W @ normals.T, axis=0)


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
    return LpInstance.maximize_last(*_scale_rows(K, rotation, P))


def _scale_rows(K, rotation, P, spare=0):
    """`build_beta_instance`'s rows and bounds, then `spare` zero rows."""
    d, U, n = K.dim, P.normals, len(P)
    rows = np.zeros((n + 1 + spare, d + 1))
    rows[:n, :d] = U
    rows[:n, d] = support_values(K, rotation, U)
    rows[n, d] = -1.0
    bounds = np.zeros(n + 1 + spare)
    bounds[:n] = P.offsets
    return rows, bounds


@dataclass(eq=False)
class ScaleDual:
    """Multipliers lambda >= 0 on half-spaces of P that bound the scale LP
    at every rotation.

    Summing the rows of `build_beta_instance` at any rotation A with weights
    lambda gives alpha * lambda . h_A(U) <= lambda . b - <U^T lambda, a>, so
    alpha <= cap / lambda . h_A(U) wherever that denominator is positive.
    `cap` is lambda . b plus a cushion that makes the bound hold for any
    value seidel_lp can report, not just the exact optimum: with scale its
    offset normalization (`_offset_scale`), every row may be violated by
    FEAS_TOL * scale, and the residual U^T lambda meets a translation of
    at most BOX_BOUND * scale per coordinate.  Rounding beyond that is left
    to the solver layer's pruning slack.  `value` is the bound without the
    cushion at the solved rotation, lambda . b / lambda . h_A(U): the scale
    that the rows with positive weight alone allow there.
    """

    rows: np.ndarray      # (k,) indices of the half-spaces used, into P
    normals: np.ndarray   # (k, d) rows u_i of the half-spaces used
    weights: np.ndarray   # (k,) lambda
    cap: float
    value: float

    def bounds(self, K: VPolytope, matrices) -> np.ndarray:
        """Upper bound on the scale at each rotation of a (t, d, d) stack."""
        h = (self.normals @ matrices @ K.vertices.T).max(axis=2)
        denom = h @ self.weights
        out = np.full(denom.shape, math.inf)
        pos = denom > 0
        out[pos] = self.cap / denom[pos]
        return out

    @property
    def support(self):
        """The sorted indices of the half-spaces with positive weight."""
        return tuple(sorted(int(j) for j in self.rows[self.weights > 0]))


def scale_dual(K: VPolytope, rotation: Rotation, P: HPolytope, tight_rows):
    """The dual of an optimal scale LP on its tight half-spaces T, or None.

    Solves [U_T^T; h_A(U_T)^T] lambda = e_{d+1} (least squares unless
    |T| = d + 1) and accepts lambda only when it is nonnegative and its
    residual is within DUAL_TOL of the magnitudes summed; otherwise, e.g.
    when the sign row -alpha <= 0 pins the optimum, the rotation certifies
    nothing about the others.
    """
    rows = np.asarray(tight_rows, dtype=int)
    if rows.size == 0:
        return None
    U = P.normals[rows]
    M = np.vstack([U.T, support_values(K, rotation, U)])
    e = np.zeros(M.shape[0])
    e[-1] = 1.0
    try:
        if rows.size == M.shape[0]:
            lam = np.linalg.solve(M, e)
        else:
            lam = np.linalg.lstsq(M, e, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(lam)):
        return None
    lam[(lam < 0) & (lam >= -DUAL_TOL * np.abs(lam).sum())] = 0.0
    if np.any(lam < 0):
        return None
    if np.any(np.abs(M @ lam - e) > DUAL_TOL * (1.0 + np.abs(M) @ lam)):
        return None
    pinned = float(P.offsets[rows] @ lam)
    cushion = _offset_scale(P.offsets) * (FEAS_TOL * lam.sum()
                                          + BOX_BOUND * np.abs(U.T @ lam).sum())
    return ScaleDual(rows, U, lam, pinned + cushion, pinned / float(M[-1] @ lam))


def near_tight_dual(K: VPolytope, placement: Placement, P: HPolytope):
    """The accepted dual of least value on the rows nearly tight at an optimum.

    For an optimal `placement` whose Seidel chain yields no accepted dual:
    the chain can keep d + 1 rows whose normals lie in a half-space while
    another row is just as tight, and those rows alone leave the scale
    unbounded.  The candidates are the nearly tight rows (`_near_tight`),
    at most NEAR_TIGHT of them, smallest slack first.  Every (d + 1)-subset
    of them goes through `scale_dual`, and the accepted dual whose `value`
    is least is returned, or None.
    """
    rotation = placement.rotation
    slack = _slack(placement, support_values(K, rotation, P.normals), P)
    near = _near_tight(slack, P)
    near = near[np.argsort(slack[near], kind="stable")][:NEAR_TIGHT]
    best = None
    for rows in combinations(near.tolist(), K.dim + 1):
        dual = scale_dual(K, rotation, P, rows)
        if dual is not None and (best is None or dual.value < best.value):
            best = dual
    return best


def _slack(placement, support, P):
    """b_i - <u_i, a> - alpha * h_A(u_i) for every half-space of P.

    `support` holds h_A(u_i) at the placement's rotation.
    """
    return P.offsets - P.normals @ placement.translation - placement.scale * support


def _near_tight(slack, P):
    """The rows whose `_slack` b_i - <u_i, a> - alpha * h_A(u_i) is at most
    four times seidel_lp's row tolerance, FEAS_TOL times `_offset_scale`.

    A reported optimum may lie up to that tolerance outside some rows, so a
    row tight at the exact optimum can show a slack of a few tolerances.
    """
    return np.flatnonzero(slack <= 4 * FEAS_TOL * _offset_scale(P.offsets))


def _violation_limits(P):
    """The reach b_i + VIOL_TOL * `_offset_scale`(b) + 1e-13 beyond which a
    placed copy violates half-space i of P.

    One tolerance for every row, relative to the largest |b_i|, as Seidel's
    row test (`_excess`) allows every row FEAS_TOL once the offsets are
    divided by that scale.  So a row the violation test holds is one the
    scan finds violated too, and no round of `_insertion_loop` is idle
    where the offsets differ in size.
    """
    return P.offsets + (VIOL_TOL * _offset_scale(P.offsets) + 1e-13)


def _overshoot(placement, support, P, limits):
    """How far the placed copy reaches past each half-space's limit
    (`_violation_limits`); a positive entry is a violation.

    `support` holds h_AK(u_i) for every half-space at the placement's
    rotation, so each test is the scale LP's own row
    <u_i, a> + s * h_AK(u_i) <= b_i.  Every violation test reads P here.
    """
    return P.normals @ placement.translation + placement.scale * support - limits


def _violators(placement, support, P):
    """Indices of half-spaces the placed copy leaves (`_overshoot`)."""
    return np.nonzero(_overshoot(placement, support, P, _violation_limits(P)) > 0)[0]


def _insertion_loop(A, b, c, scale, rotation, P, limits, start, seed):
    """Seidel's scan of the scale LP, offered P's rows deepest first.

    `A` and `b` are the scale LP at `rotation` in `_normalized` units, its
    offsets divided by `scale`: P's len(P) rows, then the sign row and any
    pins.  `c` is its objective, a unit vector, and `limits` is P's
    `_violation_limits`.  The rows held start as the distinct indices
    `start` into P, P's row of largest |b_i| and every row after P's, and
    are solved by `seidel_lp`'s scan (`_seidel`); P's row of largest |b_i|
    keeps the offset normalization of all of P, and with it the tolerance
    on each row.  The rows held are kept as lists, as the scan reads them.
    Each round tests the standing optimum against all of P (`_overshoot`,
    one vectorized pass) and holds the deepest violator not yet held.
    Where Seidel's own row test (`_excess`) finds that row violated too, it
    is inserted as Seidel's scan inserts a row: the optimum moves onto its
    boundary by one `_eliminate` over the rows held before it, with no
    re-solve.  Rows of P have unit normals, so none is flat.  The loop ends
    when no row outside those held is violated, which certifies the optimum
    for P, or when the rows held are empty; each round holds one more row,
    so it ends within n rounds.  An optimum on the implicit box that no row
    of P cuts is read as unbounded for P.  Returns the `LpResult` over the
    row ids of `A`, the rows of P held, sorted (by Python's `sorted`: the
    first `np.sort` of a process adds about 0.4 MB to its peak memory),
    the rows tested and the number of rounds.
    """
    n, d = len(P), rotation.dim
    mask = np.zeros(A.shape[0], dtype=bool)
    mask[np.asarray(start, dtype=int)] = True
    if n:
        mask[int(np.argmax(np.abs(P.offsets)))] = True
    mask[n:] = True
    held = np.flatnonzero(mask).tolist()
    rows, offsets, obj = A[held].tolist(), b[held].tolist(), c.tolist()
    of_p = [i for i in held if i < n]
    support = A[:n, -1]
    rng = np.random.default_rng(seed)
    tested, rounds = 0, 1
    try:
        x, chain = _seidel(rows, offsets, held, obj, rng)
        while n:
            placement = Placement([xi * scale for xi in x[:d]], max(x[d] * scale, 0.0),
                                  rotation)
            depth = _overshoot(placement, support, P, limits)
            tested += n
            depth[of_p] = -math.inf
            r = int(depth.argmax())
            if not depth[r] > 0:
                break
            rounds += 1
            held.append(r)
            of_p.append(r)
            rows.append(A[r].tolist())
            offsets.append(float(b[r]))
            if _excess(rows[-1], offsets[-1], x) > 0:
                x, chain = _eliminate(rows, offsets, held, obj, rng, len(rows) - 1)
    except _Infeasible:
        res = LpResult(INFEASIBLE, -math.inf, None, ())
    else:
        res = _read(c, x, chain, scale)
    return res, np.array(sorted(of_p), dtype=int), tested, rounds


def beta_fixed_rotation(K: VPolytope, rotation: Rotation, P: HPolytope,
                        seed=0, *, rows=None) -> BetaResult:
    """Largest alpha >= 0 with a + alpha * A * K inside P, at rotation A.

    Solves the len(P) + 1 row LP of `build_beta_instance` by
    `_insertion_loop`, which reads the rows it does not hold only in
    violation tests.  It starts from `rows`, distinct indices into P, or
    from no row of P by default; either way P's row of largest |b_i| and
    the sign row are held from the start.  `held`, `tested` and `solves`
    report the rows of P held at the end, sorted, the rows the violation
    tests read and the rounds, and `tight_rows` are the half-spaces of P
    among the optimum's pinning rows (the sign row is not one).  An empty
    container reports status "infeasible" with value 0; rows held that are
    empty already mean P is.  A container that lets the copy grow forever
    reports "unbounded": an optimum on the implicit box is tested at that
    witness, so the rows that cut its ray are inserted, and if none is, P
    is unbounded there too.  The placement is the optimum's witness, which
    can move with `seed` where the optimum is not unique;
    `canonical_placement` picks one that does not.
    """
    n, d = len(P), K.dim
    inst = build_beta_instance(K, rotation, P)
    b, c, scale = _normalized(inst)
    res, held, tested, solves = _insertion_loop(
        inst.rows, b, c, scale, rotation, P, _violation_limits(P),
        () if rows is None else rows, seed)
    if res.status == INFEASIBLE:
        return BetaResult(0.0, None, INFEASIBLE, (), held, tested, solves)
    if res.status == UNBOUNDED:
        return BetaResult(math.inf, None, UNBOUNDED, (), held, tested, solves)
    value = max(res.value, 0.0)
    placement = Placement(res.witness[:d], value, rotation)
    tight = tuple(sorted(int(r) for r in res.tight_set if r < n))
    return BetaResult(value, placement, OPTIMAL, tight, held, tested, solves)


def _lex_min_translation(A, bounds, placement, P, start):
    """`placement` moved to the lexicographically smallest optimal translation.

    `A` and `bounds` are `_scale_rows` at the placement's rotation with d
    spare rows for pins, and `placement` is an optimum of that scale LP;
    its rotation and scale are kept.  Stage i minimizes a_i by
    `_insertion_loop` over P's rows, the sign row and the pins written so
    far: alpha >= scale - CANON_SLACK, then a_j <= (stage j's a_j) +
    CANON_SLACK for each earlier stage j.  The pins are written into the
    spare rows, so no stage copies the rows of P.  Each pin is scaled down
    until its offset is at most `_offset_scale` of P's, so pinning never
    raises the offset normalization, and with it the tolerance on P's rows.
    Stage i runs with the fixed seed CANON_SEED + 7919 (i + 1) from the
    rows of P the stage before it held, the first from `start`, and its
    last violation test certifies its optimum for all of P.  A stage that
    is not optimal, such as one whose optimum stays on the implicit box
    with no row of P violated, leaves a_i free; the translation of the
    last optimal stage is kept (the given one if none was), so the solve
    never fails here.  Returns the placement and the rows the stages'
    violation tests read.
    """
    n, d = len(P), placement.dim
    scale = _offset_scale(bounds)
    b = bounds / scale
    limits = _violation_limits(P)
    unit = np.eye(d + 1)

    def pin(k, row, bound):
        shrink = min(1.0, scale / abs(bound)) if bound else 1.0
        A[k] = row * shrink
        b[k] = bound * shrink / scale

    pin(n + 1, -unit[d], -(placement.scale - CANON_SLACK))
    translation, held, tested = placement.translation, start, 0
    for i in range(d):
        m = n + 2 + i
        res, held, t, _ = _insertion_loop(A[:m], b[:m], -unit[i], scale, placement.rotation,
                                          P, limits, held, CANON_SEED + 7919 * (i + 1))
        tested += t
        if res.status != OPTIMAL:
            break
        translation = res.witness[:d]
        if i + 1 < d:
            pin(m, unit[i], float(translation[i]) + CANON_SLACK)
    return Placement(translation, placement.scale, placement.rotation), tested


def canonical_placement(K: VPolytope, placement: Placement, P: HPolytope):
    """The optimal placement with the lexicographically smallest translation.

    `placement` must be optimal for the scale LP at its rotation.  Its
    rotation and scale are kept, and the translation comes from
    `_lex_min_translation`, whose d stages each run `_insertion_loop`, the
    loop of `beta_fixed_rotation`'s solves from start rows, the first from
    the rows within 4 * FEAS_TOL * `_offset_scale` of tight at `placement`
    (`_near_tight`).  Which of several nearly tight rows pins the result
    within seidel_lp's row tolerance depends on the order in which they are
    scanned; starting every call from the same few rows with the same seeds
    makes the result depend little on how `placement` was found.  Every row
    of P outside those held is read only by violation tests.  Returns the
    placement with the number of rows that the tests read.
    """
    A, bounds = _scale_rows(K, placement.rotation, P, spare=K.dim)
    near = _near_tight(_slack(placement, A[:len(P), -1], P), P)
    return _lex_min_translation(A, bounds, placement, P, near)


def fit_check(K: VPolytope, rotation: Rotation, scale, P: HPolytope) -> bool:
    """Does some translate of scale * A * K fit inside P (within 1e-9)?"""
    res = beta_fixed_rotation(K, rotation, P)
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


def chebyshev_inradius(P: HPolytope) -> InradiusResult:
    """Largest ball inside P: maximize r subject to <u_k, c> + r <= b_k."""
    n, d = P.normals.shape
    rows = np.hstack([P.normals, np.ones((n, 1))])
    inst = LpInstance.maximize_last(rows, P.offsets)
    res = seidel_lp(inst)
    if res.status == UNBOUNDED:
        return InradiusResult(math.inf, None, UNBOUNDED)
    if res.status == INFEASIBLE or res.value < -FEAS_TOL:
        center = None if res.witness is None else res.witness[:d]
        return InradiusResult(float(res.value), center, INFEASIBLE)
    return InradiusResult(float(res.value), res.witness[:d], OPTIMAL)
