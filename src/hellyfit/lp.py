"""Randomized incremental linear programming in a handful of variables.

`seidel_lp` maximizes a linear objective subject to inequality rows, with the
classic randomized incremental scheme: process constraints in random order,
and when one is violated, eliminate a variable on its boundary and re-solve
the prefix one dimension down.  Expected work is linear in the number of
rows for fixed dimension.  That holds because the scan for the next
violated row looks ahead in blocks that grow while they stay clean, instead
of re-scoring every remaining row after each violation; the blocks score
the rows in the same random order with the same arithmetic, so the output
does not depend on the block sizes.

Most eliminations go from two variables to one, many of them on prefixes of
a few rows, where numpy's per-call cost outweighs the rows.  That step is
fused with the one-variable program it leaves (`_step_2d`): no reduced
arrays are built, and short prefixes are handled in plain Python floats.
The result is bit-identical to solving the reduced arrays, because each
reduced value is one product and one difference, correctly rounded in
numpy and CPython alike, and the one-variable rule lives in one place
(`_one_var`).

A level of fewer than SCAN_SMALL rows, and every level below it, runs on
Python lists (`_scan`): the same permutation, blocks, pivots and reduced
rows as the array scan, so the same output.  Only the scoring differs in
kind.  BLAS scores a block by one matrix-vector product (`_excess`), and a
Python dot product sums in another order, so its last bit could move the
first violation.  A floating-point filter in the manner of Shewchuk's
adaptive predicates settles that (`_screen`): a row's Python excess is
trusted only where an error bound that covers any summation order proves
its sign equal to BLAS's, and a block with a row inside the bound is scored
by `_excess` as the array scan scores it.  The lift of an eliminated
variable from two or more others stays the numpy dot product.

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
from itertools import combinations
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
VIOL_TOL = 1e-9        # per-row slack (relative to the offset) in violation tests
FIRST_BLOCK = 16       # rows in the first look-ahead block of a scan
SMALL = 48             # plain Python below this prefix: the per-call crossover is 48-56 rows
SCAN_SMALL = 32        # Python lists below this many rows at a level
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


def _offset_tols(b):
    return FEAS_TOL * np.maximum(1.0, np.abs(b))


def _excess(A, b, b_tols, x):
    """Per-row violation of A @ x <= b beyond the tolerance; > 0 means violated.

    `b_tols` is `_offset_tols(b)`; the guard on |A| @ |x| is added per call.
    """
    return A @ x - b - (b_tols + EVAL_GUARD * (np.abs(A) @ np.abs(x)))


def _one_var(rows, cred, arrays=None):
    """Maximize cred * x over [-BOX, BOX] and the rows a * x <= bb.

    `rows` is a list of (a, bb, id) in Python numbers in scan order, the
    box rows of an eliminated variable last with id -1; where `_extremes`
    picked them from arrays, `arrays` is that pair (a, bb).  This is the
    one place the one-variable rule lives: a row with |a| <= PIVOT_TOL is
    flat and fails the program when bb < 0 beyond the tolerance; otherwise
    bb / a bounds x, and a bound replaces the box or an earlier bound only
    when strictly tighter, so the first row in scan order wins a tie and
    box rows lose one.  Bounds that cross by more than the tolerance fail
    the program only where neither bound meets the box and every row, of
    `rows` and `arrays`, within the row's own tolerance (`_admits`), since
    a row of small |a| moves its bound far more than it is violated;
    otherwise both become the first of hi and lo that does, with its row.
    The objective follows the same zero rule: where |cred| <= PIVOT_TOL, x
    is the point of [lo, hi] nearest 0.  Returns x and its chain: the id of
    the row that pins it, unless that is a box row or cred counts as 0.
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
        if _admits(rows, arrays, hi):
            lo, lo_id = hi, hi_id
        elif _admits(rows, arrays, lo):
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


def _admits(rows, arrays, x):
    """Does x meet |x| <= BOX and every row of `_one_var` within its tolerance?

    Row a * x <= bb holds where a * x - bb <= FEAS_TOL * max(1, |bb|), the
    box rows (+-1, BOX_BOUND) alike.
    """
    if abs(x) - BOX_BOUND > FEAS_TOL * BOX_BOUND:
        return False
    if any(a * x - bb > FEAS_TOL * max(1.0, abs(bb)) for a, bb, _ in rows):
        return False
    if arrays is None:
        return True
    a, bb = arrays
    return not np.any(a * x - bb > FEAS_TOL * np.maximum(1.0, np.abs(bb)))


def _extremes(a, bb, ids):
    """The rows of a * x <= bb that can decide `_one_var`, found by array passes.

    They are the first row of least ratio bb / a among a > PIVOT_TOL, the
    first of greatest ratio among a < -PIVOT_TOL (argmin and argmax keep
    the first occurrence, as `_one_var`'s strict comparison does), and the
    flat row of least bb, since the flat test fails for it if for any.
    """
    up = (a > PIVOT_TOL).nonzero()[0]
    down = (a < -PIVOT_TOL).nonzero()[0]
    pick = []
    if up.size:
        pick.append(up[(bb[up] / a[up]).argmin()])
    if down.size:
        pick.append(down[(bb[down] / a[down]).argmax()])
    if up.size + down.size < a.shape[0]:
        flat = (np.abs(a) <= PIVOT_TOL).nonzero()[0]
        pick.append(flat[bb[flat].argmin()])
    return list(zip(a[pick].tolist(), bb[pick].tolist(), ids[pick].tolist()))


def _base_1d(A, b, ids, c):
    """Solve the one-variable program over [-BOX, BOX]."""
    a = A[:, 0]
    x, chain = _one_var(_extremes(a, b, ids), float(c[0]), (a, b))
    return np.array([x]), chain


def _step_2d(row, rb, prefix, cv):
    """Pin row . x = rb in two variables and solve the one-variable program left.

    `row`, `rb` and the objective `cv` are Python floats.  `prefix` holds
    the rows before the pinned one, either as (coefficients, offset, id)
    triples in Python floats or, for a long prefix, as the arrays (A, b,
    ids).  With j the first larger |coefficient| of `row`, each prefix row
    becomes a = r[k] - r[j] * ck, bb = bi - r[j] * rhs, and the box rows of
    x_j follow; `_one_var` takes the rows straight from there, with no
    reduced arrays.  Triples are reduced in Python floats, arrays by one
    array pass that `_extremes` cuts to the rows that can win.  Either way
    each value is rounded as a reduced array would round it: a product,
    then a difference, each correctly rounded, which numpy and CPython
    alike never fuse.  Returns x as a list and the one-variable chain.
    """
    j = 0 if abs(row[0]) >= abs(row[1]) else 1  # argmax keeps the first
    k = 1 - j
    pv = row[j]
    ck = row[k] / pv
    rhs = rb / pv
    if isinstance(prefix, tuple):
        Ap, bp, idp = prefix
        aj = Ap[:, j]
        arrays = Ap[:, k] - aj * ck, bp - aj * rhs
        rows = _extremes(*arrays, idp)
    else:
        arrays = None
        rows = [(r[k] - r[j] * ck, bi - r[j] * rhs, i) for r, bi, i in prefix]
    # the box rows of x_j, last so that they lose ties
    rows += [(-ck, BOX_BOUND - rhs, -1), (ck, BOX_BOUND + rhs, -1)]
    xk, chain = _one_var(rows, cv[k] - cv[j] * ck, arrays)
    x = [0.0, 0.0]
    x[k] = xk
    # + 0.0 as in the one-term dot product ck @ x_k: a -0.0 product becomes 0.0
    x[j] = rhs - (ck * xk + 0.0)
    return x, chain


def _eliminate_2d(A, b, ids, c, ridx, prefix):
    """`_eliminate` at two variables: `_step_2d` on the prefix rows.

    Below SMALL prefix rows they go to it in Python floats, above it as
    arrays.
    """
    Ap, bp, idp = A[prefix], b[prefix], ids[prefix]
    rows = (Ap, bp, idp) if bp.shape[0] >= SMALL else zip(
        Ap.tolist(), bp.tolist(), idp.tolist())
    x, chain = _step_2d(A[ridx].tolist(), float(b[ridx]), rows, c.tolist())
    return np.array(x), ([int(ids[ridx])] if ids[ridx] >= 0 else []) + chain


def _eliminate(A, b, ids, c, rng, ridx, prefix):
    """Pin row `ridx` to equality, drop one variable, solve the prefix rows.

    `prefix` indexes the rows that came before `ridx` in the scan (a slice
    or an index array).  Returns the lifted solution and its pinning chain.
    Raises _Infeasible when the prefix has no point on the pinned boundary,
    which by the usual incremental argument means the prefix plus the row
    is empty.  At two variables the step is `_eliminate_2d`, which computes
    the reduced rows value for value as the code below would and hands them
    straight to the one-variable rule.  From three variables up the reduced
    rows are written out and solved by `_solve` one dimension down.
    """
    d = c.shape[0]
    if d == 2:
        return _eliminate_2d(A, b, ids, c, ridx, prefix)
    row, rb = A[ridx], b[ridx]
    j = int(np.abs(row).argmax())
    pv = row[j]
    coef = row / pv
    rhs = rb / pv
    if d == 1:
        x = np.array([rhs])
        return x, ([int(ids[ridx])] if ids[ridx] >= 0 else [])
    keep = np.arange(d) != j
    Ap, bp, idp = A[prefix], b[prefix], ids[prefix]
    m = bp.shape[0]
    ck = coef[keep]
    # the prefix rows with x_j substituted, then the box rows of x_j
    Ared = np.empty((m + 2, d - 1))
    np.subtract(Ap[:, keep], Ap[:, j, None] * ck, out=Ared[:m])
    Ared[m] = -ck
    Ared[m + 1] = ck
    bred = np.empty(m + 2)
    np.subtract(bp, Ap[:, j] * rhs, out=bred[:m])
    bred[m:] = BOX_BOUND - rhs, BOX_BOUND + rhs
    idred = np.concatenate([idp, [-1, -1]])
    cred = c[keep] - c[j] * ck
    xsub, subchain = _solve(Ared, bred, idred, cred, rng)
    x = np.empty(d)
    x[keep] = xsub
    x[j] = rhs - ck @ xsub
    return x, ([int(ids[ridx])] if ids[ridx] >= 0 else []) + subchain


def _solve(A, b, ids, c, rng):
    """Seidel's scan: add the rows in random order, re-solving on each violation.

    The rows are gathered once, in the order of one `rng.permutation`.  The
    next violated row is found by scoring blocks of that order: a block of
    FIRST_BLOCK rows, doubled after every clean block, and after a violation
    at position `at` a fresh block of max(FIRST_BLOCK, at // 4) rows from
    `at + 1`, since the next violation is expected about at / d rows on.  A
    level thus scores O(d n) rows in expectation, where re-scoring every
    remaining row after each violation costs Theta(d n log n).  Each row is
    scored by the same `_excess` arithmetic in whatever block holds it, so
    the first violation, and the output, do not depend on the block sizes.
    The caveat is BLAS.  A one-row product takes a dot-product path whose
    last bit can differ, so a lone row is scored only where a full re-scan
    scores it alone: at n = 1 or right after a violation at n - 2.  And some
    builds round a row by its offset in the block (OpenBLAS's Haswell
    kernel at eight variables), where a full re-scan is just as exposed:
    there an excess within rounding of zero can move the first violation.
    A level of fewer than SCAN_SMALL rows goes to `_scan`, which keeps these
    blocks for the rows whose sign only BLAS can settle.
    """
    d = c.shape[0]
    if d == 1:
        return _base_1d(A, b, ids, c)
    n = A.shape[0]
    if n < SCAN_SMALL:
        x, chain = _scan(A.tolist(), b.tolist(), ids.tolist(), c.tolist(), rng)
        return np.array(x), chain
    x = np.where(c > PIVOT_TOL, BOX_BOUND, np.where(c < -PIVOT_TOL, -BOX_BOUND, 0.0))
    chain = []
    order = rng.permutation(n)
    A, b, ids = A[order], b[order], ids[order]
    b_tols = _offset_tols(b)
    pos, size = 0, FIRST_BLOCK
    while pos < n:
        end = min(n, pos + size)
        if end == n - 1:
            end = n  # BLAS scores a lone row by another path; see above
        bad = _excess(A[pos:end], b[pos:end], b_tols[pos:end], x) > 0
        first = int(bad.argmax())
        if not bad[first]:
            pos, size = end, 2 * size
            continue
        at = pos + first
        pos, size = at + 1, max(FIRST_BLOCK, at // 4)
        if np.abs(A[at]).max() < PIVOT_TOL:
            # all coefficients vanish: 0 <= b must hold or nothing does
            if b[at] < -FEAS_TOL * max(1.0, abs(b[at])):
                raise _Infeasible
            continue
        x, chain = _eliminate(A, b, ids, c, rng, at, slice(0, at))
    return x, chain


def _screen(A, b, tols, x, pos, end):
    """The first row of A[pos:end] that `_excess` might not score negative.

    Returns its index (`end` if there is none) and whether its excess is
    certainly positive.  Each row's excess e is computed in Python floats,
    with S = sum |a_k x_k|, and its sign is trusted only where |e| > gamma
    * (S + |b_i| + tol_i), gamma = 2 (d + 4) u with u = 2^-53.  This e and
    the one `_excess` computes in BLAS, in whatever order and with or
    without FMA, each lie within (d + 2) u (S + |b_i| + tol_i) of the exact
    excess, up to terms of order u^2 and EVAL_GUARD * u; beyond twice that
    both have the exact excess's sign.  The spare 4u of gamma covers those
    terms and the rounding of S and of the bound itself.  Underflow cannot
    break the bound, since tol_i >= FEAS_TOL, and an overflow or NaN fails
    both comparisons, so the row counts as undecided.
    """
    gamma = (2 * len(x) + 8) * 2.0 ** -53
    for i in range(pos, end):
        s = m = 0.0
        for p in map(mul, A[i], x):
            s += p
            m += abs(p)
        bi, t = b[i], tols[i]
        e = s - bi - (t + EVAL_GUARD * m)
        bound = gamma * (m + abs(bi) + t)
        if not e < -bound:
            return i, e > bound
    return end, False


def _scan(A, b, ids, c, rng):
    """`_solve` on Python lists, for a level of fewer than SCAN_SMALL rows.

    It draws the same permutation, scans the same blocks and eliminates as
    `_eliminate` does, value for value, so its output is `_solve`'s bit for
    bit.  Rows are scored by `_screen`; when a row's sign is within rounding
    before the first certain violation, the whole block is scored by
    `_excess` on arrays laid out as `_solve`'s, and its verdict is taken.
    """
    n = len(A)
    x = [BOX_BOUND if ci > PIVOT_TOL else -BOX_BOUND if ci < -PIVOT_TOL else 0.0
         for ci in c]
    chain = []
    if n:
        order = rng.permutation(n).tolist()
        A = [A[i] for i in order]
        b = [b[i] for i in order]
        ids = [ids[i] for i in order]
    tols = [FEAS_TOL * max(1.0, abs(bi)) for bi in b]
    arrays = None
    pos, size = 0, FIRST_BLOCK
    while pos < n:
        end = min(n, pos + size)
        if end == n - 1:
            end = n  # as in `_solve`, for the blocks `_excess` may score
        at, bad = _screen(A, b, tols, x, pos, end)
        if at < end and not bad:
            if arrays is None:
                arrays = np.array(A), np.array(b), np.array(tols)
            An, bn, tn = arrays
            hit = _excess(An[pos:end], bn[pos:end], tn[pos:end], np.array(x)) > 0
            first = int(hit.argmax())
            at = pos + first if hit[first] else end
        if at == end:
            pos, size = end, 2 * size
            continue
        pos, size = at + 1, max(FIRST_BLOCK, at // 4)
        row = A[at]
        if max(map(abs, row)) < PIVOT_TOL:
            if b[at] < -FEAS_TOL * max(1.0, abs(b[at])):
                raise _Infeasible
            continue
        x, chain = _eliminate_list(A, b, ids, c, rng, at)
    return x, chain


def _eliminate_list(A, b, ids, c, rng, at):
    """`_eliminate` on lists: pin row `at`, solve the rows before it.

    At two variables this is `_step_2d`.  From three up, the reduced rows
    are formed as `_eliminate` forms them, value for value, and solved by
    `_scan`; the eliminated variable is lifted by the same numpy dot
    product as there, since a Python sum of two or more products may round
    otherwise.
    """
    row, rb, rid = A[at], b[at], ids[at]
    head = [rid] if rid >= 0 else []
    d = len(c)
    if d == 2:
        x, chain = _step_2d(row, rb, zip(A[:at], b[:at], ids[:at]), c)
        return x, head + chain
    j = max(range(d), key=lambda k: abs(row[k]))  # the first largest
    pv = row[j]
    keep = [k for k in range(d) if k != j]
    ck = [row[k] / pv for k in keep]
    rhs = rb / pv
    # the prefix rows with x_j substituted, then the box rows of x_j
    Ared = [[r[k] - r[j] * q for k, q in zip(keep, ck)] for r in A[:at]]
    Ared += [[-q for q in ck], ck]
    bred = [bi - r[j] * rhs for r, bi in zip(A[:at], b)]
    bred += [BOX_BOUND - rhs, BOX_BOUND + rhs]
    cred = [c[k] - c[j] * q for k, q in zip(keep, ck)]
    xsub, chain = _scan(Ared, bred, ids[:at] + [-1, -1], cred, rng)
    x = xsub[:j] + [float(rhs - np.array(ck) @ np.array(xsub))] + xsub[j:]
    return x, head + chain


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
        if A.shape[0] == 0 or np.max(np.abs(x)) >= 0.999 * BOX_BOUND:
            break
        b_tols = _offset_tols(b)
        if A.shape[0] < SCAN_SMALL and _screen(
                A.tolist(), b.tolist(), b_tols.tolist(), x.tolist(), 0,
                A.shape[0])[0] == A.shape[0]:
            break  # every row certainly clean
        resid = _excess(A, b, b_tols, x)
        worst = int(np.argmax(resid))
        if resid[worst] <= 0:
            break
        if abs(A[worst, int(np.argmax(np.abs(A[worst])))]) < PIVOT_TOL:
            if b[worst] < -FEAS_TOL * max(1.0, abs(b[worst])):
                raise _Infeasible
            break
        prefix = np.delete(np.arange(A.shape[0]), worst)
        x, chain = _eliminate(A, b, ids, c, rng, worst, prefix)
    return x, chain


def _read(objective, x, chain, scale):
    """The result of an optimum x found in `_normalized` units.

    x on the implicit box means unbounded; otherwise its pinning chain,
    ids of the instance's rows, gives the tight set in chain order.
    """
    witness = x * scale
    if np.max(np.abs(x)) >= (1.0 - 1e-6) * BOX_BOUND:
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
    value is that of the objective as given.
    """
    d = instance.dim_vars
    if d > MAX_DIM:
        raise UnsupportedDimensionError(f"seidel_lp handles at most {MAX_DIM} variables, got {d}")
    if d == 0:
        raise ValueError("LP needs at least one variable")
    b, c, scale = _normalized(instance)
    A = instance.rows
    try:
        x, chain = _seidel(A, b, np.arange(A.shape[0], dtype=int), c,
                           np.random.default_rng(seed))
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
    """The reach b_i + VIOL_TOL * max(1, |b_i|) + 1e-13 beyond which a
    placed copy violates half-space i of P."""
    tol = VIOL_TOL * np.maximum(1.0, np.abs(P.offsets)) + 1e-13
    return P.offsets + tol


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
    on each row.  Each round then tests the standing optimum against all of
    P (`_overshoot`) and holds the deepest violator not yet held.  Where
    Seidel's own row test (`_excess`) finds that row violated too, it is
    inserted as Seidel's scan inserts a row: the optimum moves onto its
    boundary by one `_eliminate` over the rows held before it, with no
    re-solve.  Rows of P have unit normals, so none is flat.  The loop ends
    when no row outside those held is violated, which certifies the optimum
    for P, or when the rows held are empty; each round holds one more row,
    so it ends within n rounds.  An optimum on the implicit box that no row
    of P cuts is read as unbounded for P.  Returns the `LpResult` over the
    row ids of `A`, the rows of P held, unsorted (the first np.sort in a
    process adds about 0.25 MB to its peak memory, and a `beta_direct`
    fit's canonical step would pay it), the rows tested and the number of
    rounds.
    """
    n, d = len(P), rotation.dim
    mask = np.zeros(A.shape[0], dtype=bool)
    mask[np.asarray(start, dtype=int)] = True
    mask[int(np.argmax(np.abs(P.offsets)))] = True
    mask[n:] = True
    held = np.flatnonzero(mask)
    rng = np.random.default_rng(seed)
    tested, rounds = 0, 1
    try:
        x, chain = _seidel(A[held], b[held], held, c, rng)
        while True:
            w = x * scale
            depth = _overshoot(Placement(w[:d], max(float(w[d]), 0.0), rotation),
                               A[:n, -1], P, limits)
            tested += n
            depth[held[held < n]] = -math.inf
            r = int(depth.argmax())
            if not depth[r] > 0:
                break
            rounds += 1
            held = np.append(held, r)
            if _excess(A[r:r + 1], b[r:r + 1], _offset_tols(b[r:r + 1]), x)[0] > 0:
                k = held.size - 1
                x, chain = _eliminate(A[held], b[held], held, c, rng, k, slice(0, k))
    except _Infeasible:
        res = LpResult(INFEASIBLE, -math.inf, None, ())
    else:
        res = _read(c, x, chain, scale)
    return res, held[held < n], tested, rounds


def beta_fixed_rotation(K: VPolytope, rotation: Rotation, P: HPolytope,
                        seed=0, *, rows=None) -> BetaResult:
    """Largest alpha >= 0 with a + alpha * A * K inside P, at rotation A.

    Solves the len(P) + 1 row LP of `build_beta_instance`: by one
    `seidel_lp` call over all of it by default, and from `rows`, distinct
    start indices into P, by `_insertion_loop`, which reads the rows it
    does not hold only in violation tests.  `held`, `tested` and `solves`
    report the rows of P held at the end, the rows the violation tests
    read and the rounds (all of P, nothing and one solve by default), and
    `tight_rows` are the half-spaces of P among the optimum's pinning rows
    (the sign row is not one).  An empty container reports status
    "infeasible" with value 0; rows held that are empty already mean P is.
    A container that lets the copy grow forever reports "unbounded": an
    optimum on the implicit box is tested at that witness, so the rows
    that cut its ray are inserted, and if none is, P is unbounded there
    too.  The placement is the optimum's witness, which can move with
    `seed` where the optimum is not unique; `canonical_placement` picks one
    that does not.
    """
    n, d = len(P), K.dim
    inst = build_beta_instance(K, rotation, P)
    if rows is None:
        res, held, tested, solves = seidel_lp(inst, seed=seed), np.arange(n), 0, 1
    else:
        b, c, scale = _normalized(inst)
        res, held, tested, solves = _insertion_loop(
            inst.rows, b, c, scale, rotation, P, _violation_limits(P), rows, seed)
        held = np.sort(held)
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
