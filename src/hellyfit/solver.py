"""Largest rotated copy over a whole rotation net, three interchangeable ways.

`beta_direct` and `beta_msw` share one sweep of the net (`_fit`, `_sweep`):
best first, one LP per class of rotations whose copies of K are
translates of one another (`_class_map`), skipping the classes that a
solved rotation's dual rules out.  Both solve each LP by the same
insertion loop (`lp.beta_fixed_rotation`): Seidel's scan over a few rows,
then the deepest violator of P inserted into that optimum, one row a
round, until no half-space objects, so all of P is read only in
vectorized violation tests.  They differ in the start rows: none for
`beta_direct`, and for `beta_msw` the support of the dual that bounds the
class where there is one.  `beta_brute` minimizes over all small
subfamilies, which the other two must match.  Every method reports the witnessing placement, a
small basis of half-space indices that already pins the value, and
counters suitable for scaling measurements.

All of them end in one tail, `_finish`: it keeps the winning rotation's
solve, only canonicalizes its placement (`lp.canonical_placement`, whose
lexicographic stages run the same insertion loop as `beta_msw`'s class
solves, from the half-spaces nearly tight at the solved optimum), and
builds the basis from the supports of the solved rotations' checked duals,
at most (number of classes) * (d + 1) half-spaces.
"""

import logging
import math
import time
import weakref
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import (
    DegenerateGeometryError,
    HPolytope,
    Placement,
    UnsupportedDimensionError,
    VPolytope,
)
from .lp import (
    OPTIMAL,
    beta_fixed_rotation,
    canonical_placement,
    near_tight_dual,
    scale_dual,
)
from .nets import RotationNet, cached_net_2d

TIE_TOL = 1e-12      # relative slack when picking the winning rotation
MERGE_TOL = TIE_TOL / 10    # relative vertex distance within which rotated copies merge
BASIS_TOL = 1e-9     # value agreement required of a reduced family
PRUNE_SLACK = 1e-7   # relative margin for LP and rounding error when pruning a rotation
BRUTE_LIMIT = 10 ** 5     # class solves, subsets * `_class_count`, that beta_brute may make

log = logging.getLogger(__name__)


@dataclass
class SolveStats:
    """Work counters; values depend on the seed, unlike the fit itself.

    `fallback` stays in the JSON for readers of earlier output; no solver
    sets it any more.
    """

    lp_calls: int = 0
    violation_tests: int = 0
    wall_time_s: float = 0.0
    fallback: bool = False
    note: str = ""

    def to_json(self):
        return {
            "lp_calls": int(self.lp_calls),
            "violation_tests": int(self.violation_tests),
            "wall_time_s": float(self.wall_time_s),
            "fallback": bool(self.fallback),
            "note": self.note,
        }


@dataclass(eq=False)
class FitResult:
    """Best scale over a net, its witness, and a pinning subfamily.

    `basis` lists half-space indices of the container whose intersection
    alone already forces the same beta: exactly the supports of the solved
    rotations' checked duals.  They may leave the copy free to slide (two
    opposite walls of a box, say); a re-solve on them is still optimal at
    beta, since `seidel_lp` reads a slide as no gain.  Its size never
    exceeds c * (d + 1) for a net whose rotations fall into c translation
    classes, which is at most len(net) * (d + 1).  `rotation_index` is the
    winning net element.
    `stats.lp_calls` counts each round of a class loop as a solve, a
    round being one solve or one insertion into the standing optimum.
    """

    beta: float
    placement: Placement | None
    basis: list
    method: str
    stats: SolveStats
    rotation_index: int = -1

    def to_json(self):
        return {
            "beta": float(self.beta),
            "placement": None if self.placement is None else self.placement.to_json(),
            "basis": [int(i) for i in self.basis],
            "method": self.method,
            "stats": self.stats.to_json(),
        }


def _rotation_seed(seed, i):
    root = int(seed) % (2 ** 63)
    return int(np.random.SeedSequence([root, int(i)]).generate_state(1)[0])


_CLASS_MAPS = weakref.WeakKeyDictionary()   # net -> {body key: `_class_map`}


def _rotation_classes(K, net):
    """`_class_map(K, net)`, computed on first use and kept while the net lives."""
    maps = _CLASS_MAPS.setdefault(net, {})
    key = (K.vertices.shape, K.vertices.tobytes())
    rep = maps.get(key)
    if rep is None:
        rep = maps[key] = _class_map(K, net)
    return rep


def _class_count(K, net):
    """How many translation classes `_class_map` finds among the net's rotations."""
    rep = _rotation_classes(K, net)
    return int(np.count_nonzero(rep == np.arange(len(net))))


def _class_map(K, net):
    """rep[i]: the lowest net index whose copy of K is a translate of A_i K.

    Let c be the mean of K's vertices, rho > 0 the distance from c to the
    boundary of K, and C_i = {A_i (v - c)} the centred vertex set of
    rotation i.  Rotation i joins the class of j < i when a bijection of
    C_i onto C_j moves no vertex by more than delta = MERGE_TOL * rho.
    Then the values differ by a relative MERGE_TOL at most, for any
    container.  Write X_i = A_i K - A_i c.  Every point of X_i is a convex
    combination of C_i, so it lies within delta of the same combination of
    C_j, and X_i lies in X_j + delta B.  X_j contains the ball rho B, and it
    is convex, so X_j + delta B lies in (1 + delta / rho) X_j =
    (1 + MERGE_TOL) X_j.  The inverse bijection gives X_j in
    (1 + MERGE_TOL) X_i the same way.  A container holding a translate of
    beta X_i thus holds one of beta / (1 + MERGE_TOL) X_j, so beta_j >=
    beta_i / (1 + MERGE_TOL), and the same holds with i and j swapped.
    MERGE_TOL is TIE_TOL / 10, so a merged rotation could move the best
    value by a tenth of the tie slack: the lowest index within TIE_TOL of
    the best, which is its class's lowest index, stays the winner unless a
    value lies within MERGE_TOL of the tie threshold.  This bounds the LPs'
    exact values only.  Where several rows are nearly tight at the optimum,
    the values seidel_lp computes for one class can differ by its row
    tolerance (about 1e-10 relative has been seen on the square), far above
    TIE_TOL; a sweep of every rotation then keeps the largest of them, and
    the class sweep the lowest index's, so beta and the rotation index
    match that sweep only up to the row tolerance.  The test reads vertex
    sets computed in floating point, so it asks for distance delta less a
    rounding bound of 4 (d + 2) units in the last place of R, the largest
    |v - c|.  That bound exceeds delta when rho / R < 4 (d + 2) eps /
    MERGE_TOL, about 0.036 for d = 2 and 0.044 for d = 3: such thin bodies
    never merge, and every rotation of theirs is solved.  Candidates are
    grouped by keys rounded to a grid of 2^-20 R, far coarser than delta;
    a pair that the grid splits is not merged, which costs only a solve.
    The first key is the coordinate ranges of C_i, which equal vertex sets
    share; only when two rotations share one are the sorted vertex sets
    built and grouped, and only when two of those share a key is the hull,
    for rho, built.  A body whose hull this cannot compute, e.g. outside
    d = 2, 3, merges nothing.
    """
    t = len(net)
    rep = np.arange(t)
    c = K.vertices.mean(axis=0)
    V = K.vertices - c
    R = float(np.linalg.norm(V, axis=1).max())
    if t == 1 or not R > 0.0:
        return rep
    grid = 2.0 ** 20 / R
    ranges = np.stack([f(V @ net.matrices[:, k].T, axis=0)
                       for k in range(K.dim) for f in (np.min, np.max)], axis=1)
    if np.array_equal(_first_with_key(np.round(ranges * grid).astype(np.int64)), rep):
        return rep
    C = V @ net.matrices.transpose(0, 2, 1)       # (t, m, d)
    Q = np.round(C * grid).astype(np.int64)
    order = np.lexsort(Q.transpose(2, 0, 1)[::-1], axis=-1)[..., None]
    C = np.take_along_axis(C, order, axis=1)
    cand = _first_with_key(np.take_along_axis(Q, order, axis=1).reshape(t, -1))
    if np.array_equal(cand, rep):
        return rep
    try:
        facets = K.hull_halfspaces()
    except (DegenerateGeometryError, UnsupportedDimensionError):
        return rep
    rho = float(np.min(facets.offsets - facets.normals @ c))
    delta = MERGE_TOL * rho - 4.0 * (K.dim + 2) * np.finfo(float).eps * R
    close = np.linalg.norm(C - C[cand], axis=2).max(axis=1) <= delta
    return np.where(close, cand, rep)


def _first_with_key(keys):
    """For each row of `keys`, the lowest row index with the same values."""
    first = {}
    return np.array([first.setdefault(row.tobytes(), i) for i, row in enumerate(keys)])


def _sweep(K, net, P, seed, msw=False):
    """The fit LPs of the rotation classes that the best value depends on.

    Returns one entry per rotation: `beta_fixed_rotation` with the seed
    `_rotation_seed(seed, i)`, or None for a rotation that was not solved;
    and a dict from rotation index to the dual (`lp.scale_dual` on its
    Seidel chain, None where rejected) of each solve whose dual bounded
    the others.  Only the lowest index of a class (`_class_map`) is ever
    solved, with its own seed, and that solve stands for the whole class.  Rotation 0's
    class is solved first; each optimal solve's dual bounds every
    rotation, each rotation keeps the least bound so far and the support
    (`ScaleDual.support`) of the dual that set it, and the class of the
    open rotation of highest bound (lowest index on a tie) is solved next,
    until every open bound lies below best - (TIE_TOL + PRUNE_SLACK) *
    max(1, |best|).  A rotation within TIE_TOL of the best has a bound at
    least its value, so its class is never pruned.  After a solve that is
    not optimal (unbounded or empty) every remaining class is solved in
    index order.

    Each class is solved by `beta_fixed_rotation`'s insertion loop.  With
    `msw` it starts from the support of the dual that bounds the class, at
    most d + 1 rows of P that alone bound its scale, or from none for a
    class that no dual bounds yet, such as the first; without, from none.
    A dual from a loop lies on rows of P and bounds P's scale, as a
    subfamily never allows less.
    """
    t = len(net)
    rep = _rotation_classes(K, net)
    results = [None] * t
    duals = {}
    bounds = np.full(t, math.inf)   # -inf once its class is solved
    binding = [None] * t            # support of the dual that set bounds[i]

    def solve(i):
        rows = binding[i] if msw else None
        results[i] = beta_fixed_rotation(K, net[i], P,
                                         seed=_rotation_seed(seed, i), rows=rows)
        bounds[rep == i] = -math.inf
        return results[i]

    best, i = -math.inf, 0
    while True:
        i = int(rep[i])
        res = solve(i)
        if res.status != OPTIMAL:
            for j in range(t):
                if rep[j] == j and results[j] is None:
                    solve(j)
            break
        best = max(best, res.value)
        if bounds.max() == -math.inf:
            break
        dual = duals[i] = scale_dual(K, res.placement.rotation, P, res.tight_rows)
        if dual is not None:
            new = dual.bounds(K, net.matrices)
            lower = np.flatnonzero(new < bounds)
            bounds[lower] = new[lower]
            support = np.array(dual.support)
            for j in lower:
                binding[j] = support
        i = int(bounds.argmax())
        if bounds[i] < best - (TIE_TOL + PRUNE_SLACK) * max(1.0, abs(best)):
            break
    return results, duals


def _lp_calls(results):
    return sum(r.solves for r in results if r is not None)


def _argmax_rotation(results):
    solved = [(i, r) for i, r in enumerate(results) if r is not None]
    best = max(r.value for _, r in solved)
    if math.isinf(best):
        return next(i for i, r in solved if math.isinf(r.value)), best
    slack = TIE_TOL * max(1.0, abs(best))
    for i, r in solved:
        if r.value >= best - slack:
            return i, best
    raise AssertionError("argmax scan cannot miss its own maximum")


def _union_basis(results):
    rows = set()
    for r in results:
        if r is not None:
            rows.update(r.tight_rows)
    return sorted(int(j) for j in rows)


def _certified(K, P, res, dual):
    """The rows that pin an optimal solve's value: a checked dual's support.

    `dual` is `scale_dual` on the solve's Seidel chain, None where that
    was rejected.  Its support, at most d + 1 rows, is returned when the
    scale it allows at this rotation (`ScaleDual.value`) matches the
    solve's value within BASIS_TOL; otherwise `near_tight_dual`'s is,
    under the same check.  Failing both, the chain is returned and a
    warning is logged.
    """
    tol = BASIS_TOL * max(1.0, abs(res.value))
    if dual is None or abs(dual.value - res.value) > tol:
        dual = near_tight_dual(K, res.placement, P)
    if dual is not None and abs(dual.value - res.value) <= tol:
        return dual.support
    log.warning("no checked dual pins the scale %.17g of a net rotation; its"
                " basis keeps the %d rows of its Seidel chain",
                res.value, len(res.tight_rows))
    return res.tight_rows


def _subfamily_value(K, net, P, indices, seed):
    """Max fit scale over the net when only the given half-spaces constrain
    the copy; also reports how many LPs that took."""
    results, _ = _sweep(K, net, P.take(list(indices)), seed)
    value = max([0.0] + [r.value for r in results if r is not None])
    return value, _lp_calls(results)


def _finish(K, P, swept, stats, method):
    """Shared tail of all methods: canonicalize the winning rotation's solve.

    `swept` is `_sweep`'s output over P: the solves, None where pruned or
    stood for by their class, and the duals the sweep computed.  The
    winner's value is kept as solved; `canonical_placement` (counted as
    one LP call, plus the rows that its violation tests read, at least one
    test of P per lexicographic stage) only replaces its translation,
    starting from the rows nearly tight at the winner's optimum.  The basis, as indices into P, is the union over the solved
    rotations of the rows that pin their values (`_certified`, at most
    d + 1 each, from the sweep's dual where it computed one and
    `scale_dual` on the chain where not), so at most `_class_count` *
    (d + 1) rows: each member of a class is a translate of its solved
    rotation, and each pruned one stays below the best by the dual on a
    solved rotation's chain.
    """
    results, duals = swept
    i_star, best = _argmax_rotation(results)
    if math.isinf(best):
        stats.note = "container does not bound the copy"
        return FitResult(math.inf, None, _union_basis(results), method, stats, i_star)
    win = results[i_star]
    if win.status != OPTIMAL:
        stats.note = "container is empty"
        return FitResult(0.0, None, [], method, stats, i_star)
    placement, tested = canonical_placement(K, win.placement, P)
    stats.lp_calls += 1
    stats.violation_tests += tested
    rows = set()
    for i, r in enumerate(results):
        if r is not None and r.ok:
            dual = duals[i] if i in duals else scale_dual(K, r.placement.rotation, P,
                                                          r.tight_rows)
            rows.update(_certified(K, P, r, dual))
    return FitResult(win.value, placement, sorted(rows), method, stats, i_star)


def _fit(K, net, P, seed, method):
    """`beta_direct` and `beta_msw`: one `_sweep`, then `_finish`.

    For "msw" the sweep solves each class by an insertion loop from the
    support of the dual that bounds it, or from no row of P where none
    does; the counters add up the loops' rounds and the rows their
    violation tests read.
    """
    if K.dim != P.dim or net.dim != K.dim:
        raise ValueError("body, net and container disagree on dimension")
    start = time.perf_counter()
    stats = SolveStats()
    swept = _sweep(K, net, P, seed, msw=method == "msw")
    results = swept[0]
    stats.lp_calls += _lp_calls(results)
    stats.violation_tests += sum(r.tested for r in results if r is not None)
    out = _finish(K, P, swept, stats, method)
    stats.wall_time_s = time.perf_counter() - start
    return out


def beta_direct(K: VPolytope, net: RotationNet, P: HPolytope, seed=0) -> FitResult:
    """Best scale of a translated, net-rotated copy of K inside P.

    Solves one LP per class of net rotations that no solved rotation's
    dual rules out (`_sweep`), best first, each by the insertion loop from
    no row of P (`lp.beta_fixed_rotation`), and keeps the winner;
    ties go to the lowest rotation index and, within an LP, to the
    lexicographically smallest translation, so results are reproducible
    across seeds.  They match a sweep of every rotation up to seidel_lp's
    row tolerance: within a class only the lowest index is solved, and it
    wins where another member's reading would be larger by that tolerance.
    """
    return _fit(K, net, P, seed, "direct")


def beta_msw(K: VPolytope, net: RotationNet, P: HPolytope, seed=0) -> FitResult:
    """Same fit as beta_direct, each class loop started from a dual's support.

    The same sweep and insertion loop as `beta_direct`
    (`lp.beta_fixed_rotation`); only the start rows differ.  For each class
    it cannot prune, Seidel's scan solves the rows held: the support of the dual
    that bounds the class, at most d + 1 rows that an earlier class's
    solve found, or none for the first class, plus the sign row and P's
    row of largest |b|.  Each round then tests all of P against the
    standing optimum and inserts the deepest violator not yet held, by one
    Seidel step over the rows held, with no re-solve; the loop stops when
    no row is violated.  That last violation test is the certificate: an
    optimum on rows of P that no row of P violates is optimal for P.  The
    canonical step, as for every method, starts from the rows nearly tight
    at the winner's optimum, so all of P is read only by violation tests,
    and `violation_tests` counts every row they read.  β, the rotation and
    the placement are `beta_direct`'s up to the LP tolerance, not bit for
    bit, and where several rows pin the optimum the basis may name others
    of them.
    """
    return _fit(K, net, P, seed, "msw")


def beta_brute(K: VPolytope, net: RotationNet, P: HPolytope) -> FitResult:
    """Minimum fit over every small subfamily of half-spaces.

    Enumerates all subsets of c * (d + 1) half-spaces, the basis size for
    the net's c rotation classes (`_class_count`), and minimizes the
    per-subset fit.  Each subset sweeps up to c class solves, so the
    subsets times c are capped at BRUTE_LIMIT.  The result must agree with
    the whole-family methods, which makes it a strong cross-check despite
    the cost.
    """
    if K.dim != P.dim or net.dim != K.dim:
        raise ValueError("body, net and container disagree on dimension")
    start = time.perf_counter()
    n, classes = len(P), _class_count(K, net)
    size = min(classes * (K.dim + 1), n)
    count = math.comb(n, size)
    if count * classes > BRUTE_LIMIT:
        msg = (f"brute enumeration needs C({n}, {size}) = {count} subsets of "
               f"{classes} class solves each, {count * classes} solves, over "
               f"the {BRUTE_LIMIT} limit")
        log.warning("refused: %s", msg)
        raise ValueError(msg)
    stats = SolveStats()
    best = math.inf
    for subset in combinations(range(n), size):
        value, calls = _subfamily_value(K, net, P, subset, 0)
        stats.lp_calls += calls
        best = min(best, value)
    # the minimizing subset pins the value; placement and basis still come
    # from the whole family so the reported copy respects every half-space
    swept = _sweep(K, net, P, 0)
    stats.lp_calls += _lp_calls(swept[0])
    out = _finish(K, P, swept, stats, "brute")
    out.beta = best
    stats.wall_time_s = time.perf_counter() - start
    return out


def extract_basis(result: FitResult, K: VPolytope, net: RotationNet,
                  P: HPolytope) -> list:
    """Small set of half-space indices that alone reproduce result.beta.

    Support, then verify: the basis is the result's own, the union of the
    supports of the solved rotations' checked duals (see `FitResult`),
    sorted, with no rows added.  It is re-solved once to confirm that it
    reproduces beta within BASIS_TOL, also where its rows leave the copy
    free to slide, and checked against the bound of d + 1 rows per
    rotation class (`_class_count`) before it is returned.
    """
    if not math.isfinite(result.beta):
        rows = result.basis or range(len(P))
        return sorted(int(j) for j in rows)
    basis = sorted(int(j) for j in result.basis)
    if not basis:
        return []
    value, _ = _subfamily_value(K, net, P, basis, 0)
    if abs(value - result.beta) > BASIS_TOL * max(1.0, abs(result.beta)):
        raise RuntimeError(
            f"basis {basis} reproduces {value}, expected {result.beta}")
    if len(basis) > _class_count(K, net) * (K.dim + 1):
        raise RuntimeError(f"basis of size {len(basis)} exceeds the bound")
    return basis


def alpha_reference(K: VPolytope, P: HPolytope, fine_eps: float, seed=0,
                    reflections=False) -> float:
    """Near-exact best fit over all rotations, for use as a test yardstick.

    Runs the direct sweep on a net much finer than anyone would use in
    anger; the true optimum over the rotation group, or over all
    isometries with `reflections`, lies within a factor (1 - fine_eps) of
    the returned value.
    """
    if K.dim != 2:
        raise UnsupportedDimensionError("reference sweeps are planar only")
    net = cached_net_2d(K, fine_eps)
    return beta_direct(K, net.with_reflections() if reflections else net, P, seed=seed).beta
