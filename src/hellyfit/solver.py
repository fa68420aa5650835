"""Largest rotated copy over a whole rotation net, three interchangeable ways.

`beta_direct` sweeps the net rotations, `beta_msw` reaches the same value
with an expected-linear number of constraint touches by sampling half-spaces
(Clarkson-style), and `beta_brute` minimizes over all small subfamilies,
which the other two must match.  Every method reports the witnessing
placement, a small basis of half-space indices that already pins the value,
and counters suitable for scaling measurements.

All of them end in one tail, `_finish`: it keeps the winning rotation's
solve and only canonicalizes its placement over the whole container.  For
`beta_msw` that solve is a sample's, certified by the violation test that
found no half-space it leaves, so `beta_msw` never solves the scale LP
over all of the container.

All of them sweep the net the same way (`_sweep`): best first, solving a
rotation's LP only while no solved rotation's dual rules it out.  The dual
of each solved LP (`lp.scale_dual`) bounds the scale at every rotation by
weak duality, and the sweep stops once every unsolved bound lies below the
best value by more than the tie slack, so the winner and every rotation
tied with it are still solved with their own seeds.
"""

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .geometry import (
    HPolytope,
    Placement,
    UnsupportedDimensionError,
    VPolytope,
)
from .lp import (
    OPTIMAL,
    beta_fixed_rotation,
    canonical_placement,
    scale_dual,
    support_values,
)
from .nets import RotationNet, cached_net_2d

TIE_TOL = 1e-12      # relative slack when picking the winning rotation
BASIS_TOL = 1e-9     # value agreement required of a reduced family
VIOL_TOL = 1e-9      # per-row slack (relative to the offset) in violation tests
PRUNE_SLACK = 1e-7   # relative margin for LP and rounding error when pruning a rotation
BRUTE_LIMIT = 10 ** 6


@dataclass
class SolveStats:
    """Work counters; values depend on the seed, unlike the fit itself."""

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
    alone already forces the same beta; its size never exceeds
    len(net) * (d + 1).  `rotation_index` is the winning net element.
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


def _sweep(K, net, P, seed):
    """The fit LPs of the net rotations that the best value depends on.

    Returns one entry per rotation: `beta_fixed_rotation` with the seed
    `_rotation_seed(seed, i)`, or None for a rotation that was not solved.
    Rotation 0 is solved first; each optimal solve's dual bounds every
    rotation, each rotation keeps the least bound so far, and the open
    rotation of highest bound (lowest index on a tie) is solved next, until
    every open bound lies below best - (TIE_TOL + PRUNE_SLACK) * max(1,
    |best|).  A rotation within TIE_TOL of the best has a bound at least its
    value, so it is never pruned.  After a solve that is not optimal
    (unbounded or empty) every remaining rotation is solved in index order.
    """
    t = len(net)
    results = [None] * t

    def solve(i):
        results[i] = beta_fixed_rotation(K, net.rotations[i], P,
                                         seed=_rotation_seed(seed, i),
                                         canonical=False)
        return results[i]

    bounds = np.full(t, math.inf)   # -inf once solved
    best, i = -math.inf, 0
    for solves in range(1, t + 1):
        res = solve(i)
        bounds[i] = -math.inf
        if res.status != OPTIMAL:
            for j in range(t):
                if results[j] is None:
                    solve(j)
            break
        best = max(best, res.value)
        if solves == t:
            break
        dual = scale_dual(K, net.rotations[i], P, res.tight_rows)
        if dual is not None:
            np.minimum(bounds, dual.bounds(K, net.matrices), out=bounds)
        i = int(bounds.argmax())
        if bounds[i] < best - (TIE_TOL + PRUNE_SLACK) * max(1.0, abs(best)):
            break
    return results


def _solved(results):
    return sum(r is not None for r in results)


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


def _subfamily_value(K, net, P, indices, seed):
    """Max fit scale over the net when only the given half-spaces constrain
    the copy; also reports how many LPs that took."""
    results = _sweep(K, net, P.take(list(indices)), seed)
    value = max([0.0] + [r.value for r in results if r is not None])
    return value, _solved(results)


def _finish(K, net, P, results, seed, stats, method):
    """Shared tail of all methods: canonicalize the winning rotation's solve.

    `results` are `_sweep`'s solves, None where pruned, over P itself or
    over a sample of P whose winning placement leaves no half-space of P
    (`beta_msw`); their tight rows index P.  The winner's value and tight
    rows are kept as solved; `canonical_placement` over all of P, with the
    seed `_sweep` gave that rotation (counted as one LP call), only replaces
    its translation, so for a sweep over P the placement is bit-equal to
    `beta_fixed_rotation(..., canonical=True)` at that rotation and seed.
    The basis is the union of the solved rotations' tight rows: each solved
    rotation is pinned by its rows and each pruned one stays below the best
    by the dual on a solved rotation's rows, and with at most d + 1 rows
    per Seidel chain the union never exceeds len(net) * (d + 1).
    """
    i_star, best = _argmax_rotation(results)
    if math.isinf(best):
        stats.note = "container does not bound the copy"
        return FitResult(math.inf, None, _union_basis(results), method, stats,
                         i_star)
    win = results[i_star]
    if win.status != OPTIMAL:
        stats.note = "container is empty"
        return FitResult(0.0, None, [], method, stats, i_star)
    placement = canonical_placement(K, win.placement, P, _rotation_seed(seed, i_star))
    stats.lp_calls += 1
    return FitResult(win.value, placement, _union_basis(results), method, stats,
                     i_star)


def beta_direct(K: VPolytope, net: RotationNet, P: HPolytope, seed=0) -> FitResult:
    """Best scale of a translated, net-rotated copy of K inside P.

    Solves one LP per net rotation that no solved rotation's dual rules
    out (`_sweep`), best first, and keeps the winner; ties go to the lowest
    rotation index and, within an LP, to the lexicographically smallest
    translation, so results are reproducible across seeds and equal to a
    sweep of every rotation.
    """
    if K.dim != P.dim or net.dim != K.dim:
        raise ValueError("body, net and container disagree on dimension")
    start = time.perf_counter()
    stats = SolveStats()
    results = _sweep(K, net, P, seed)
    stats.lp_calls += _solved(results)
    out = _finish(K, net, P, results, seed, stats, "direct")
    stats.wall_time_s = time.perf_counter() - start
    return out


def _violators(placement, support, P):
    """Indices of half-spaces the placed copy leaves.

    `support` holds h_AK(u_i) for every half-space at the placement's
    rotation, so each test is the scale LP's own row
    <u_i, a> + s * h_AK(u_i) <= b_i.
    """
    depth = P.normals @ placement.translation + placement.scale * support
    tol = VIOL_TOL * np.maximum(1.0, np.abs(P.offsets)) + 1e-13
    return np.nonzero(depth > P.offsets + tol)[0]


def beta_msw(K: VPolytope, net: RotationNet, P: HPolytope, seed=0) -> FitResult:
    """Same fit as beta_direct, touching each half-space O(1) times expected.

    Iteratively solves on a random sample of half-spaces plus everything
    that ever violated a trial placement.  A round is kept only when it
    produces few violators, so at most len(net) * (d + 1) rounds can be
    kept before no half-space objects.  The violation test of that last
    round is the certificate (Clarkson): a sample optimum that no half-space
    of P violates is optimal for P, so its sweep goes to `_finish` as it
    stands, and only the canonical placement touches all n rows again.  β
    and the rotation are `beta_direct`'s; β agrees to the LP tolerance, not
    bit for bit.  A family that the first sample, ceil(delta * sqrt(n))
    half-spaces with delta = len(net) * (d + 1), would take whole (any
    n <= delta^2) goes straight to `beta_direct`, and the result is
    `beta_direct`'s, with `violation_tests` 0.  When sampling cannot finish
    (samples that stay unbounded, or the round cap), it sweeps the full
    family with `beta_direct`, sets `stats.fallback` and names the cause in
    `stats.note`.
    """
    if K.dim != P.dim or net.dim != K.dim:
        raise ValueError("body, net and container disagree on dimension")
    start = time.perf_counter()
    n = len(P)
    delta = len(net) * (K.dim + 1)
    sample_size = min(n, int(math.ceil(delta * math.sqrt(n))))
    if sample_size >= n:
        # the first sample would be all of P (n <= delta^2): sweep it once
        inner = beta_direct(K, net, P, seed=seed)
        inner.method = "msw"
        inner.stats.wall_time_s = time.perf_counter() - start
        return inner

    stats = SolveStats()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) % (2 ** 63), 1]))
    keep = np.zeros(n, dtype=bool)
    accept_bound = 2.0 * math.sqrt(n)
    round_cap = 8 * (delta + 2)
    escalations = 0
    supports = {}   # net index -> h_AK(u_i) over all of P, built on first use

    for _ in range(round_cap):
        rest = np.nonzero(~keep)[0]
        extra = min(sample_size, rest.size)
        picked = rng.choice(rest, size=extra, replace=False) if extra else rest[:0]
        subset = np.sort(np.concatenate([np.nonzero(keep)[0], picked]))
        results = _sweep(K, net, P.take(subset), seed)
        stats.lp_calls += _solved(results)
        i_star, best = _argmax_rotation(results)
        if math.isinf(best):
            # the sample leaves the copy unbounded: widen and retry
            escalations += 1
            if escalations > 3 or sample_size >= n:
                reason = f"samples left the copy unbounded after {escalations} widenings"
                break
            sample_size = min(n, sample_size * 2)
            continue
        win = results[i_star]
        bad = np.empty(0, dtype=int)
        if win.status == OPTIMAL:
            if i_star not in supports:
                supports[i_star] = support_values(K, net.rotations[i_star], P.normals)
            bad = _violators(win.placement, supports[i_star], P)
            stats.violation_tests += n
        if bad.size == 0:
            # no half-space of P objects, so the sample's optimum is P's
            # (an empty sample means P is empty): `_finish` keeps it
            lifted = [None if r is None else replace(
                r, tight_rows=tuple(int(subset[j]) for j in r.tight_rows))
                for r in results]
            out = _finish(K, net, P, lifted, seed, stats, "msw")
            stats.wall_time_s = time.perf_counter() - start
            return out
        if bad.size <= accept_bound:
            keep[bad] = True
    else:
        # round budget exhausted (adversarial or degenerate input)
        reason = f"sampling rounds exhausted after {round_cap} rounds"

    inner = beta_direct(K, net, P, seed=seed)
    stats.lp_calls += inner.stats.lp_calls
    stats.fallback = True
    stats.note = "; ".join(filter(None, [f"{reason}, swept the full family",
                                         inner.stats.note]))
    stats.wall_time_s = time.perf_counter() - start
    return FitResult(inner.beta, inner.placement, inner.basis, "msw", stats,
                     inner.rotation_index)


def beta_brute(K: VPolytope, net: RotationNet, P: HPolytope) -> FitResult:
    """Minimum fit over every small subfamily of half-spaces.

    Enumerates all subsets of size len(net) * (d + 1) (capped at 10^6
    tuples) and minimizes the per-subset fit; the result must agree with
    the whole-family methods, which makes it a strong cross-check despite
    the cost.
    """
    if K.dim != P.dim or net.dim != K.dim:
        raise ValueError("body, net and container disagree on dimension")
    start = time.perf_counter()
    n = len(P)
    size = min(len(net) * (K.dim + 1), n)
    count = math.comb(n, size)
    if count > BRUTE_LIMIT:
        raise ValueError(
            f"brute enumeration needs C({n}, {size}) = {count} tuples, "
            f"over the {BRUTE_LIMIT} limit")
    stats = SolveStats()
    best = math.inf
    for subset in combinations(range(n), size):
        value, calls = _subfamily_value(K, net, P, subset, 0)
        stats.lp_calls += calls
        best = min(best, value)
    # the minimizing subset pins the value; placement and basis still come
    # from the whole family so the reported copy respects every half-space
    results = _sweep(K, net, P, 0)
    stats.lp_calls += _solved(results)
    out = _finish(K, net, P, results, 0, stats, "brute")
    out.beta = best
    stats.wall_time_s = time.perf_counter() - start
    return out


def extract_basis(result: FitResult, K: VPolytope, net: RotationNet,
                  P: HPolytope) -> list:
    """Small set of half-space indices that alone reproduce result.beta.

    Support, then verify: the basis is the result's own, the union of the
    solved rotations' tight rows, sorted.  It is re-solved once to confirm
    that it reproduces beta within BASIS_TOL and checked against the
    len(net) * (d + 1) bound before it is returned.
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
    if len(basis) > len(net) * (K.dim + 1):
        raise RuntimeError(f"basis of size {len(basis)} exceeds the bound")
    return basis


def alpha_reference(K: VPolytope, P: HPolytope, fine_eps: float, seed=0) -> float:
    """Near-exact best fit over all rotations, for use as a test yardstick.

    Runs the direct sweep on a net much finer than anyone would use in
    anger; the true optimum over the rotation group lies within a factor
    (1 - fine_eps) of the returned value.
    """
    if K.dim != 2:
        raise UnsupportedDimensionError("reference sweeps are planar only")
    net = cached_net_2d(K, fine_eps)
    return beta_direct(K, net, P, seed=seed).beta
