"""Largest rotated copy over a whole rotation net, three interchangeable ways.

`beta_direct` sweeps every net rotation, `beta_msw` reaches the same value
with an expected-linear number of constraint touches by sampling half-spaces
(Clarkson-style), and `beta_brute` minimizes over all small subfamilies,
which the other two must match.  Every method reports the witnessing
placement, a small basis of half-space indices that already pins the value,
and counters suitable for scaling measurements.
"""

import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import (
    HPolytope,
    Placement,
    UnsupportedDimensionError,
    VPolytope,
)
from .lp import OPTIMAL, beta_fixed_rotation, canonical_placement, support_values
from .nets import RotationNet, cached_net_2d

TIE_TOL = 1e-12      # relative slack when picking the winning rotation
BASIS_TOL = 1e-9     # value agreement required of a reduced family
VIOL_TOL = 1e-9      # per-row slack (relative to the offset) in violation tests
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
    """One fit LP per net rotation, each with its own seed."""
    return [beta_fixed_rotation(K, A, P, seed=_rotation_seed(seed, i), canonical=False)
            for i, A in enumerate(net.rotations)]


def _argmax_rotation(results):
    best = max(r.value for r in results)
    if math.isinf(best):
        return next(i for i, r in enumerate(results) if math.isinf(r.value)), best
    slack = TIE_TOL * max(1.0, abs(best))
    for i, r in enumerate(results):
        if r.value >= best - slack:
            return i, best
    raise AssertionError("argmax scan cannot miss its own maximum")


def _union_basis(results, index_map=None):
    rows = set()
    for r in results:
        rows.update(r.tight_rows)
    if index_map is not None:
        rows = {int(index_map[j]) for j in rows}
    return sorted(int(j) for j in rows)


def _subfamily_value(K, net, P, indices, seed):
    """Max fit scale over the net when only the given half-spaces constrain
    the copy; also reports how many LPs that took."""
    sub = P.take(list(indices))
    value, calls = 0.0, 0
    for i, A in enumerate(net.rotations):
        res = beta_fixed_rotation(K, A, sub, seed=_rotation_seed(seed, i),
                                  canonical=False)
        calls += 1
        value = max(value, res.value)
        if math.isinf(value):
            break
    return value, calls


def _finish(K, net, P, results, seed, stats, method):
    """Shared tail of all methods: canonicalize the winning rotation's solve.

    `results` are `_sweep`'s full-family solves.  The winner's value and
    tight rows are kept as solved; `canonical_placement`, with the seed
    `_sweep` gave that rotation (counted as one LP call), only replaces its
    translation, so the placement is bit-equal to `beta_fixed_rotation(...,
    canonical=True)` at that rotation and seed.
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
    basis = _union_basis(results)
    if len(basis) > len(net) * (K.dim + 1):
        basis = _greedy_prune(K, net, P, basis, win.value, seed, stats)
    return FitResult(win.value, placement, basis, method, stats, i_star)


def beta_direct(K: VPolytope, net: RotationNet, P: HPolytope, seed=0) -> FitResult:
    """Best scale of a translated, net-rotated copy of K inside P.

    Solves one LP per net rotation and keeps the winner; ties go to the
    lowest rotation index and, within an LP, to the lexicographically
    smallest translation, so results are reproducible across seeds.
    """
    if K.dim != P.dim or net.dim != K.dim:
        raise ValueError("body, net and container disagree on dimension")
    start = time.perf_counter()
    stats = SolveStats()
    results = _sweep(K, net, P, seed)
    stats.lp_calls += len(net)
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
    kept before no half-space objects; the value is then certified by one
    full-family solve at the winning rotation.  When sampling cannot finish
    (samples that stay unbounded, a certification that disagrees with the
    sample, or the round cap), it sweeps the full family with `beta_direct`,
    sets `stats.fallback` and names the cause in `stats.note`.
    """
    if K.dim != P.dim or net.dim != K.dim:
        raise ValueError("body, net and container disagree on dimension")
    start = time.perf_counter()
    n = len(P)
    delta = len(net) * (K.dim + 1)
    if n <= delta:
        inner = beta_direct(K, net, P, seed=seed)
        inner.method = "msw"
        inner.stats.wall_time_s = time.perf_counter() - start
        return inner

    stats = SolveStats()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) % (2 ** 63), 1]))
    keep = np.zeros(n, dtype=bool)
    sample_size = min(n, int(math.ceil(delta * math.sqrt(n))))
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
        stats.lp_calls += len(net)
        i_star, best = _argmax_rotation(results)
        if math.isinf(best):
            # the sample leaves the copy unbounded: widen and retry
            escalations += 1
            if escalations > 3 or sample_size >= n:
                reason = f"samples left the copy unbounded after {escalations} widenings"
                break
            sample_size = min(n, sample_size * 2)
            continue
        if results[i_star].placement is None:
            stats.note = "container is empty"
            stats.wall_time_s = time.perf_counter() - start
            return FitResult(0.0, None, [], "msw", stats, i_star)
        if i_star not in supports:
            supports[i_star] = support_values(K, net.rotations[i_star], P.normals)
        bad = _violators(results[i_star].placement, supports[i_star], P)
        stats.violation_tests += n
        if bad.size == 0:
            final = beta_fixed_rotation(K, net.rotations[i_star], P,
                                        seed=_rotation_seed(seed, i_star),
                                        canonical=True)
            stats.lp_calls += 1
            drift = abs(final.value - best) > 1e-6 * max(1.0, abs(best))
            if final.status != OPTIMAL or drift:
                # should not happen; re-derive everything plainly
                reason = (f"full-family certification disagreed with the sample "
                          f"({final.status}, {final.value!r} against {best!r})")
                break
            basis = sorted({int(subset[j]) for r in results for j in r.tight_rows}
                           | set(final.tight_rows))
            if len(basis) > delta:
                basis = _greedy_prune(K, net, P, basis, final.value, seed, stats)
            stats.wall_time_s = time.perf_counter() - start
            return FitResult(final.value, final.placement, basis, "msw", stats,
                             i_star)
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
    stats.lp_calls += len(net)
    out = _finish(K, net, P, results, 0, stats, "brute")
    out.beta = best
    stats.wall_time_s = time.perf_counter() - start
    return out


def _greedy_prune(K, net, P, basis, target, seed, stats=None):
    """Drop basis members whose removal leaves the subfamily value intact."""
    basis = sorted(set(int(j) for j in basis))
    for j in list(basis):
        if len(basis) == 1:
            break
        trial = [k for k in basis if k != j]
        value, calls = _subfamily_value(K, net, P, trial, seed)
        if stats is not None:
            stats.lp_calls += calls
        if abs(value - target) <= BASIS_TOL * max(1.0, abs(target)):
            basis = trial
    return basis


def extract_basis(result: FitResult, K: VPolytope, net: RotationNet,
                  P: HPolytope) -> list:
    """Small set of half-space indices that alone reproduce result.beta.

    Starts from the tight rows recorded in the result, greedily removes
    anything redundant, and re-solves on the survivors to confirm the
    value before returning them.
    """
    if not math.isfinite(result.beta):
        rows = result.basis or range(len(P))
        return sorted(int(j) for j in rows)
    basis = _greedy_prune(K, net, P, result.basis, result.beta, 0)
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
