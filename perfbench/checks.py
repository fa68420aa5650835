"""Output checks made apart from hellyfit: plain numpy and scipy's HiGHS.

Every check returns a list of problems; an empty list means the output
passed.  The scale LP is re-posed here in its n + 1 support-function rows
(`<u_i, a> + alpha * h_AK(u_i) <= b_i`, `alpha >= 0`) and solved with
`scipy.optimize.linprog(method="highs")`, which shares no code with
hellyfit's own Seidel solver.
"""

import math
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

REL_TOL = 1e-6        # beta against HiGHS, relative
CONTAIN_TOL = 1e-9    # placed vertices against every half-space, see _slack
GRID = 72             # angles of the rotation grid for the fit_cli sandwich
LAB_SUBSETS = 3       # inflation placements re-derived per demo


def highs_scale(V, R, U, b):
    """Largest alpha with a translate of alpha * R * conv(V) inside {U x <= b}."""
    h = (U @ (V @ R.T).T).max(axis=1)
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


def best_over(V, rotations, U, b):
    values = [highs_scale(V, R, U, b) for R in rotations]
    return max(-math.inf if v is None else v for v in values)


def rotation_of(pl):
    R = np.asarray(pl["rotation"], dtype=float)
    d = math.isqrt(R.size)
    return R.reshape(d, d)


def _slack(V, b, beta):
    """How far a correct placement may leave a half-space.

    hellyfit's LP accepts a row violated by CONTAIN_TOL times the largest
    offset of that LP, and the canonical placement pairs beta with a
    translation from a second LP whose scale is pinned only to that
    tolerance (its pin row has offset beta).  The vertex images then move
    by at most the scale error times the body's largest vertex norm.
    """
    s = max(1.0, float(np.abs(b).max()), abs(beta))
    return CONTAIN_TOL * s * (1.0 + float(np.linalg.norm(V, axis=1).max()))


def _leaves_by(V, pl, U, b):
    """Largest amount by which a placed vertex leaves a half-space."""
    pts = np.asarray(pl["translation"]) + pl["scale"] * V @ rotation_of(pl).T
    return float((U @ pts.T - b[:, None]).max())


def _close(a, b):
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


def check_placement(V, pl, U, b, beta):
    """Shared checks: the copy lies inside every half-space, beta is HiGHS-optimal."""
    if pl is None:
        return ["no placement"]
    R = rotation_of(pl)
    out = []
    leaves = _leaves_by(V, pl, U, b)
    if leaves > _slack(V, b, beta):
        out.append(f"placed copy leaves a half-space by {leaves:.3g}")
    if not _close(pl["scale"], beta):
        out.append(f"placement scale {pl['scale']} differs from beta {beta}")
    ref = highs_scale(V, R, U, b)
    if ref is None or not _close(beta, ref):
        out.append(f"beta {beta} differs from HiGHS {ref} at its rotation")
    return out


def check_msw(V, net_rotations, U, b, rec):
    beta = rec["beta"]
    out = check_placement(V, rec["placement"], U, b, beta)
    # the unit disk lies in every tangent family; the square at circumradius 1 fits
    if not beta >= math.sqrt(2.0) - 1e-9:
        out.append(f"beta {beta} below sqrt(2)")
    best = best_over(V, net_rotations, U, b)
    if not _close(beta, best):
        out.append(f"beta {beta} differs from the HiGHS net maximum {best}")
    basis = rec["basis"]
    limit = len(net_rotations) * (V.shape[1] + 1)
    if len(basis) > limit or len(set(basis)) != len(basis):
        out.append(f"basis {basis} is not a set of at most {limit} indices")
    elif not _close(beta, best_over(V, net_rotations, U[basis], b[basis])):
        out.append(f"basis {basis} alone does not reproduce beta {beta}")
    return out


def check_fit(V, eps, U, b, rec):
    if rec.get("exit") != 0 or "doc" not in rec:
        return [f"fit exited {rec.get('exit')}: {rec.get('error', '')}"]
    doc = rec["doc"]
    beta, pl = doc.get("beta"), doc.get("placement")
    if not isinstance(beta, float) or pl is None:
        return [f"fit output lacks beta or placement: {doc}"]
    out = []
    R = rotation_of(pl)
    if np.abs(R.T @ R - np.eye(R.shape[0])).max() > 1e-9 or np.linalg.det(R) <= 0:
        out.append(f"placement rotation {R.tolist()} is not a proper rotation")
    out += check_placement(V, pl, U, b, beta)
    # lower side of the sandwich: (1 - eps) * alpha <= beta, alpha >= the grid maximum
    grid = [np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            for a in 2.0 * math.pi * np.arange(GRID) / GRID]
    alpha_grid = best_over(V, grid, U, b)
    if not beta >= (1.0 - eps) * alpha_grid - 1e-6:
        out.append(f"beta {beta} below (1 - {eps}) * grid alpha {alpha_grid}")
    return out


def check_verdict(rec, samples, n):
    out = []
    if rec.get("verdict") != "pass":
        out.append(f"verdict {rec.get('verdict')}, failing subset {rec.get('failing_subset')}")
    if rec.get("subsets_checked") != math.comb(samples, n):
        out.append(f"checked {rec.get('subsets_checked')} subsets, not C({samples}, {n})")
    delta = rec.get("delta")
    if delta is None or not delta > 0.0:
        out.append(f"delta {delta} is not positive")
    fb = rec.get("full_family_beta")
    # the cap body lies in the unit disk, which every tangent half-plane contains
    if fb is None or not 1.0 - 1e-9 <= fb <= 1.0 + 1e-3:
        out.append(f"full-family beta {fb} outside [1 - 1e-9, 1 + 1e-3]")
    return out


def check_inflation(V, U, b, pl, capped, demo_delta):
    """An inflated placement in one subfamily: scale > 1, inside, optimal at its rotation."""
    R = rotation_of(pl)
    out = []
    if not pl["scale"] > 1.0:
        out.append(f"inflated scale {pl['scale']} is not above 1")
    if demo_delta is not None and not pl["scale"] - 1.0 >= demo_delta - 1e-12:
        out.append(f"inflation {pl['scale'] - 1.0} below the demo's minimum {demo_delta}")
    leaves = _leaves_by(V, pl, U, b)
    if leaves > _slack(V, b, pl["scale"]):
        out.append(f"inflated copy leaves a half-plane by {leaves:.3g}")
    ref = highs_scale(V, R, U, b)
    if capped:
        out.append("a bounded subfamily was reported as capped")
    elif ref is None or not _close(pl["scale"], ref):
        out.append(f"inflated scale {pl['scale']} differs from HiGHS {ref}")
    return out


def bounded_subsets(contacts, n, rng):
    """A seeded sample of the demo's n-subsets that bound the copy.

    Only subfamilies whose contact directions leave no angular gap of pi
    or more are drawn: the others send inflation_search through its boxed
    re-solve, whose placements are known to leave the half-planes (see
    the FOUND lines in CHANGES.md), so checking them would fail on some
    seeds and not on others.
    """
    angles = np.arctan2(contacts[:, 1], contacts[:, 0])
    bounded = []
    for subset in combinations(range(len(contacts)), n):
        a = np.sort(angles[list(subset)])
        gaps = np.diff(np.concatenate([a, [a[0] + 2.0 * math.pi]]))
        if gaps.max() < math.pi - 1e-9:
            bounded.append(subset)
    pick = rng.choice(len(bounded), size=min(LAB_SUBSETS, len(bounded)), replace=False)
    return [bounded[int(k)] for k in sorted(pick)]
