"""The SVG container outline against the pairwise vertex enumeration."""

import math

import numpy as np
import pytest

from _oracles import pairwise_clip_to_box
from hellyfit.geometry import HPolytope
from hellyfit.svg import _clip_to_box

LO, HI = np.array([-2.0, -1.5]), np.array([2.5, 2.0])


def _hausdorff(A, B):
    D = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    return max(D.min(axis=1).max(), D.min(axis=0).max())


def _random_container(rng, k):
    angles = rng.uniform(0.0, 2.0 * math.pi, k)
    U = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return HPolytope(U, rng.uniform(-0.5, 3.0, k))


@pytest.mark.parametrize("seed", range(40))
def test_clip_matches_pairwise_enumeration(seed):
    rng = np.random.default_rng(seed)
    P = _random_container(rng, int(rng.integers(1, 25)))
    got, want = _clip_to_box(P, LO, HI), pairwise_clip_to_box(P, LO, HI)
    if len(want) == 0:
        assert len(got) == 0
    else:
        assert _hausdorff(got, want) <= 1e-9


def test_clip_of_unbounded_containers_reaches_the_box():
    half = HPolytope(np.array([[1.0, 1.0]]) / math.sqrt(2.0), np.array([0.3]))
    wedge = HPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.5]))
    strip = HPolytope(np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 1.0]))
    for P in (half, wedge, strip):
        got, want = _clip_to_box(P, LO, HI), pairwise_clip_to_box(P, LO, HI)
        assert len(got) >= 3
        assert _hausdorff(got, want) <= 1e-12
        assert np.any(np.isclose(got, LO) | np.isclose(got, HI))


def test_clip_of_empty_containers_is_empty():
    disjoint = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
    outside = HPolytope(np.array([[1.0, 0.0]]), np.array([-5.0]))
    for P in (disjoint, outside):
        assert pairwise_clip_to_box(P, LO, HI).shape == (0, 2)
        assert _clip_to_box(P, LO, HI).shape == (0, 2)


def test_clip_of_a_3000_row_tangent_container():
    # the lines tangent to the unit circle at sorted angles a_i bound a
    # polygon whose vertex between a_i and a_i+1 lies at the mid-angle, at
    # distance 1 / cos(gap / 2); every such vertex sits inside the box
    rng = np.random.default_rng(7)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 3000))
    U = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    got = _clip_to_box(HPolytope(U, np.ones(3000)), LO, HI)
    gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
    mid, dist = angles + 0.5 * gaps, 1.0 / np.cos(0.5 * gaps)
    want = dist[:, None] * np.stack([np.cos(mid), np.sin(mid)], axis=1)
    assert len(got) == len(want)
    assert _hausdorff(got, want) <= 1e-9
