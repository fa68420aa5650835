import math

import numpy as np
import pytest

from hellyfit.jsonio import BodyFormatError, load_body, load_container
from hellyfit.lab import MAX_ARC_VERTICES


def _doc(rows, **extra):
    return {"halfspaces": [{"normal": u, "offset": b} for u, b in rows], **extra}


def _row_by_row(doc):
    """The container as a loop over rows normalizes it: each normal and
    offset divided by `np.linalg.norm` of the normal."""
    U, b = [], []
    for row in doc["halfspaces"]:
        u = np.asarray(row["normal"], dtype=float)
        norm = float(np.linalg.norm(u))
        U.append(u / norm)
        b.append(float(row["offset"]) / norm)
    return np.asarray(U), np.asarray(b)


@pytest.mark.parametrize("seed", range(20))
def test_container_rows_match_the_row_by_row_formula_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 300))
    U = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    b = rng.uniform(-5.0, 5.0, n)
    doc = _doc(zip(U.tolist(), b.tolist()), dim=d)
    P = load_container(doc)
    A, off = _row_by_row(doc)
    assert P.normals.tobytes() == A.tobytes()
    assert P.offsets.tobytes() == off.tobytes()


def test_container_of_unit_rows_keeps_python_integers_exact():
    P = load_container(_doc([([1, 0], 2), ([-1, 0], 0), ([0, 3], 6)]))
    assert P.normals.tolist() == [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
    assert P.offsets.tolist() == [2.0, 0.0, 2.0]


@pytest.mark.parametrize("doc, message", [
    ({"halfspaces": [{"normal": [1, 0], "offset": 1}, {"normal": [0, 1]}]},
     "halfspace 1 needs 'normal' and 'offset'"),
    (_doc([([1, 0], 1), ([0, 1], 1), ([math.nan, 1], 1)]),
     "halfspace 2 has non-finite entries"),
    (_doc([([1, 0], 1), ([0, 1], math.inf)]), "halfspace 1 has non-finite entries"),
    (_doc([([1, 0], 1), ([0, 1], None)]), "halfspace 1 has non-finite entries"),
    (_doc([([1, 0], 1), ([[0], [1]], 1)]), "halfspace 1 has non-finite entries"),
    (_doc([([1, 0], 1), ([0, 1, 0], 1)]), "halfspace normals disagree on dimension"),
    (_doc([([1, 0], 1), (["x", 1], 1)]), "halfspace 1 has entries that are not numbers"),
    (_doc([([1, 0], 10 ** 400)]), "halfspace 0 has entries that are not numbers"),
    (_doc([([1, 0], 1), ([1, 1], 1), ([0, 1e-15], 1)]), "halfspace 2 has a zero normal"),
    (_doc([([1, 0], 1), ([0, 1], 1)], dim=3), "'dim' disagrees with the normal coordinates"),
    (_doc([([1, 0], "2"), ([0, 1], 1)]), "halfspace 0 has entries that are not numbers"),
    (_doc([([1, 0], 1), ([True, 0], 1)]), "halfspace 1 has entries that are not numbers"),
    (_doc([([1, 0], 1), ([0, 1], False)]), "halfspace 1 has entries that are not numbers"),
])
def test_container_errors_name_the_row(doc, message):
    with pytest.raises(BodyFormatError) as exc:
        load_container(doc)
    assert str(exc.value) == message


def test_container_errors_name_the_first_bad_row():
    # a zero normal before a non-finite entry is reported first, as a row
    # by row load reports it
    doc = _doc([([1, 0], 1), ([0, 0], 1), ([math.nan, 1], 1)])
    with pytest.raises(BodyFormatError, match="halfspace 1 has a zero normal"):
        load_container(doc)


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
ARC = {"removed_center_angle": 0.0, "removed_width": 2.0}


@pytest.mark.parametrize("doc, message", [
    ({"vertices": [[0, 0], [10 ** 400, 0], [0, 1]]}, "vertex coordinates must be finite"),
    ({"vertices": [[0, 0], [{}, 0], [0, 1]]}, "'vertices' must be a nonempty list of points"),
    ({"dim": None, "vertices": SQUARE}, "'dim' must be an integer"),
    ({"dim": [2], "vertices": SQUARE}, "'dim' must be an integer"),
    ({"dim": "2", "vertices": SQUARE}, "'dim' must be an integer"),
    ({"dim": 2.0, "vertices": SQUARE}, "'dim' must be an integer"),
    ({"dim": True, "vertices": SQUARE}, "'dim' must be an integer"),
    ({"dim": None, "arc_body": ARC}, "'dim' must be an integer"),
    ({"dim": 2, "arc_body": {**ARC, "removed_center_angle": 10 ** 400}},
     "bad arc body: int too large to convert to float"),
    ({"vertices": [["0", "0"], ["1", "0"], ["0", "1e0"]]}, "vertex coordinates must be numbers"),
    ({"vertices": [[False, False], [True, False], [False, True]]},
     "vertex coordinates must be numbers"),
    ({"dim": 2, "arc_body": {**ARC, "removed_width": "2"}}, "arc_body angles must be numbers"),
    ({"dim": 2, "arc_body": {**ARC, "vertex_count": MAX_ARC_VERTICES + 1}},
     f"bad arc body: vertex_count must be an integer from 3 to {MAX_ARC_VERTICES}"),
    ({"dim": 2, "arc_body": {**ARC, "vertex_count": 130.0}},
     f"bad arc body: vertex_count must be an integer from 3 to {MAX_ARC_VERTICES}"),
    ({"dim": 2, "arc_body": {**ARC, "vertex_count": 2}},
     f"bad arc body: vertex_count must be an integer from 3 to {MAX_ARC_VERTICES}"),
])
def test_body_errors_are_format_errors(doc, message):
    with pytest.raises(BodyFormatError) as exc:
        load_body(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("dim", [None, [2], "2", 2.0, True])
def test_container_dim_must_be_an_integer(dim):
    with pytest.raises(BodyFormatError, match="'dim' must be an integer"):
        load_container(_doc([([1, 0], 1), ([0, 1], 1)], dim=dim))


def test_arc_body_may_have_the_most_vertices():
    body = load_body({"dim": 2, "arc_body": {**ARC, "vertex_count": MAX_ARC_VERTICES}})
    assert len(body) == MAX_ARC_VERTICES
