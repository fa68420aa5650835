import math

import numpy as np
import pytest

from hellyfit.jsonio import BodyFormatError, load_container


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
