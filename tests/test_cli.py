"""Command-line behavior: exit codes, JSON and SVG artifacts, bench CSV."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import hellyfit
from hellyfit import cli
from hellyfit.cli import main
from hellyfit.nets import build_net_sufficient

FIT_KEYS = {"beta", "placement", "basis", "method", "stats"}
PLACEMENT_KEYS = {"translation", "scale", "rotation"}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def square(tmp_path):
    return write_json(tmp_path / "square.json",
                      {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})


@pytest.fixture
def bigsquare(tmp_path):
    return write_json(tmp_path / "bigsquare.json", {
        "dim": 2,
        "halfspaces": [
            {"normal": [1, 0], "offset": 2}, {"normal": [-1, 0], "offset": 0},
            {"normal": [0, 1], "offset": 2}, {"normal": [0, -1], "offset": 0},
        ],
    })


def tangent_container(tmp_path, n, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2 * math.pi, size=n)
    return write_json(tmp_path / f"tangent{n}.json", {
        "dim": 2,
        "halfspaces": [{"normal": [math.cos(a), math.sin(a)], "offset": 1}
                       for a in angles],
    })


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# fit


def test_fit_square_in_twice_the_square(capsys, square, bigsquare):
    code, out = run(capsys, "fit", "--epsilon", "0.1", square, bigsquare)
    doc = json.loads(out)
    assert code == 0
    assert set(doc) == FIT_KEYS
    assert set(doc["placement"]) == PLACEMENT_KEYS
    assert doc["beta"] == pytest.approx(2.0, abs=1e-9)


def test_fit_methods_agree_on_the_same_instance(capsys, tmp_path, square):
    container = tangent_container(tmp_path, 10, seed=4)
    betas = {}
    for method in ("brute", "msw", "direct"):
        code, out = run(capsys, "fit", "--epsilon", "0.45", "--method", method,
                        "--seed", "3", square, container)
        assert code == 0
        betas[method] = json.loads(out)["beta"]
    assert betas["brute"] == pytest.approx(betas["msw"], abs=1e-9)
    assert betas["msw"] == pytest.approx(betas["direct"], abs=1e-9)


def test_fit_same_seed_means_identical_output(capsys, square, bigsquare):
    _, first = run(capsys, "fit", "--seed", "9", square, bigsquare)
    _, second = run(capsys, "fit", "--seed", "9", square, bigsquare)

    def stable(text):
        doc = json.loads(text)
        doc["stats"].pop("wall_time_s")
        return doc

    assert stable(first) == stable(second)


def test_fit_svg_has_one_placed_copy(capsys, tmp_path, square, bigsquare):
    svg_path = tmp_path / "fit.svg"
    code, _ = run(capsys, "fit", "--epsilon", "0.3", "--svg", str(svg_path),
                  square, bigsquare)
    assert code == 0
    tree = ET.parse(svg_path)
    polygons = [e for e in tree.iter() if e.tag.endswith("polygon")]
    assert len(polygons) == 1
    assert polygons[0].get("class") == "copy"
    basis_lines = [e for e in tree.iter()
                   if e.tag.endswith("line") and e.get("class") == "basis"]
    assert len(basis_lines) >= 1


def test_fit_writes_to_out_file(capsys, tmp_path, square, bigsquare):
    out_path = tmp_path / "result.json"
    code, stdout = run(capsys, "fit", "--out", str(out_path), square, bigsquare)
    assert code == 0
    assert stdout == ""
    assert set(json.loads(out_path.read_text())) == FIT_KEYS


def test_fit_with_reflection_never_loses(capsys, tmp_path, bigsquare):
    body = write_json(tmp_path / "tri.json",
                      {"dim": 2, "vertices": [[0, 0], [1, 0], [0.2, 0.7]]})
    _, plain = run(capsys, "fit", "--epsilon", "0.2", body, bigsquare)
    code, mirrored = run(capsys, "fit", "--epsilon", "0.2",
                         "--with-reflection", body, bigsquare)
    assert code == 0
    assert (json.loads(mirrored)["beta"]
            >= json.loads(plain)["beta"] - 1e-9)


def test_fit_with_reflection_places_the_input_body(capsys, tmp_path):
    # the triangle fits better reflected; the printed placement is a reflected
    # copy of the input body, not a rotated copy of a mirrored one
    vertices = [[0, 0], [1, 0], [0.2, 0.7]]
    normals, offsets = [[0, -1], [-1, 0], [0.8, 0.6], [0.6, 0.8]], [0, 0, 1, 1.1]
    body = write_json(tmp_path / "tri.json", {"dim": 2, "vertices": vertices})
    box = write_json(tmp_path / "box.json", {
        "dim": 2, "halfspaces": [{"normal": u, "offset": b}
                                 for u, b in zip(normals, offsets)]})
    code, out = run(capsys, "fit", "--epsilon", "0.1", "--with-reflection", body, box)
    assert code == 0
    doc = json.loads(out)
    assert doc["stats"]["note"] == "reflected copy wins"
    p = doc["placement"]
    R = np.array(p["rotation"]).reshape(2, 2)
    assert np.linalg.det(R) == pytest.approx(-1.0, abs=1e-12)
    X = np.array(p["translation"]) + p["scale"] * np.array(vertices) @ R.T
    assert (X @ np.array(normals).T - offsets).max() <= 1e-9 * max(1.0, max(offsets))
    _, ref = run(capsys, "oracle", "--fine-eps", "0.01", "--with-reflection", body, box)
    assert doc["beta"] <= json.loads(ref)["alpha"] * (1.0 + 1e-9)


def test_fit_rejects_malformed_json(capsys, tmp_path, bigsquare):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([str("fit"), str(bad), bigsquare]) == 2


def test_fit_rejects_wrong_document_shape(capsys, square, bigsquare):
    # a container where a body is expected is a usage error
    assert main(["fit", bigsquare, bigsquare]) == 2


def test_fit_rejects_dimension_mismatch(capsys, tmp_path, bigsquare):
    cube = write_json(tmp_path / "cube.json", {
        "dim": 3,
        "vertices": [[x, y, z] for x in (0, 1) for y in (0, 1)
                     for z in (0, 1)],
    })
    assert main(["fit", cube, bigsquare]) == 2


@pytest.mark.parametrize("body, container", [
    ({"dim": 2, "vertices": [[0, 0], [10 ** 400, 0], [0, 1]]}, {}),
    ({"dim": None, "vertices": [[0, 0], [1, 0], [0, 1]]}, {}),
    ({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}, {"dim": [2]}),
])
def test_fit_rejects_unreadable_numbers_with_one_error_line(capsys, tmp_path, bigsquare,
                                                            body, container):
    # a coordinate beyond the float range, or a 'dim' that is not an
    # integer, in either file is a usage error, not a traceback
    body = write_json(tmp_path / "body.json", body)
    with open(bigsquare, encoding="utf-8") as fh:
        box = write_json(tmp_path / "box.json", {**json.load(fh), **container})
    assert main(["fit", body, box]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


TRIANGLE = [[0, 0], [1, 0], [0, 1]]
BOX_ROWS = [{"normal": [1, 0], "offset": 2}, {"normal": [-1, 0], "offset": 0},
            {"normal": [0, 1], "offset": 2}, {"normal": [0, -1], "offset": 0}]


@pytest.mark.parametrize("body, rows, message", [
    ({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1e0"]]}, BOX_ROWS,
     "vertex coordinates must be numbers"),
    ({"dim": 2, "vertices": [[False, False], [True, False], [False, True]]}, BOX_ROWS,
     "vertex coordinates must be numbers"),
    ({"dim": 2, "vertices": TRIANGLE}, [{**BOX_ROWS[0], "offset": "2"}] + BOX_ROWS[1:],
     "halfspace 0 has entries that are not numbers"),
    ({"dim": 2, "vertices": TRIANGLE}, BOX_ROWS[:3] + [{"normal": [True, 0], "offset": 0}],
     "halfspace 3 has entries that are not numbers"),
])
def test_fit_refuses_strings_and_booleans_as_numbers(capsys, tmp_path, body, rows, message):
    # numpy reads "0" and false as 0; a JSON document must say 0
    body = write_json(tmp_path / "body.json", body)
    box = write_json(tmp_path / "box.json", {"dim": 2, "halfspaces": rows})
    assert main(["fit", body, box]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: {message}"


@pytest.mark.parametrize("scale, message", [(1e-8, "circumradius rounds to 0"),
                                            (1e200, "the hull overflowed")])
def test_fit_refuses_bodies_too_small_or_too_large(capsys, tmp_path, bigsquare,
                                                   scale, message):
    # a square of side 1e-8 has miniball radius 0, and one of side 1e200
    # overflows its hull's normals: each is one error line and exit 2
    body = write_json(tmp_path / "body.json", {
        "dim": 2, "vertices": [[0, 0], [scale, 0], [scale, scale], [0, scale]]})
    assert main(["fit", body, bigsquare, "--epsilon", "0.5"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line


def test_fit_rejects_epsilon_outside_unit_interval(capsys, square, bigsquare):
    assert main(["fit", "--epsilon", "1.5", square, bigsquare]) == 2
    assert main(["fit", "--epsilon", "0", square, bigsquare]) == 2
    assert main(["fit", "--epsilon", "1.0", square, bigsquare]) == 2


def test_fit_empty_container_is_flagged_success(capsys, tmp_path, square):
    empty = write_json(tmp_path / "empty.json", {
        "dim": 2,
        "halfspaces": [{"normal": [1, 0], "offset": -1},
                       {"normal": [-1, 0], "offset": -1}],
    })
    code, out = run(capsys, "fit", square, empty)
    doc = json.loads(out)
    assert code == 0
    assert doc["beta"] == 0.0
    assert doc["placement"] is None
    assert doc["stats"]["note"] != ""


def test_container_loader_rejects_zero_normals(capsys, tmp_path, square):
    bad = write_json(tmp_path / "zero.json", {
        "dim": 2,
        "halfspaces": [{"normal": [0, 0], "offset": 1}],
    })
    assert main(["fit", square, bad]) == 2


# ---------------------------------------------------------------------------
# net


def test_net_emits_the_serialization_schema(capsys, square):
    code, out = run(capsys, "net", "--epsilon", "0.3", square)
    doc = json.loads(out)
    assert code == 0
    assert set(doc) == {"epsilon", "certificate", "rotations"}
    assert all(len(r) == 4 for r in doc["rotations"])


# ---------------------------------------------------------------------------
# demo


def test_demo_three_constraints_passes(capsys):
    code, out = run(capsys, "demo", "--n", "3", "--samples", "12")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "pass"


def test_demo_svg_shows_tangents_and_one_copy(capsys, tmp_path):
    svg_path = tmp_path / "demo.svg"
    code, out = run(capsys, "demo", "--n", "2", "--samples", "8",
                    "--svg", str(svg_path))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    tree = ET.parse(svg_path)
    tangents = [e for e in tree.iter()
                if e.tag.endswith("line") and e.get("class") == "tangent"]
    polygons = [e for e in tree.iter() if e.tag.endswith("polygon")]
    assert len(tangents) == 8
    assert len(polygons) == 1


def test_demo_rejects_short_samples(capsys):
    assert main(["demo", "--n", "4", "--samples", "3"]) == 2
    assert main(["demo", "--n", "1"]) == 2


# ---------------------------------------------------------------------------
# bench


def test_bench_csv_shape_and_determinism(capsys):
    code, first = run(capsys, "bench", "--sizes", "100,200", "--reps", "1")
    assert code == 0
    lines = first.strip().splitlines()
    assert lines[0] == "n,method,mean_time_s,lp_calls,violation_tests"
    assert len(lines) == 3
    assert lines[1].startswith("100,msw,") and lines[2].startswith("200,msw,")
    _, second = run(capsys, "bench", "--sizes", "100,200", "--reps", "1")

    def counters(text):
        return [line.rsplit(",", 2)[1:] for line in text.strip().splitlines()[1:]]

    assert counters(first) == counters(second)


def test_bench_brute_refuses_huge_subset_counts(capsys):
    # the bench square's net is one rotation class: C(200, 3) subsets
    assert main(["bench", "--sizes", "200", "--method", "brute"]) == 2


def test_bench_rejects_unsorted_sizes(capsys):
    for argv in (["bench", "--sizes", "200,100"],
                 ["bench", "--sizes", "100", "--epsilon", "1.5"],
                 ["bench", "--sizes", "100", "--epsilon", "-3"],
                 ["bench", "--sizes", "100", "--reps", "0"],
                 ["bench", "--sizes", "100", "--reps", "-2"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.count("error:") == 1
    for sizes in ("-5", "0", "10,-3"):
        assert main(["bench", "--sizes=" + sizes]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "--sizes" in line


def test_demo_and_bench_refuse_work_above_their_limits(capsys, monkeypatch):
    # one past each limit is refused before the body or the family is built
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(hellyfit.lab, "cap_body", no_work)
    monkeypatch.setattr(cli, "_bench_instance", no_work)
    n_cap, samples_cap = hellyfit.lab.DEMO_N_LIMIT, hellyfit.lab.DEMO_SAMPLES_LIMIT
    for argv, limit in (
            (["demo", "--n", str(n_cap + 1)], n_cap),
            (["demo", "--n", "3", "--samples", str(samples_cap + 1)], samples_cap),
            (["bench", "--sizes", f"100,{cli.BENCH_SIZE_LIMIT + 1}"], cli.BENCH_SIZE_LIMIT),
            (["bench", "--reps", str(cli.BENCH_REPS_LIMIT + 1)], cli.BENCH_REPS_LIMIT)):
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and f"limit of {limit}" in line


# ---------------------------------------------------------------------------
# oracle


def test_oracle_reports_the_reference_scale(capsys, square, bigsquare):
    code, out = run(capsys, "oracle", "--fine-eps", "0.01", square, bigsquare)
    doc = json.loads(out)
    assert code == 0
    assert set(doc) == {"alpha", "fine_eps"}
    assert doc["alpha"] == pytest.approx(2.0, rel=1e-6)


# ---------------------------------------------------------------------------
# argument checks


def test_unknown_subcommand_exits_via_argparse(capsys, square, bigsquare):
    for argv in (["warble"], ["fit", square, bigsquare, "--method", "magic"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


@pytest.fixture
def cube_in_box(tmp_path):
    """The unit cube and the box [0, 2]^3."""
    cube = write_json(tmp_path / "cube.json", {
        "dim": 3,
        "vertices": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]})
    box = write_json(tmp_path / "box.json", {
        "dim": 3,
        "halfspaces": [{"normal": n, "offset": o}
                       for n, o in (([1, 0, 0], 2), ([-1, 0, 0], 0), ([0, 1, 0], 2),
                                    ([0, -1, 0], 0), ([0, 0, 1], 2), ([0, 0, -1], 0))]})
    return cube, box


def test_fit_3d_cube_solves_few_of_its_rotations(capsys, cube_in_box):
    # the eps = 0.9 net has 3 971 rotations; the duals of a few prune the rest
    cube, box = cube_in_box
    code, out = run(capsys, "fit", cube, box, "--epsilon", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == pytest.approx(2.0, abs=1e-9)
    assert doc["stats"]["lp_calls"] <= 200


def test_fit_3d_with_reflection_builds_one_net(capsys, monkeypatch, cube_in_box):
    # the cube is its own mirror image: its reflected copies merge into the
    # classes of its rotated ones and cost no LP
    built = []

    def counted(K, epsilon):
        built.append(epsilon)
        return build_net_sufficient(K, epsilon)

    monkeypatch.setattr(cli, "build_net_sufficient", counted)
    cube, box = cube_in_box
    _, plain = run(capsys, "fit", cube, box, "--epsilon", "0.9")
    code, out = run(capsys, "fit", cube, box, "--epsilon", "0.9", "--with-reflection")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == pytest.approx(2.0, abs=1e-9)
    assert doc["stats"]["lp_calls"] == json.loads(plain)["stats"]["lp_calls"]
    assert built == [0.9, 0.9]


def test_fit_and_net_refuse_a_huge_3d_net(capsys, cube_in_box):
    # the unit cube at eps = 0.1 needs 2.2 M radius-ratio rotations
    cube, box = cube_in_box
    for argv in (["fit", cube, box, "--epsilon", "0.1"],
                 ["net", cube, "--epsilon", "0.1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "2232368 rotations" in err
        assert "limit of 20000" in err


def test_fit_refuses_a_huge_planar_net(capsys, square, bigsquare):
    assert main(["fit", square, bigsquare, "--epsilon", "1e-5"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    [line] = out.err.splitlines()
    assert line.startswith("error: ") and "314186 rotations" in line
    assert "limit of 20000" in line


def test_fit_svg_of_a_3000_row_container(capsys, tmp_path, square):
    svg_path = tmp_path / "fit.svg"
    code, _ = run(capsys, "fit", "--svg", str(svg_path), square,
                  tangent_container(tmp_path, 3000, seed=3))
    assert code == 0
    tree = ET.parse(svg_path)
    [outline] = [e for e in tree.iter() if e.get("class") == "container"]
    assert outline.get("d").count("L") >= 3


def test_import_loads_no_scipy():
    # scipy is imported where a 3-d hull is first built; the CLI's start-up
    # time is mostly import time
    src = os.path.dirname(os.path.dirname(hellyfit.__file__))
    code = "import sys, hellyfit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


def test_refusal_prints_only_the_error_line(cube_in_box):
    # the refusal is logged to the `hellyfit` logger, whose NullHandler keeps
    # logging's last-resort handler from adding it to the CLI's stderr
    cube, box = cube_in_box
    src = os.path.dirname(os.path.dirname(hellyfit.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hellyfit.cli", "fit", cube, box, "--epsilon", "0.1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "limit of 20000" in line
