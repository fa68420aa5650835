"""What the benchmark under perfbench/ reads of the package still exists.

`perfbench/spans.py` wraps the functions in its TARGETS by name, and its
annotations and `perfbench/workloads.py` read fields of their results.  A
name that goes from the package would fail every traced operation that
reaches it, which no other test sees.  `spans.py` is loaded by its path and
only read: its `install` rebinds module attributes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from hellyfit import geometry, lab, lp, nets, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for mod, attr, _, _ in _spans().TARGETS:
        assert callable(getattr(importlib.import_module("hellyfit." + mod), attr)), \
            (mod, attr)


def test_fields_read_by_annotations_and_workloads_exist():
    assert solver.SolveStats().fallback is False
    fields = lab.InflationResult.__dataclass_fields__
    assert {"rotation_tries", "capped", "placement"} <= set(fields)
    net = nets.build_net_2d(geometry.unit_square(), 0.3)
    assert [r.matrix.shape for r in net.rotations] == [(2, 2)] * len(net)
    assert "contact_points" in lab.TangentFamily.__dataclass_fields__
    family = lab.TangentFamily.at_angles([0.0, 1.0, 2.0])
    assert len(family.take([0, 2]).contact_points) == 2
    assert callable(lab.cap_body)


def test_fixed_rotation_solve_takes_four_positional_arguments():
    # spans' `_canonical` annotation reads a fifth positional argument of
    # beta_fixed_rotation as a canonical flag
    params = inspect.signature(lp.beta_fixed_rotation).parameters.values()
    assert sum(p.kind == p.POSITIONAL_OR_KEYWORD for p in params) == 4
