"""Two far_field cases, every cauchy case (the five holes of criterion 8 and
the near-extremal one), two spectrum_cli angular cases and the spectrum_cli
exterior radial case of the benchmark, solved and checked as `bench/run.py`
does, so that a change which breaks the benchmark's current, Abel, slope,
rate, a = 0 spectrum or trajectory CSV checks fails here first.  Every input
of the Filon-Magnus kernel's interior path is among them.
`bench/workloads.py` is imported from the source checkout and not
modified."""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload,name", [
    ("far_field", "far_field_0"), ("far_field", "far_field_4"),
    ("cauchy", "cauchy_0"), ("cauchy", "cauchy_1"), ("cauchy", "cauchy_2"), ("cauchy", "cauchy_3"),
    ("cauchy", "cauchy_4"), ("cauchy", "cauchy_near_extremal"),
    ("spectrum_cli", "angular_N64_a0_k-2.5"), ("spectrum_cli", "angular_N256_k-40.5"),
    ("spectrum_cli", "radial_exterior"),
])
def test_benchmark_case_passes_its_checks(workloads, workload, name, tmp_path):
    case = next(c for c in workloads.build(workload, 0, str(tmp_path)) if c.name == name)
    result = case.solve()
    assert case.check(result, {case.name: result}) == []
