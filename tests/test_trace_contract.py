"""The names the benchmark's tracer (perfbench/spans.py) rebinds must exist.

`perfbench/run.py --trace 1` wraps functions by name and reads fields off
their results; a rename or deletion here would break the traced run only.
The tracer module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

from specirr import adjacency_spectral_radius, subdivided_prism
from specirr.bounds import bound_columns
from specirr.harness import ALL_CHECKS, DEFAULT_CHECK_TOL
from specirr.spectral import _adjacency_stack

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for module_name, names in _load_spans().TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_checks_return_lists_of_claims():
    columns = bound_columns(_adjacency_stack([subdivided_prism(3)]))
    for name, fn in ALL_CHECKS.items():
        assert isinstance(name, str) and callable(fn)
        assert isinstance(fn(columns, DEFAULT_CHECK_TOL), list), name


def test_spectral_result_exposes_observed_fields():
    result = adjacency_spectral_radius(subdivided_prism(3))
    assert isinstance(result.iterations, int)
    assert isinstance(result.residual, float)
