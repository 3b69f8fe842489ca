"""The benchmark's span tracer still finds what it wraps in ordpat.

``perfbench/spans.py`` names ordpat functions by (module, function) and
replaces them at run time; a renamed function is only reported as skipped
there, and its layer metrics quietly vanish. This loads the tracer as it is
and checks that every name resolves and that delay and rolling extraction
still nests its ``patterns.pattern_sequence`` spans under the caller's span.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ordpat import TimeSeries, WindowScheme

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_and_counted_functions_exist(spans):
    names = list(spans.TRACED) + list(spans.COUNTED)
    assert names
    for module, func in names:
        target = getattr(importlib.import_module(f"ordpat.{module}"), func, None)
        assert callable(target), f"ordpat.{module}.{func} is traced but does not exist"


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("scheme", list(WindowScheme))
def test_delay_and_rolling_extraction_spans_nest_under_the_call(spans, scheme, epsilon):
    import ordpat.dependence as dependence

    rng = np.random.default_rng(3)
    keys = tuple(map(str, range(80)))
    x = TimeSeries(keys, rng.normal(size=80).cumsum(), "x")
    y = TimeSeries(keys, rng.normal(size=80).cumsum(), "y")
    original = dependence.delay_scan
    tracer = spans.Tracer()
    tracer.install()
    try:
        dependence.delay_scan(x, y, 3, scheme, range(-4, 5), epsilon)
        dependence.rolling_analysis(x, y, 3, scheme, 30, 7, epsilon=epsilon)
    finally:
        tracer.uninstall()
    assert tracer.skipped == []
    for caller in ("dependence.delay_scan", "dependence.rolling_analysis"):
        (top,) = [i for i, s in enumerate(tracer.spans) if s.name == caller]
        nested = [
            s for i, s in enumerate(tracer.spans)
            if s.name == "patterns.pattern_sequence" and tracer.ancestor(i, (caller,)) == top
        ]
        assert nested and all(s.items > 0 for s in nested)
    assert dependence.delay_scan is original  # uninstalled
