"""The benchmark's layer tracer patches library names where they are bound.

``perfbench/workloads.py`` lists them; a deleted or renamed name would only
break a traced benchmark run.  This reads that list and checks every name.
"""

import importlib.util
from pathlib import Path

import lintraj.cli
import lintraj.state_engine

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound():
    workloads = _workloads()
    for owner, names in ((lintraj.cli, workloads.CLI_TRACED),
                         (lintraj.state_engine, workloads.STATE_ENGINE_TRACED)):
        missing = [name for name in names if not hasattr(owner, name)]
        assert not missing, f"{owner.__name__} lacks {missing}"
    assert callable(lintraj.state_engine.EnsemblePropagator.propagate_vec)


def test_traced_spans_are_in_the_metric_catalogue():
    # a traced run rejects any span outside LAYER_FUNCTIONS; each span is
    # named <module>.<qualname> of the callable bound under the traced name
    workloads = _workloads()
    bound = [getattr(owner, name) for owner, names in (
        (lintraj.cli, workloads.CLI_TRACED),
        (lintraj.state_engine, workloads.STATE_ENGINE_TRACED),
        (workloads, workloads.WORKLOADS_TRACED)) for name in names]
    bound.append(lintraj.state_engine.EnsemblePropagator.propagate_vec)
    outside = {workloads.span_name(fn) for fn in bound} - set(
        workloads.LAYER_FUNCTIONS)
    assert not outside, f"spans outside the metric catalogue: {sorted(outside)}"
