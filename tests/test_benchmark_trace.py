"""The traced benchmark still sees work on every layer it reports.

``benchmarks/run.py --trace 1`` counts the calls of each traced layer and
fails a run in which a layer that should work on its workload was never
called. That harness is not collected by the tier-1 command, so this test
runs one traced trial of every workload through it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("squintsim_benchmark_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


harness = load_harness()

#: One trial: each workload makes one channel build, whose SNRs or surface sizes
#: are all rated by one stacked sum_rate call.
SUM_RATE_CALLS = {"los-snr": 1, "los-elements": 1, "nlos-snr": 1}


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_run_sees_every_working_layer(name):
    result, _ = harness.measure(name, seed=2, seconds=0, trace=True, trials=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for layer in harness.LAYERS:
        if layer not in harness.WORKLOADS[name].idle_layers:
            assert metrics[f"{layer}.calls"]["value"] > 0, layer
    assert metrics["rate_eval.sum_rate.calls"]["value"] == SUM_RATE_CALLS[name]
    assert metrics["rate_eval.ideal_rate.calls"]["value"] == 1
