"""One workload process: import squintsim from the checkout, run one CLI call.

Usage (normally started by run.py):

    python3 benchmarks/child.py SPEC_JSON

SPEC_JSON holds ``src`` (the checkout's source directory), ``argv`` (the
arguments passed to ``squintsim.cli.main``), ``trace`` (bool) and ``result``
(where to write the result JSON). The result records the monotonic clock
reading at which squintsim was imported and ready, the wall time of the
``cli.main`` call, its exit code, the peak resident set size of this process
and, when traced, the per-layer span totals.

The tracer patches each layer's public function at the name its caller looks
it up by (``squintsim.experiments.gen_channels``, not
``squintsim.channel.gen_channels``) and keeps every span in memory until the
call returns. It is single-threaded by design: the workload runs with
``SQUINTSIM_THREADS`` unset, so the sweep uses one worker.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import resource
import sys
import time
from pathlib import Path


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its launch time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: Layer name -> (module, attribute) pairs to wrap. Each attribute is the name
#: the calling module looks up, so a call through it is seen by the tracer.
TRACED_NAMES = {
    "channel.sample_path_set": (("experiments", "sample_path_set"),),
    "channel.gen_channels": (("experiments", "gen_channels"),),
    "phase_design.design_mccm": (("experiments", "design_mccm"),),
    "phase_design.design_subcarrier_covariance": (
        ("experiments", "design_subcarrier_covariance"),
        ("rate_eval", "design_subcarrier_covariance"),
    ),
    "phase_design.angle_designers": (
        ("experiments", "design_central"),
        ("experiments", "design_indexed"),
        ("experiments", "design_random"),
        ("rate_eval", "design_ideal"),
    ),
    "rate_eval.sum_rate": (("experiments", "sum_rate"),),
    "rate_eval.ideal_rate": (("experiments", "ideal_rate"),),
    "experiments": (("experiments", "run_sweep"),),
    "cli": (("cli", "main"),),
}

#: The layer whose returned arrays are summed into ``bytes_out``.
BYTES_OUT_LAYER = "channel.gen_channels"


def _nbytes(value) -> int:
    return sum(getattr(getattr(value, field.name), "nbytes", 0) for field in dataclasses.fields(value))


class Tracer:
    """In-memory span recorder: (layer, start, end, parent index) per call."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.bytes_out = 0
        self._stack: list[int] = []

    def wrap(self, module, attribute: str, layer: str) -> None:
        """Replace ``module.attribute`` by a span-recording wrapper.

        Raises AttributeError when the name no longer exists, so a renamed or
        removed layer entry point fails the run instead of reading as zero work.
        """
        if not hasattr(module, attribute):
            raise AttributeError(f"traced name {module.__name__}.{attribute} no longer exists")
        target = getattr(module, attribute)
        count_bytes = layer == BYTES_OUT_LAYER

        @functools.wraps(target)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((layer, 0.0, 0.0, parent))
            self._stack.append(index)
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent)
            if count_bytes:
                self.bytes_out += _nbytes(result)
            return result

        setattr(module, attribute, traced)

    def summary(self, wall_s: float) -> dict:
        """Calls, self time and computed bytes per layer, plus span coverage.

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap their siblings because one thread runs.
        """
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {name: {"calls": 0, "self_s": 0.0} for name in TRACED_NAMES}
        for (layer, start, end, _), nested in zip(self.spans, child_time):
            layers[layer]["calls"] += 1
            layers[layer]["self_s"] += (end - start) - nested
        layers[BYTES_OUT_LAYER]["bytes_out"] = self.bytes_out
        covered = sum(entry["self_s"] for entry in layers.values())
        return {"layers": layers, "coverage": covered / wall_s}


def main(spec: dict) -> int:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import squintsim.cli as cli

    loaded_from = Path(cli.__file__).resolve()
    if src not in loaded_from.parents:
        raise ImportError(f"squintsim was imported from {loaded_from}, not from {src}")

    tracer = None
    if spec["trace"]:
        from squintsim import experiments, rate_eval

        modules = {"experiments": experiments, "rate_eval": rate_eval, "cli": cli}
        tracer = Tracer()
        for layer, names in TRACED_NAMES.items():
            for module_name, attribute in names:
                tracer.wrap(modules[module_name], attribute, layer)
    ready = clock()

    start = clock()
    code = cli.main(spec["argv"])
    wall_s = clock() - start

    result = {
        "ready": ready,
        "wall_s": wall_s,
        "exit_code": code,
        "maxrss_kb": _peak_rss_kb(),
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary(wall_s)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _peak_rss_kb() -> int:
    """Peak resident set size of this process since exec, in KiB.

    Linux's ``ru_maxrss`` keeps the high-water mark of the memory image that
    exec replaced, which is the harness's own, so the kernel's ``VmHWM`` of
    the current image is read instead where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _blas_threads() -> int | None:
    """Threads OpenBLAS uses in this process, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
