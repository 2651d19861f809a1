"""The benchmark under perfbench/ reaches into the library by name: its
tracer wraps module attributes and tanh's methods, its correctness gate
calls the backward passes directly, and its set-up probe wraps the batch
generators on the tasks module. These tests fail when a change to the
library's surface would break the benchmark."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tprop.activations import ACTIVATIONS

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import gate
        import tracing

        yield gate, tracing
    finally:
        sys.path.remove(PERFBENCH)


def test_traced_functions_resolve(perfbench):
    _, tracing = perfbench
    for owner, attr, name in tracing.TRACED_FUNCTIONS:
        assert callable(getattr(owner, attr, None)), name
    tanh = ACTIVATIONS["tanh"]
    for meth in tracing.ACTIVATION_METHODS:
        assert callable(getattr(tanh, meth, None)), meth
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.TRACED_FUNCTIONS]
    with tracing.Tracer():
        pass
    assert [getattr(owner, attr) for owner, attr, _ in tracing.TRACED_FUNCTIONS] == originals
    assert not set(vars(tanh)) & set(tracing.ACTIVATION_METHODS)


def test_gate_passes_for_every_pair(perfbench):
    gate, _ = perfbench
    rng = np.random.default_rng(0)
    for tau in (8, 13):  # 13 leaves the backward sweeps a partial block
        x = rng.standard_normal((tau, 3, 4))
        y = rng.integers(0, 4, size=4)
        checks = gate.check_shape("hooks", sorted(gate.FACTORIZATIONS), x, y, n_out=4, seed=0)
        assert len(checks) == 2 + 2 * len(gate.FACTORIZATIONS)
        failed = [(c.suite, c.name, c.measured, c.bound) for c in checks if not c.passed]
        assert not failed, tau


@pytest.mark.parametrize("workload", ["order20-converge", "grid-t60", "pixel784"])
def test_setup_probe_sees_the_first_batch(perfbench, tmp_path, workload):
    # The probe wraps tasks' batch generators before it trains; a trainer
    # that bound them at import would never call the wrappers.
    import env

    env.write_synthetic_idx(tmp_path, 0, 20, 5)
    proc = subprocess.run(
        [sys.executable, str(Path(PERFBENCH) / "setup_probe.py"), workload, "0", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True)
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["first-batch"]


def test_every_config_perfbench_trains_validates(perfbench):
    # The benchmark trains these configs by method and setting name: a
    # library change that drops one fails here, not in a benchmark run.
    import configs

    runs = [configs.order20(method, 0) for method in ("tp", "bp")]
    runs += [configs.pixel(model, method, 0, "idx") for model, method in configs.PIXEL_PAIRS]
    runs += [configs.grid_base(0), *(configs.grid_chunk(method, 0) for method in ("tp", "bp"))]
    for cfg in runs:
        cfg.validate()
