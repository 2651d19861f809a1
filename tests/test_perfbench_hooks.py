"""The benchmark under perfbench/ reaches into the library by name: its
tracer wraps module attributes and tanh's methods, and its correctness gate
calls the backward passes directly. These tests fail when a change to the
library's surface would break the benchmark."""

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
    x = rng.standard_normal((8, 3, 4))
    y = rng.integers(0, 4, size=4)
    checks = gate.check_shape("hooks", sorted(gate.FACTORIZATIONS), x, y, n_out=4, seed=0)
    assert len(checks) == 2 + 2 * len(gate.FACTORIZATIONS)
    failed = [(c.suite, c.name, c.measured, c.bound) for c in checks if not c.passed]
    assert not failed
