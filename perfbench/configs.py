"""Shapes and training configs of the three workloads.

Shared by the workloads and by the set-up probe, which must build exactly
the configs the timed runs train.
"""

from __future__ import annotations

import dataclasses

from tprop import tasks, trainer

P = 100
BATCH = 20
CONVERGE_ACC = 0.95
CONVERGE_CAP = 6000          # iterations; seed 0 needs 1091 (tp) and 163 (bp)
ORDER20_TP = dict(gamma_h=1e-2, gamma_theta=1e-1, r=10.0)  # acceptance criterion 8
PIXEL_PAIRS = (("rnn", "bp"), ("rnn", "tp"), ("rnn", "tp-dtp"), ("rnn", "tp-exact"),
               ("gru", "bp"), ("gru", "tp"))
PIXEL_ITERS = 16
GRID_GAMMA_THETA = (0.1, 1.0)
GRID_R = (0.0, 1.0, 10.0)
GRID_HORIZON = 50
GRID_JOBS = 2
GRID_CHUNK = 20
GRID_REPEATS = 5             # one grid's wall varies +-20% between runs; report the median


def _config(**kw) -> trainer.ExperimentConfig:
    return trainer.ExperimentConfig(hidden=P, activation="tanh", batch=BATCH, eval_every=0, **kw)


def order20(method: str, seed: int) -> trainer.ExperimentConfig:
    steps = ORDER20_TP if method != "bp" else {}
    return _config(task=tasks.TEMPORAL_ORDER, T=20, method=method, iters=CONVERGE_CAP,
                   stop_at_acc=CONVERGE_ACC, seed=seed, **steps)


def pixel(model: str, method: str, seed: int, data_dir) -> trainer.ExperimentConfig:
    return _config(task="pixels", k=1, data_dir=str(data_dir), model=model, method=method,
                   iters=PIXEL_ITERS, seed=seed)


def grid_base(seed: int) -> trainer.ExperimentConfig:
    return _config(task=tasks.TEMPORAL_ORDER, T=60, method="tp", gamma_h=1e-2,
                   iters=GRID_HORIZON, seed=seed)


def grid_chunk(method: str, seed: int) -> trainer.ExperimentConfig:
    """The in-process training grid-t60 repeats before its grids."""
    return dataclasses.replace(grid_base(seed), method=method, r=10.0, iters=GRID_CHUNK)


def pair_name(model: str, method: str) -> str:
    return method if model == "rnn" else f"gru-{method}"
