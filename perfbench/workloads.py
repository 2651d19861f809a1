"""The benchmark's workloads.

Every workload is a closed loop with one client: each training iteration
starts when the previous one ends, all load comes from this process (the
grid's two workers are forked by ``grid_search`` itself), and BLAS thread
variables are left exactly as found.

- ``order20-converge``: temporal order, T=20, trains tp and bp until the
  running accuracy reaches 0.95. Short sequences, so the one ridge
  factorization per tp backward pass is most of the linear-algebra work.
- ``pixel784``: pixel-by-pixel images (tau=784) from a seeded synthetic IDX
  set; all six (model, method) pairs for a fixed iteration count, then a
  held-out forward-only evaluation of each model at batch 250. The per-step
  recursion, rollout and activations dominate.
- ``grid-t60``: the paper's regularization grid at T=60 through
  ``grid_search(jobs=2)``: two processes contend for the cores and for two
  BLAS pools, and the r=0 cells exercise the divergence path.

Besides its job, each workload repeats in-process tp and bp training and a
held-out RNN evaluation at its own shape until --seconds is used up, so
``ms_per_iter.{tp,bp}``, ``eval_seq_per_s.rnn`` and the per-layer spans exist
on all three.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tprop import diagnostics, tasks, trainer

import configs
import env
import gate
from configs import BATCH
from tracing import Tracer

# Iterations per train() call in the fill phase, which repeats tp and bp
# training and one evaluation round-robin until --seconds is used up.
ORDER20_CHUNK = 50
# Held-out evaluation runs forward only on batches of 250 sequences, the
# batch trainer.evaluate uses for images; the pixel test split is one batch.
EVAL_BATCH = 250
PIXEL_TRAIN, PIXEL_TEST = 1000, EVAL_BATCH
OVERHEAD_PROBE_ITERS = 300            # capped by the traced run's own length
SETUP_PROBES = 7

HERE = Path(__file__).resolve().parent


@dataclass
class Metric:
    value: float
    unit: str
    n: int = 1
    pctl: tuple | None = None   # (percentile, value): highest one with >= 10 samples beyond

    def describe(self) -> str:
        s = f"{self.value:.6g} {self.unit} (n={self.n}"
        if self.pctl:
            s += f", p{self.pctl[0]}={self.pctl[1]:.6g}"
        return s + ")"


def timing(samples, unit: str, scale: float = 1.0) -> Metric:
    """Median plus the highest percentile that has at least ten samples
    beyond it, when that percentile lies above the median."""
    xs = sorted(float(x) * scale for x in samples)
    n = len(xs)
    pctl = None
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0   # exactly ten samples above
    if q > 50:
        pctl = (q, xs[n - 11])
    return Metric(float(np.median(xs)), unit, n, pctl)


@dataclass
class Outcome:
    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    wall_ms: dict[str, list[float]] = field(default_factory=dict)  # iteration walls per run label

    def check(self, suite, name, ok, measured, bound):
        self.checks.append(diagnostics.SuiteCheck(suite, name, bool(ok), measured, bound))

    @property
    def correct(self) -> bool:
        return all(c.passed for c in self.checks)


class Context:
    """One benchmark run: seed, time budget, output directory, and the
    tracer for a traced run (None for a timed one)."""

    def __init__(self, seed: int, seconds: float, out: Path, tracer: Tracer | None):
        self.seed, self.seconds, self.out, self.tracer = seed, seconds, out, tracer
        self.start = math.inf
        self.untraced_tp_ms: list[float] = []

    @contextlib.contextmanager
    def measuring(self, tp_probe: trainer.ExperimentConfig):
        """Start the clock for the measured part. A traced run first trains
        ``tp_probe`` untraced, as the base of the tracing overhead, and
        records spans only inside this block."""
        if self.tracer is None:
            self.start = time.perf_counter()
            yield
            return
        self.untraced_tp_ms = trainer.train(tp_probe).log.wall_ms
        self.start = time.perf_counter()
        with self.tracer:
            yield

    def until(self, share: float = 1.0) -> float:
        """Clock reading at which ``share`` of the run's seconds are used."""
        return self.start + share * self.seconds

    def label(self, run: str):
        if self.tracer is not None:
            self.tracer.run = run


def train_run(ctx: Context, res: Outcome, label: str, cfg: trainer.ExperimentConfig,
              may_diverge: bool = False):
    """One trainer.train call; counts iterations, flags unexpected
    divergence or non-finite losses, and adds the iteration walls to the
    label's samples. Returns (result, wall seconds)."""
    ctx.label(label)
    t0 = time.perf_counter()
    out = trainer.train(cfg)
    wall = time.perf_counter() - t0
    log = out.log
    res.attempted += len(log.losses) + (1 if log.diverged else 0)
    if not may_diverge:
        finite = not log.diverged and all(math.isfinite(x) for x in log.losses)
        res.failed += 0 if finite else 1
        if not finite:
            res.check("finite", label, False, 0.0, 1.0)
        res.wall_ms.setdefault(label, []).extend(log.wall_ms)
    return out, wall


def eval_run(ctx: Context, res: Outcome, label: str, params, task, n_batches: int,
             n_seqs: int, rng) -> float:
    """One held-out trainer.evaluate call; returns sequences per second."""
    ctx.label(f"eval-{label}")
    t0 = time.perf_counter()
    acc = trainer.evaluate(params, task, n_batches, rng)
    dt = time.perf_counter() - t0
    res.attempted += 1
    if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
        res.failed += 1
        res.check("eval", label, False, acc, 1.0)
    res.notes.setdefault("eval_acc", {}).setdefault(label, []).append(acc)
    return n_seqs / dt


def fill(ctx: Context, res: Outcome, chunks: dict, params, task, until: float,
         rates: dict[str, list[float]]):
    """Until ``until`` (at least one round): train each chunk config once,
    then evaluate ``params`` on one batch of EVAL_BATCH. With the default
    BLAS threading, iteration times switch between fast and slow stretches
    lasting seconds, so each metric's samples are spread over the run instead
    of one contiguous stretch each."""
    rng = np.random.default_rng(ctx.seed + 1)
    while True:
        for label, cfg in chunks.items():
            train_run(ctx, res, label, cfg)
        rates.setdefault("rnn", []).append(
            eval_run(ctx, res, "tp", params, task, 1, EVAL_BATCH, rng))
        if time.perf_counter() >= until:
            return


def finish(res: Outcome, rates: dict[str, list[float]], base: str) -> Outcome:
    for label in ("tp", "bp"):
        res.metrics[f"ms_per_iter.{label}"] = timing(res.wall_ms[label], "ms")
    for family, xs in rates.items():
        res.metrics[f"eval_seq_per_s.{family}"] = timing(xs, "seq/s")
    res.notes["ratio_base"] = base
    return res


def setup_times(args: list[str]) -> list[float]:
    """Seconds from starting a fresh interpreter to its first batch."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *args],
            capture_output=True, text=True, timeout=120, check=True,
        )
        firsts = [float(line.split()[1]) for line in proc.stdout.splitlines()
                  if line.startswith("first-batch ")]
        if not firsts:
            raise RuntimeError(f"setup probe printed no first batch: {proc.stdout!r}")
        out.append(min(firsts) - t0)
    return out


# ---------------------------------------------------------------------------


def order20_converge(ctx: Context) -> Outcome:
    res = Outcome()
    b = tasks.gen_temporal_order(20, BATCH, np.random.default_rng(ctx.seed))
    res.checks += gate.check_shape("T20", (("rnn", "tp"), ("rnn", "bp")),
                                   b.inputs, b.labels, 4, ctx.seed)
    cfgs = {m: configs.order20(m, ctx.seed) for m in ("tp", "bp")}
    chunks = {m: dataclasses.replace(cfg, iters=ORDER20_CHUNK, stop_at_acc=0.0)
              for m, cfg in cfgs.items()}
    if ctx.tracer is None:
        res.metrics["setup_s"] = timing(setup_times(["order20-converge", str(ctx.seed)]), "s")
    probe = dataclasses.replace(chunks["tp"], iters=OVERHEAD_PROBE_ITERS)
    rates: dict[str, list[float]] = {}
    with ctx.measuring(probe):
        models, walls, iters = {}, 0.0, 0
        for method, cfg in cfgs.items():
            out, wall = train_run(ctx, res, method, cfg)
            models[method] = out.params
            log = out.log
            acc = log.running_accuracy()
            res.check("converge", method, acc >= configs.CONVERGE_ACC, acc, configs.CONVERGE_ACC)
            res.metrics[f"time_to_acc_s.{method}"] = Metric(wall, "s")
            res.metrics[f"iters_to_acc.{method}"] = Metric(len(log.losses), "count")
            walls += wall
            iters += len(log.losses)
        res.metrics["job_ms_per_iter"] = Metric(1000.0 * walls / iters, "ms", iters)
        eval_task = trainer.build_task(dataclasses.replace(cfgs["tp"], batch=EVAL_BATCH))
        fill(ctx, res, chunks, models["tp"], eval_task, ctx.until(), rates)
    return finish(res, rates, "order20-converge: temporal order T=20, B=20, p=100")


def pixel784(ctx: Context) -> Outcome:
    res = Outcome()
    data = ctx.out / f"idx-seed{ctx.seed}"
    res.notes["dataset_bytes"] = env.write_synthetic_idx(data, ctx.seed, PIXEL_TRAIN, PIXEL_TEST)
    res.notes["llc_bytes"] = env.llc_bytes()
    train_set = tasks.load_idx(data / "train-images-idx3-ubyte", data / "train-labels-idx1-ubyte")
    b = tasks.image_batch(train_set, np.arange(BATCH), 1)
    res.checks += gate.check_shape("T784", configs.PIXEL_PAIRS, b.inputs, b.labels, 10, ctx.seed)
    cfgs = {configs.pair_name(m, meth): configs.pixel(m, meth, ctx.seed, data)
            for m, meth in configs.PIXEL_PAIRS}
    if ctx.tracer is None:
        res.metrics["setup_s"] = timing(setup_times(["pixel784", str(ctx.seed), str(data)]), "s")
    rates: dict[str, list[float]] = {}
    with ctx.measuring(cfgs["tp"]):
        models, job = {}, 0.0
        for name, cfg in cfgs.items():
            out, wall = train_run(ctx, res, name, cfg)
            res.metrics[f"ms_per_iter.{name}"] = timing(out.log.wall_ms, "ms")
            models[name] = out.params
            job += wall
        task = trainer.build_task(cfgs["tp"])
        rng = np.random.default_rng(ctx.seed + 1)
        for name, params in models.items():   # one held-out pass per model
            t0 = time.perf_counter()
            rates.setdefault("gru" if name.startswith("gru") else "rnn", []).append(
                eval_run(ctx, res, name, params, task, 1, EVAL_BATCH, rng))
            job += time.perf_counter() - t0
        n_iters = configs.PIXEL_ITERS * len(cfgs)
        res.metrics["job_ms_per_iter"] = Metric(1000.0 * job / n_iters, "ms", n_iters)
        fill(ctx, res, {m: cfgs[m] for m in ("tp", "bp")}, models["tp"], task, ctx.until(),
             rates)
    return finish(res, rates, "pixel784: pixels k=1 (tau=784), B=20, p=100")


def grid_t60(ctx: Context) -> Outcome:
    res = Outcome()
    b = tasks.gen_temporal_order(60, BATCH, np.random.default_rng(ctx.seed))
    res.checks += gate.check_shape("T60", (("rnn", "tp"), ("rnn", "bp")),
                                   b.inputs, b.labels, 4, ctx.seed)
    base = configs.grid_base(ctx.seed)
    chunks = {m: configs.grid_chunk(m, ctx.seed) for m in ("tp", "bp")}
    if ctx.tracer is None:
        res.metrics["setup_s"] = timing(setup_times(["grid-t60", str(ctx.seed)]), "s")
    grid_args = (base, configs.GRID_GAMMA_THETA, configs.GRID_R)
    rates: dict[str, list[float]] = {}
    with ctx.measuring(chunks["tp"]):
        # In-process rounds first, for a fifth of the budget: after the
        # grid's forked workers this process's BLAS pools are in no
        # predictable state. The repeated grids take the rest.
        out, _ = train_run(ctx, res, "tp", chunks["tp"])
        eval_task = trainer.build_task(dataclasses.replace(base, batch=EVAL_BATCH))
        fill(ctx, res, chunks, out.params, eval_task, ctx.until(0.2), rates)
        if ctx.tracer is not None:
            # cells one after another in this process: per-cell spans and
            # the serial time the parallel grids are compared against
            ctx.label("grid-serial")
            trainer.grid_search(*grid_args, horizon=configs.GRID_HORIZON, jobs=1)
        walls, outcomes = [], []
        for i in range(configs.GRID_REPEATS):
            ctx.label(f"grid-{i}")
            t0 = time.perf_counter()
            cells = trainer.grid_search(*grid_args, horizon=configs.GRID_HORIZON,
                                        jobs=configs.GRID_JOBS)
            walls.append(time.perf_counter() - t0)
            outcomes.append([c.diverged for c in cells])
            res.attempted += len(cells)
        res.check("grid", "repeats diverge alike", outcomes.count(outcomes[0]) == len(outcomes),
                  outcomes.count(outcomes[0]), len(outcomes))
        diverged = []
        for c in (c for c in cells if c.diverged):
            # replay the cell in-process to learn where it diverged
            cfg = dataclasses.replace(base, gamma_theta=c.gamma_theta, r=c.r)
            out, _ = train_run(ctx, res, f"replay-{c.gamma_theta}-{c.r}", cfg, may_diverge=True)
            diverged.append({"gamma_theta": c.gamma_theta, "r": c.r,
                             "diverged_at": out.log.diverged_at})
            res.failed += 1 if c.r > 0 else 0
        res.check("grid", "only r=0 cells diverge", all(d["r"] == 0 for d in diverged),
                  len(diverged), len(cells))
        res.notes["diverged_cells"] = diverged
        res.metrics["grid_s"] = timing(walls, "s")
        res.metrics["grid_diverged_cells"] = Metric(len(diverged), "count")
        # per iteration asked of the grid: a cell diverging at once hardly
        # shortens the wall, so completed iterations would make it seed-bound
        res.metrics["job_ms_per_iter"] = timing(walls, "ms", 1000.0 / (len(cells) * base.iters))
    return finish(res, rates, "grid-t60 in-process runs: temporal order T=60, B=20, p=100")


# name -> (function, sequence length)
WORKLOADS = {
    "order20-converge": (order20_converge, 20),
    "pixel784": (pixel784, 784),
    "grid-t60": (grid_t60, 60),
}
