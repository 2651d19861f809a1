"""Training loop, experiment configs, grid search.

A run is described by a flat ExperimentConfig that serializes to a key=value
text file; the file written next to a run's metrics (config.snapshot) is
itself a valid config input, so any run can be reproduced from its output
directory. Fixed seed means a bit-reproducible sequence of batches, losses
and accuracies (wall times are measured, so they vary).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import gru as gru_mod
from . import fanout, rnn, targetprop, tasks
from .activations import ACTIVATIONS
from .linalg import SingularSystem

BP = "bp"
TP = "tp"
TP_DTP = "tp-dtp"
TP_EXACT = "tp-exact"
METHODS = (BP, TP, TP_DTP, TP_EXACT)
_GRU_METHODS = (BP, TP)  # the GRU has the linearized TP rule only

TASKS = (tasks.TEMPORAL_ORDER, tasks.ADDING, "pixels")

DATA_DIR_ENV = "TPROP_DATA_DIR"

_VARIANT_OF = {
    TP: targetprop.LINEARIZED,
    TP_DTP: targetprop.FINITE_DIFFERENCE,
    TP_EXACT: targetprop.EXACT_INVERSE,
}


class ConfigError(ValueError):
    """Experiment config is incomplete or inconsistent."""


class ParseError(ValueError):
    """A metrics or config file could not be parsed."""


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(raw)
    return raw == "true"


# How the text of a setting becomes its value, by the field's type name:
# config files and the command line read settings through the same table.
PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def _setting(default, help: str, choices: tuple | None = None):
    """One run setting: its default, the help line of its flag, and the
    values :meth:`ExperimentConfig.validate` accepts (any, when None)."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class ExperimentConfig:
    """Every setting of one run. Each field is also a flag of the ``tprop``
    commands that take it (``--`` and its name with ``_`` as ``-``) and a
    ``name = value`` config line, parsed by its type's entry in PARSERS."""

    task: str = _setting(tasks.TEMPORAL_ORDER, "training task", TASKS)
    T: int = _setting(60, "synthetic sequence length")
    k: int = _setting(1, "pixels per step for the pixels task")
    permute: bool = _setting(False, "permute pixels before chunking")
    perm_seed: int = _setting(12345, "seed of the pixel permutation")
    data_dir: str = _setting("", f"IDX dataset directory (default ${DATA_DIR_ENV})")
    model: str = _setting("rnn", "recurrent cell", ("rnn", "gru"))
    hidden: int = _setting(100, "hidden units")
    activation: str = _setting("tanh", "activation of the rnn cell", tuple(ACTIVATIONS))
    method: str = _setting(TP, "training method", METHODS)
    gamma: float = _setting(1e-3, "bp stepsize")
    gamma_h: float = _setting(1e-2, "tp target stepsize")
    gamma_theta: float = _setting(1e-1, "tp parameter stepsize")
    r: float = _setting(1.0, "ridge coefficient of the inverses")
    epsilon: float = _setting(1e-3, "projection clip margin")
    momentum: float = _setting(0.9, "bp Nesterov momentum; 0 disables")
    batch: int = _setting(20, "sequences per batch")
    iters: int = _setting(10000, "training iterations")
    eval_every: int = _setting(1000, "held-out eval cadence for the pixels task; 0 never")
    stop_at_acc: float = _setting(0.0, "stop once running accuracy reaches this; 0 never")
    seed: int = _setting(0, "seed of the init and data streams")

    def validate(self) -> None:
        for fld in dataclasses.fields(self):
            value = getattr(self, fld.name)
            if fld.metadata["choices"] and value not in fld.metadata["choices"]:
                raise ConfigError(f"unknown {fld.name} {value!r}")
        if self.model == "gru" and self.method not in _GRU_METHODS:
            raise ConfigError("gru supports methods bp and tp only")
        if self.hidden < 1 or self.batch < 1 or self.iters < 1:
            raise ConfigError("hidden, batch and iters must be positive")
        if self.seed < 0 or self.perm_seed < 0 or self.eval_every < 0:
            raise ConfigError("seed, perm_seed and eval_every must be >= 0")
        if self.task != "pixels" and self.T < 10:
            raise ConfigError("synthetic tasks need T >= 10")
        if self.k < 1:
            raise ConfigError("k must be at least 1 pixel per step")
        for name in ("gamma", "gamma_theta"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0 <= self.stop_at_acc <= 1:
            raise ConfigError("stop_at_acc must lie in [0, 1]")
        try:
            targetprop.check_hyper(self.gamma_h, self.r, self.epsilon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``: a crash leaves the old file or the new one, never a torn
    one."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def save_config(cfg: ExperimentConfig, path) -> None:
    lines = []
    for fld in dataclasses.fields(cfg):
        v = getattr(cfg, fld.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{fld.name} = {v}\n")
    write_text_atomic(path, "".join(lines))


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse a key = value config file written by :func:`save_config` over
    ``base`` (the defaults when None); a key may appear once."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values, line_of = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in fields:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            if key in line_of:
                raise ParseError(f"{path}:{lineno}: {key} already set on line {line_of[key]}")
            line_of[key] = lineno
            try:
                values[key] = PARSERS[fields[key].type](raw)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
    return dataclasses.replace(base or ExperimentConfig(), **values)


METRICS_HEADER = "iter,loss,acc,wall_ms"


@dataclass
class MetricsLog:
    """Per-iteration training metrics plus optional held-out evaluations.

    ``diverged_at`` is the iteration whose loss or inverse broke the run,
    None for a run that did not diverge; ``diverged`` is read off it."""

    iters: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    accs: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    eval_iters: list[int] = field(default_factory=list)
    eval_accs: list[float] = field(default_factory=list)
    diverged_at: int | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    def running_accuracy(self, window: int = 100) -> float:
        if not self.accs:
            return 0.0
        return float(np.mean(self.accs[-window:]))

    def to_csv(self, path) -> None:
        eval_at = dict(zip(self.eval_iters, self.eval_accs))
        with_eval = bool(eval_at)
        lines = [METRICS_HEADER + (",eval_acc" if with_eval else "")]
        for i, it in enumerate(self.iters):
            row = (f"{it},{self.losses[i]:.17g},{self.accs[i]:.17g},"
                   f"{self.wall_ms[i]:.3f}")
            if with_eval:
                ev = eval_at.get(it)
                row += f",{ev:.17g}" if ev is not None else ","
            lines.append(row)
        if self.diverged:
            lines.append(f"# diverged_at={self.diverged_at}")
        write_text_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "MetricsLog":
        log = cls()
        with open(path) as f:
            header = f.readline().strip()
            if header not in (METRICS_HEADER, METRICS_HEADER + ",eval_acc"):
                raise ParseError(f"{path}: unexpected header {header!r}")
            with_eval = header != METRICS_HEADER
            for lineno, line in enumerate(f, 2):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line.startswith("# diverged_at="):
                        at = line.split("=", 1)[1]
                        if not at.isdecimal():
                            raise ParseError(f"{path}:{lineno}: diverged_at must be an "
                                             f"iteration >= 0, got {at!r}")
                        log.diverged_at = int(at)
                    continue
                parts = line.split(",")
                if len(parts) != (5 if with_eval else 4):
                    raise ParseError(f"{path}:{lineno}: wrong field count")
                try:
                    it = int(parts[0])
                    log.iters.append(it)
                    log.losses.append(float(parts[1]))
                    log.accs.append(float(parts[2]))
                    log.wall_ms.append(float(parts[3]))
                    if with_eval and parts[4]:
                        log.eval_iters.append(it)
                        log.eval_accs.append(float(parts[4]))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
        return log


@dataclass
class TrainResult:
    log: MetricsLog
    params: object  # RnnParams or GruParams


def build_task(cfg: ExperimentConfig):
    """The task ``cfg`` trains on; the one place a config meets its data.
    Pixels need ``data_dir`` (or $TPROP_DATA_DIR) holding the four IDX
    files, a batch no larger than the training split and a k dividing the
    image, else ConfigError; the test split is read on first evaluation."""
    if cfg.task != "pixels":
        return tasks.SyntheticTask(cfg.task, cfg.T, cfg.batch)
    root = cfg.data_dir or os.environ.get(DATA_DIR_ENV, "")
    if not root:
        raise ConfigError(f"pixels task needs data_dir or ${DATA_DIR_ENV} "
                          "pointing at the IDX files")
    paths = [os.path.join(root, f"{split}-{kind}") for split in ("train", "t10k")
             for kind in ("images-idx3-ubyte", "labels-idx1-ubyte")]
    for path in paths:
        if not os.path.exists(path):
            raise ConfigError(f"missing dataset file {path}")
    train = tasks.load_idx(*paths[:2])
    if cfg.batch > train.n:
        raise ConfigError(f"batch {cfg.batch} exceeds the {train.n} training images")
    if train.pixels % cfg.k != 0:
        raise ConfigError(f"k={cfg.k} does not divide {train.pixels} pixels")
    permutation = tasks.fixed_permutation(cfg.perm_seed, train.pixels) if cfg.permute else None
    return tasks.PixelTask(train, paths[2:], cfg.batch, cfg.k, permutation)


def init_model(cfg: ExperimentConfig, task, seed: int):
    if cfg.model == "gru":
        return gru_mod.init_gru_params(
            cfg.hidden, task.d, task.n_out, task.output_kind, seed
        )
    return rnn.init_params(
        cfg.hidden, task.d, task.n_out, cfg.activation, task.output_kind, seed
    )


def nesterov_step(theta: dict, velocity: dict, grad: dict,
                  gamma: float, momentum: float) -> None:
    """One Nesterov momentum step, in place on the parameter tensors.

    v <- mu v - gamma g;  theta <- theta + mu v - gamma g. With momentum 0
    this is a plain gradient step.
    """
    for name, g in grad.items():
        v = momentum * velocity[name] - gamma * g
        velocity[name] = v
        theta[name] += momentum * v - gamma * g


def cell_passes(params):
    """The (forward, bptt, tp backward) of the cell ``params`` belongs to.
    They are read off their modules at each call, so wrappers installed
    there see every call made through them."""
    if isinstance(params, gru_mod.GruParams):
        return gru_mod.gru_forward, gru_mod.gru_bptt, gru_mod.gru_tp_backward
    return rnn.forward, rnn.bptt, targetprop.tp_direction


def evaluate(params, task, n_batches: int, rng: np.random.Generator | None) -> float:
    """Held-out accuracy by the task's protocol: for a synthetic task the
    mean over n_batches fresh batches from ``rng``, one for n_batches = 0;
    for pixels the test split in n_batches slices of 250 or all of it for
    n_batches = 0, with ``rng`` unread (None will do). The forward passes
    keep no per-step states, so memory does not grow with the sequence
    length. A negative n_batches raises ValueError."""
    if n_batches < 0:
        raise ValueError(f"n_batches must be >= 0, got {n_batches}")
    forward = cell_passes(params)[0]
    return task.held_out_accuracy(
        lambda inputs: forward(params, inputs, states=False).y_hat, n_batches, rng)


def train(cfg: ExperimentConfig, params=None) -> TrainResult:
    """Run the configured experiment; never raises on divergence.

    A non-finite loss (or a singular inverse system) truncates the log and
    sets the divergence marker instead of crashing.
    """
    cfg.validate()
    s_init, s_data = np.random.SeedSequence(cfg.seed).spawn(2)
    task = build_task(cfg)
    if params is None:
        params = init_model(cfg, task, int(s_init.generate_state(1)[0]))
    rng_data = np.random.default_rng(s_data)
    forward, bptt, tp_backward = cell_passes(params)
    theta = params.tensors()
    velocity = {k: np.zeros_like(v) for k, v in theta.items()}
    hyper = targetprop.TpHyper(
        gamma_h=cfg.gamma_h, r=cfg.r, epsilon=cfg.epsilon,
        variant=_VARIANT_OF.get(cfg.method, targetprop.LINEARIZED),
    )
    if cfg.method == BP:
        stepsize, momentum = cfg.gamma, cfg.momentum
    else:
        stepsize, momentum = cfg.gamma_theta, 0.0
    eval_every = cfg.eval_every if task.has_test_split else 0
    log = MetricsLog()
    hs = None  # the state stack every rollout of the run writes into
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(cfg.iters):
            t0 = time.perf_counter()
            batch = task.sample(rng_data)
            cache = forward(params, batch.inputs, out=hs)
            loss = rnn.loss(batch.labels, cache)
            if not np.isfinite(loss):
                log.diverged_at = it
                break
            acc = task.accuracy(cache.y_hat, batch.labels)
            try:  # descend along the BPTT gradient or the negated TP direction
                if cfg.method == BP:
                    g = bptt(params, cache, batch.labels)
                else:
                    g = {k: -v for k, v in
                         tp_backward(params, cache, batch.labels, hyper).items()}
            except SingularSystem:
                log.diverged_at = it
                break
            nesterov_step(theta, velocity, g, stepsize, momentum)
            # Release this batch's rollout now, not when the next forward
            # rebinds it, so one cache is live at a time; its state stack
            # is kept for the next rollout to overwrite.
            hs = cache.hs
            cache = g = None
            log.iters.append(it)
            log.losses.append(loss)
            log.accs.append(acc)
            log.wall_ms.append((time.perf_counter() - t0) * 1000.0)
            if eval_every and (it + 1) % eval_every == 0:
                log.eval_iters.append(it)
                log.eval_accs.append(evaluate(params, task, 0, None))
            if cfg.stop_at_acc > 0 and log.running_accuracy() >= cfg.stop_at_acc:
                break
    return TrainResult(log=log, params=params)


def training_area(losses) -> float:
    """Area under the raw training-loss curve, trapezoidal rule with unit
    spacing. Note the endpoint convention: n samples span n - 1 intervals,
    so a constant loss c over 400 iterations integrates to 399 c."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 2:
        return float(losses.sum())
    return float(np.trapezoid(losses))


@dataclass
class GridCell:
    gamma_theta: float
    r: float
    area: float  # nan when diverged
    diverged: bool


def _grid_run(run: ExperimentConfig) -> GridCell:
    log = train(run).log
    area = float("nan") if log.diverged else training_area(log.losses)
    return GridCell(gamma_theta=run.gamma_theta, r=run.r, area=area, diverged=log.diverged)


GRID_HORIZON = 400  # iterations per grid cell unless a caller says otherwise


def grid_search(
    base: ExperimentConfig,
    gamma_theta_grid,
    r_grid,
    horizon: int = GRID_HORIZON,
    jobs: int = 1,
) -> list[GridCell]:
    """Area under the training-loss curve for every (gamma_theta, r) cell.

    Every other setting, gamma_h included, comes from ``base`` and is the
    same in every cell; each cell trains for ``horizon`` iterations from the
    same seed. Diverged cells get area nan. Every cell's config is checked
    before the first one trains. Cells are independent runs, so ``jobs``
    processes, at most one per cell, share them out: this process trains
    ``runs[0::jobs]`` and ``jobs - 1`` workers forked with ``os.fork``
    (POSIX only) train ``runs[w::jobs]``. The cells come back in serial
    order, bit for bit what ``jobs=1`` returns. A worker's exception is
    re-raised here with its own type. ``linalg.factorization_count()`` in
    this process counts the factorizations of this process's own cells.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    cfg = dataclasses.replace(base, iters=horizon, stop_at_acc=0.0)
    runs = [dataclasses.replace(cfg, gamma_theta=float(gt), r=float(r))
            for gt in gamma_theta_grid for r in r_grid]
    for run in runs:
        run.validate()
    return fanout.fork_map(_grid_run, runs, jobs)
