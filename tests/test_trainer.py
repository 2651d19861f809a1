import copy
import dataclasses
import os
import pickle
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest
from conftest import write_idx_pair
from hypothesis import given, settings
from hypothesis import strategies as st

from tprop import gru, rnn, targetprop, tasks, trainer
from tprop.activations import CLIP_MARGIN
from tprop.cli import bench_point
from tprop.targetprop import TpHyper, tp_direction
from tprop.tasks import gen_temporal_order
from tprop.trainer import (
    ConfigError,
    ExperimentConfig,
    GridCell,
    MetricsLog,
    ParseError,
    build_task,
    evaluate,
    grid_search,
    init_model,
    load_config,
    nesterov_step,
    save_config,
    train,
    training_area,
)


def small_config(**kw):
    base = dict(
        task="temporal-order",
        T=12,
        model="rnn",
        hidden=8,
        method="tp",
        gamma=1e-3,
        gamma_h=1e-2,
        gamma_theta=1e-1,
        r=1.0,
        batch=4,
        iters=5,
        eval_every=0,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def fresh_model(cfg, seed=7):
    return init_model(cfg, build_task(cfg), seed)


def test_zero_stepsize_leaves_params_bitwise_unchanged():
    for method, kw in (("bp", dict(gamma=0.0, momentum=0.0)), ("tp", dict(gamma_theta=0.0))):
        cfg = small_config(method=method, **kw)
        init = fresh_model(cfg)
        snapshot = {k: v.copy() for k, v in init.tensors().items()}
        res = train(cfg, params=copy.deepcopy(init))
        assert not res.log.diverged
        for name, tensor in res.params.tensors().items():
            assert tensor.tobytes() == snapshot[name].tobytes(), name


def test_fixed_seed_reproduces_log_bitwise():
    cfg = small_config(iters=12)
    a = train(cfg)
    b = train(cfg)
    assert a.log.losses == b.log.losses
    assert a.log.accs == b.log.accs
    assert a.log.iters == b.log.iters


def test_nesterov_momentum_zero_is_vanilla_sgd(rng):
    theta = {"w": rng.standard_normal(6)}
    g = {"w": rng.standard_normal(6)}
    want = theta["w"] - 0.1 * g["w"]
    vel = {"w": np.zeros(6)}
    nesterov_step(theta, vel, g, 0.1, 0.0)
    npt.assert_allclose(theta["w"], want, atol=0)


def test_nesterov_constant_gradient_velocity_geometric(rng):
    # with a constant gradient the velocity telescopes to a geometric series:
    # v_k = -gamma g (1 - mu^k) / (1 - mu)
    gamma, mu, k = 0.05, 0.9, 7
    g = {"w": rng.standard_normal(4)}
    theta = {"w": rng.standard_normal(4)}
    start = theta["w"].copy()
    vel = {"w": np.zeros(4)}
    for _ in range(k):
        nesterov_step(theta, vel, g, gamma, mu)
    want_v = -gamma * g["w"] * (1 - mu**k) / (1 - mu)
    npt.assert_allclose(vel["w"], want_v, rtol=1e-12)
    # displacement matches the closed-form double sum of the look-ahead scheme:
    # theta_k - theta_0 = sum_j (mu v_{j+1} - gamma g) with v in closed form
    disp = np.zeros(4)
    v = np.zeros(4)
    for _ in range(k):
        v = mu * v - gamma * g["w"]
        disp = disp + mu * v - gamma * g["w"]
    npt.assert_allclose(theta["w"] - start, disp, atol=1e-15)


def test_methods_are_bp_and_the_tp_rules():
    assert trainer.METHODS[1:] == targetprop.VARIANTS
    # the GRU's rules are stated once, in gru.VARIANTS, and every check reads them
    assert trainer.GRU_METHODS == (trainer.BP, *gru.VARIANTS)
    params = gru.init_gru_params(4, 2, 3, seed=0)
    cache = gru.gru_forward(params, np.zeros((5, 2, 3)))
    for v in targetprop.VARIANTS:
        cfg = ExperimentConfig(model="gru", method=v)
        if v in gru.VARIANTS:
            cfg.validate()
            continue
        with pytest.raises(ConfigError, match=re.escape(", ".join(trainer.GRU_METHODS))):
            cfg.validate()
        with pytest.raises(ValueError, match=re.escape(str(gru.VARIANTS))):
            gru.gru_tp_backward(params, cache, np.zeros(3, np.int64), TpHyper(variant=v))
    rows = bench_point((5,), 4, 2, reps=1, model="gru")
    assert [method for _, _, method, _, _ in rows] == ["gru-bp", "gru-tp"]


def test_tp_head_update_matches_bp_head_update():
    # theta_y gets a plain gradient step under both methods, so one iteration
    # from identical state moves W_hy and b_y identically when gamma == gamma_theta
    cfg_tp = small_config(method="tp", iters=1, gamma_theta=0.05)
    cfg_bp = small_config(method="bp", iters=1, gamma=0.05, momentum=0.0)
    init = fresh_model(cfg_tp)
    res_tp = train(cfg_tp, params=copy.deepcopy(init))
    res_bp = train(cfg_bp, params=copy.deepcopy(init))
    for name in ("W_hy", "b_y"):
        npt.assert_allclose(
            res_tp.params.tensors()[name], res_bp.params.tensors()[name], atol=1e-15
        )


def test_one_tp_iteration_applies_direction_exactly():
    cfg = small_config(iters=1, gamma_theta=0.25, r=2.0, gamma_h=0.03)
    init = fresh_model(cfg)
    # replicate the single batch the run will draw from its data stream
    _, s_data = np.random.SeedSequence(cfg.seed).spawn(2)
    batch = build_task(cfg).sample(np.random.default_rng(s_data))
    from tprop.rnn import forward

    cache = forward(init, batch.inputs)
    hyper = TpHyper(
        gamma_h=cfg.gamma_h,
        gamma_theta=cfg.gamma_theta,
        r=cfg.r,
        epsilon=cfg.epsilon,
        variant=targetprop.LINEARIZED,
    )
    d = tp_direction(init, cache, batch.labels, hyper)
    res = train(cfg, params=copy.deepcopy(init))
    for name, tensor in res.params.tensors().items():
        want = init.tensors()[name] + cfg.gamma_theta * d[name]
        assert tensor.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("model, method", [("rnn", "tp"), ("rnn", "tp-dtp"),
                                           ("rnn", "tp-exact"), ("gru", "tp")])
def test_descent_steps_along_the_tp_direction(model, method):
    # The step is the TP backward pass itself, its direction d unnegated,
    # taken with stepsize -gamma_theta and no momentum: one iteration lands
    # on theta + gamma_theta * d, bit for bit.
    cfg = small_config(model=model, method=method, iters=1, gamma_theta=0.25, r=2.0)
    init = fresh_model(cfg)
    _, s_data = np.random.SeedSequence(cfg.seed).spawn(2)
    batch = build_task(cfg).sample(np.random.default_rng(s_data))
    forward, _, tp_backward = trainer.cell_passes(init)
    cache = forward(init, batch.inputs)
    d = tp_backward(init, cache, batch.labels,
                    TpHyper(gamma_h=cfg.gamma_h, r=cfg.r, epsilon=cfg.epsilon, variant=method))
    step, stepsize, momentum = trainer.descent(init, cfg)
    assert (stepsize, momentum) == (-cfg.gamma_theta, 0.0)
    assert {k: v.tobytes() for k, v in step(init, cache, batch.labels).items()} == {
        k: v.tobytes() for k, v in d.items()}
    res = train(cfg, params=copy.deepcopy(init))
    for name, tensor in res.params.tensors().items():
        want = init.tensors()[name] + cfg.gamma_theta * d[name]
        assert tensor.tobytes() == want.tobytes(), name


def test_a_nan_displacement_reaches_the_direction_and_train_diverges(monkeypatch):
    # The engine flushes a vanishing displacement to zeros at each block
    # edge, but never a NaN one: poisoned at the edge t = 28 of a 60-step
    # pass, every recurrent entry turns NaN, and the next loss marks the run.
    real = targetprop._propagator

    def poisoning(*args):
        per_block = real(*args)

        def blockwise(lo, hi, es):
            step = per_block(lo, hi, es)
            return lambda i, lam: np.full_like(lam, np.nan) if lo + i == 28 else step(i, lam)
        return blockwise

    monkeypatch.setattr(targetprop, "_propagator", poisoning)
    cfg = small_config(T=60, r=10.0, iters=3)
    assert 28 in rnn._edges(cfg.T)
    init = fresh_model(cfg)
    batch = build_task(cfg).sample(np.random.default_rng(0))
    d = tp_direction(init, rnn.forward(init, batch.inputs), batch.labels, TpHyper(r=cfg.r))
    for name in ("W_xh", "W_hh", "b_h"):
        assert np.isnan(d[name]).all(), name
    assert train(cfg, params=init).log.diverged_at == 1


def test_divergence_truncates_log_with_marker():
    # MSE blows up multiplicatively under a huge stepsize; CE on tanh would not
    cfg = small_config(task="adding", T=12, method="bp", gamma=1e8, iters=300, momentum=0.0)
    res = train(cfg)
    log = res.log
    assert log.diverged
    assert log.diverged_at is not None and log.diverged_at < 300
    assert len(log.losses) == len(log.iters) == len(log.accs) == log.diverged_at
    with pytest.raises(AttributeError):  # diverged is read off diverged_at
        log.diverged = False
    assert all(np.isfinite(v) for v in log.losses)


def test_training_area_constant_loss_convention():
    # trapezoid over 400 unit-spaced samples spans 399 intervals
    npt.assert_allclose(training_area([2.5] * 400), 399 * 2.5, rtol=1e-12)
    npt.assert_allclose(training_area([3.0]), 3.0, atol=0)
    npt.assert_allclose(training_area([]), 0.0, atol=0)


_CELL_METHODS = st.one_of(
    st.tuples(st.just("rnn"), st.sampled_from(sorted(trainer.ACTIVATIONS)),
              st.sampled_from(trainer.METHODS)),
    st.tuples(st.just("gru"), st.just("tanh"), st.sampled_from(["bp", "tp"])),
)


@given(cell=_CELL_METHODS, r=st.sampled_from([0.0, 1e-8, 1.0]),
       step=st.floats(min_value=0.0, max_value=10.0),
       task=st.sampled_from(["temporal-order", "adding"]), T=st.integers(10, 14),
       hidden=st.integers(3, 8), batch=st.integers(1, 4), seed=st.integers(0, 2**16))
@settings(max_examples=50, derandomize=True)
def test_train_never_raises_on_a_valid_config(cell, r, step, task, T, hidden, batch, seed):
    # A run that breaks records where; it never raises. The stepsize is
    # both gamma (bp) and gamma_theta (the tp rules).
    model, activation, method = cell
    cfg = small_config(task=task, T=T, model=model, activation=activation, method=method,
                       hidden=hidden, batch=batch, r=r, gamma=step, gamma_theta=step,
                       iters=30, seed=seed)
    cfg.validate()
    log = train(cfg).log
    assert len(log.losses) == (log.diverged_at if log.diverged else cfg.iters)


def test_grid_search_single_cell():
    cfg = small_config(iters=6)
    cells = grid_search(cfg, [0.1], [1.0], horizon=6)
    assert len(cells) == 1
    cell = cells[0]
    assert isinstance(cell, GridCell)
    assert cell.gamma_theta == 0.1 and cell.r == 1.0
    assert not cell.diverged and np.isfinite(cell.area)


def test_grid_search_marks_diverged_cells():
    cfg = small_config(T=20, hidden=16, iters=40)
    cells = grid_search(cfg, [1.0], [0.0, 1.0], horizon=40)
    by_r = {c.r: c for c in cells}
    assert by_r[0.0].diverged
    assert np.isnan(by_r[0.0].area)
    assert not by_r[1.0].diverged
    assert np.isfinite(by_r[1.0].area)


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_search_records_a_zero_pivot_cell_as_diverged(jobs):
    # the r = 0 cell's solve meets a zero pivot after a passing Cholesky
    # check; the grid goes on and the cell comes back diverged
    base = small_config(T=14, hidden=8, batch=4, seed=3)
    cells = grid_search(base, [0.1], [0.0, 1.0], horizon=30, jobs=jobs)
    assert [(c.r, c.diverged) for c in cells] == [(0.0, True), (1.0, False)]
    assert np.isnan(cells[0].area) and np.isfinite(cells[1].area)


def test_grid_search_checks_every_cell_before_the_first_trains(monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "train", lambda cfg: calls.append(cfg))
    for gts, rs, named in (([0.1], [1.0, -1.0], r"^r must be .*, got -1\.0"),
                           ([0.1, float("nan")], [1.0], r"^gamma_theta must be .*, got nan"),
                           ([0.1], [1.0, float("inf")], r"^r must be .*, got inf")):
        with pytest.raises(ConfigError, match=named):
            grid_search(small_config(), gts, rs, horizon=2)
    assert calls == []


def test_grid_search_parallel_jobs_match_serial():
    # 4 jobs split the 6 cells unevenly, 8 is more than the cells; r=0 at
    # gamma_theta=1 diverges
    args = (small_config(T=20, hidden=16), [0.05, 1.0], [0.0, 0.5, 1.0])
    serial = grid_search(*args, horizon=40, jobs=1)
    assert [(c.gamma_theta, c.r) for c in serial] == [
        (gt, r) for gt in args[1] for r in args[2]]
    assert any(c.diverged and np.isnan(c.area) for c in serial)
    assert not all(c.diverged for c in serial)
    for jobs in (2, 4, 8):
        parallel = grid_search(*args, horizon=40, jobs=jobs)
        for a, b in zip(serial, parallel, strict=True):
            assert (a.gamma_theta, a.r, a.diverged) == (b.gamma_theta, b.r, b.diverged)
            assert np.float64(a.area).tobytes() == np.float64(b.area).tobytes()
    assert grid_search(args[0], [], [1.0], horizon=40, jobs=4) == []


class _CellFailed(Exception):
    pass


@pytest.mark.parametrize("share", ["worker", "caller"])
def test_grid_search_reraises_a_cell_error_and_leaves_no_worker_or_pipe(monkeypatch, share):
    # with jobs=2 this process trains cell 0 (gamma_theta 0.05) and the
    # forked worker, which inherits the patch, trains cell 1 (0.1)
    bad = 0.1 if share == "worker" else 0.05
    real_train = trainer.train

    def train_or_fail(cfg):
        if cfg.gamma_theta == bad:
            raise _CellFailed(f"cell {cfg.gamma_theta} failed")
        return real_train(cfg)

    monkeypatch.setattr(trainer, "train", train_or_fail)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(_CellFailed, match=f"cell {bad} failed"):
        grid_search(small_config(), [0.05, 0.1], [1.0], horizon=3, jobs=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_grid_search_reports_a_worker_that_dies(monkeypatch):
    real_train = trainer.train
    monkeypatch.setattr(trainer, "train", lambda cfg: os._exit(3) if cfg.gamma_theta == 0.1
                        else real_train(cfg))  # only the worker trains gamma_theta 0.1
    with pytest.raises(RuntimeError, match="exited with status 3 and sent 0 bytes"):
        grid_search(small_config(), [0.05, 0.1], [1.0], horizon=3, jobs=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evaluate_zeroed_model_at_chance():
    # zero weights give a uniform softmax whose argmax ties to class 0, so
    # accuracy is a Binomial(n, 1/4) proportion over the uniform labels
    cfg = small_config(T=12, hidden=8, batch=100)
    task = build_task(cfg)
    params = init_model(cfg, task, seed=3)
    for tensor in params.tensors().values():
        tensor[...] = 0.0
    acc = evaluate(params, task, n_batches=100, rng=np.random.default_rng(5))
    assert abs(acc - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / 10_000)


def test_evaluate_scores_one_fresh_batch_of_a_synthetic_task_for_zero_batches():
    cfg = small_config()
    task = build_task(cfg)
    params = init_model(cfg, task, seed=3)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    assert evaluate(params, task, 0, rng) == evaluate(params, task, 1, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_evaluate_rejects_a_negative_batch_count(tmp_path):
    # Neither an accuracy over zero images nor a silent single batch.
    write_idx_set(tmp_path, 40, 30, np.random.default_rng(1))
    for cfg, n in ((small_config(task="pixels", k=28, data_dir=str(tmp_path)), -1),
                   (small_config(), -3)):
        task = build_task(cfg)
        params = init_model(cfg, task, seed=0)
        with pytest.raises(ValueError, match="n_batches"):
            evaluate(params, task, n, np.random.default_rng(0))


def test_evaluate_needs_an_rng_for_a_synthetic_task_only(tmp_path):
    cfg = small_config()
    task = build_task(cfg)
    with pytest.raises(ValueError, match="rng"):
        evaluate(init_model(cfg, task, seed=0), task, 0, None)
    # a pixel task scores its test split and reads no rng
    write_idx_set(tmp_path, 40, 30, np.random.default_rng(1))
    cfg = small_config(task="pixels", k=28, data_dir=str(tmp_path))
    task = build_task(cfg)
    params = init_model(cfg, task, seed=0)
    assert evaluate(params, task, 0, None) == evaluate(params, task, 0, np.random.default_rng(0))


def test_build_task_rejects_a_k_that_does_not_divide_the_image(tmp_path):
    write_idx_set(tmp_path, 4, 2, np.random.default_rng(1))
    with pytest.raises(ConfigError, match="k=5 does not divide 784 pixels"):
        build_task(small_config(task="pixels", k=5, batch=2, data_dir=str(tmp_path)))


def test_accuracy_recount_on_saved_batch():
    from tprop.tasks import classification_accuracy

    batch = gen_temporal_order(12, 50, np.random.default_rng(3))
    onehot = np.zeros((4, 50))
    onehot[batch.labels, np.arange(50)] = 1.0
    assert classification_accuracy(onehot, batch.labels) == 1.0
    wrong = np.roll(onehot, 1, axis=0)
    assert classification_accuracy(wrong, batch.labels) == 0.0


def test_config_and_tp_hyper_share_their_tp_defaults():
    cfg, hyper = ExperimentConfig(), TpHyper()
    assert (cfg.gamma_h, cfg.r, cfg.epsilon) == (hyper.gamma_h, hyper.r, hyper.epsilon)
    assert cfg.epsilon == hyper.epsilon == CLIP_MARGIN


def test_config_round_trip(tmp_path):
    cfg = small_config(T=33, gamma_h=0.004, method="tp-dtp", permute=True, momentum=0.85)
    path = tmp_path / "run.cfg"
    save_config(cfg, str(path))
    loaded = load_config(str(path))
    assert loaded == cfg


def test_config_file_applies_over_a_base(tmp_path):
    path = tmp_path / "part.cfg"
    path.write_text("iters = 7\n")
    assert load_config(str(path), small_config(iters=400)) == small_config(iters=7)
    assert load_config(str(path), small_config(T=30)) == small_config(T=30, iters=7)
    assert load_config(str(path)) == ExperimentConfig(iters=7)


def test_a_failing_replace_leaves_the_old_files_intact(tmp_path, monkeypatch):
    snapshot, metrics = tmp_path / "config.snapshot", tmp_path / "metrics.csv"
    old_cfg, old_log = small_config(T=20), train(small_config(iters=3)).log
    save_config(old_cfg, str(snapshot))
    old_log.to_csv(str(metrics))
    before = snapshot.read_bytes(), metrics.read_bytes()

    def crash(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="disk gone"):
        save_config(small_config(T=40), str(snapshot))
    with pytest.raises(OSError, match="disk gone"):
        train(small_config(iters=5)).log.to_csv(str(metrics))
    assert (snapshot.read_bytes(), metrics.read_bytes()) == before
    monkeypatch.undo()
    assert load_config(str(snapshot)) == old_cfg
    assert MetricsLog.from_csv(str(metrics)).losses == old_log.losses


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    for key in ("warp_factor = 9", "tp_momentum = true"):
        path.write_text(f"task = temporal-order\n{key}\n")
        with pytest.raises(ParseError, match=f"bad.cfg:2: unknown key {key.split()[0]!r}"):
            load_config(str(path))


def test_config_rejects_a_key_given_twice(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("r = 1.0\n# ridge\nT = 20\nr = 0.0\n")
    with pytest.raises(ParseError, match=r"twice.cfg:4: r already set on line 1"):
        load_config(str(path))


@pytest.mark.parametrize("line, named", [
    ("T 20", "expected key = value"),
    ("T = twenty", "bad value for T: 'twenty'"),
    ("permute = yes", "bad value for permute: 'yes'"),
])
def test_config_names_the_line_of_a_malformed_entry(tmp_path, line, named):
    path = tmp_path / "bad.cfg"
    path.write_text(f"task = temporal-order\n{line}\n")
    with pytest.raises(ParseError, match=f"bad.cfg:2: {re.escape(named)}"):
        load_config(str(path))


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(batch=0).validate()
    with pytest.raises(ConfigError):
        small_config(method="adam").validate()
    with pytest.raises(ConfigError):
        small_config(task="sorting").validate()
    with pytest.raises(ConfigError):
        small_config(r=-1.0).validate()
    with pytest.raises(ConfigError):
        small_config(T=5).validate()
    with pytest.raises(ConfigError):
        small_config(model="gru", method="tp-dtp").validate()
    with pytest.raises(ConfigError):
        small_config(task="pixels", k=0).validate()
    for eps in (0.0, 0.5, 0.6):
        with pytest.raises(ConfigError):
            small_config(activation="sigmoid", epsilon=eps).validate()
        with pytest.raises(ConfigError):
            small_config(model="gru", epsilon=eps).validate()
    for bad in (dict(gamma=-1e-3), dict(gamma_h=-1.0), dict(gamma_theta=-0.1),
                dict(gamma_h=float("nan")), dict(momentum=-0.1), dict(momentum=1.0),
                dict(momentum=1.5), dict(iters=0), dict(activation="softsign")):
        with pytest.raises(ConfigError):
            small_config(**bad).validate()
    for name in ("r", "gamma", "gamma_h", "gamma_theta"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                small_config(**{name: value}).validate()
    with pytest.raises(ConfigError):
        grid_search(small_config(), [0.1], [1.0], horizon=0)
    for jobs in (0, -4):
        with pytest.raises(ConfigError, match="jobs"):
            grid_search(small_config(), [0.1], [1.0], horizon=2, jobs=jobs)
    small_config(gamma=0.0, gamma_h=0.0, gamma_theta=0.0, momentum=0.0, iters=1, r=0.0).validate()


def test_metrics_csv_round_trip(tmp_path):
    cfg = small_config(iters=8, eval_every=0)
    res = train(cfg)
    path = tmp_path / "metrics.csv"
    res.log.to_csv(str(path))
    loaded = MetricsLog.from_csv(str(path))
    assert loaded.iters == res.log.iters
    assert loaded.losses == res.log.losses
    assert loaded.accs == res.log.accs
    assert loaded.diverged == res.log.diverged


def test_metrics_csv_preserves_divergence_marker(tmp_path):
    cfg = small_config(task="adding", T=12, method="bp", gamma=1e8, iters=300, momentum=0.0)
    res = train(cfg)
    assert res.log.diverged
    path = tmp_path / "metrics.csv"
    res.log.to_csv(str(path))
    loaded = MetricsLog.from_csv(str(path))
    assert loaded.diverged and loaded.diverged_at == res.log.diverged_at


@pytest.mark.parametrize("marker", ["x", "", "-3", "1.5"])
def test_metrics_csv_names_the_line_of_a_malformed_divergence_marker(tmp_path, marker):
    path = tmp_path / "metrics.csv"
    path.write_text(f"{trainer.METRICS_HEADER}\n0,1.0,0.5,0.1\n# diverged_at={marker}\n")
    named = f"^{re.escape(str(path))}:3: diverged_at must be an iteration >= 0"
    with pytest.raises(ParseError, match=named):
        MetricsLog.from_csv(str(path))


@pytest.mark.parametrize("body, named", [
    ("iter,loss\n0,1.0\n", ": unexpected header 'iter,loss'"),
    (f"{trainer.METRICS_HEADER}\n0,1.0,0.5\n", ":2: wrong field count"),
    (f"{trainer.METRICS_HEADER}\n0,1.0,0.5,0.1\n1,x,0.5,0.1\n", ":3: could not convert"),
])
def test_metrics_csv_names_the_line_of_a_malformed_row(tmp_path, body, named):
    path = tmp_path / "metrics.csv"
    path.write_text(body)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path) + named)}"):
        MetricsLog.from_csv(str(path))


def test_running_accuracy_window():
    # the mean of the last ACC_WINDOW accuracies, or of all of a shorter log
    w = trainer.ACC_WINDOW
    log = MetricsLog()
    for i in range(w + 50):
        log.iters.append(i)
        log.losses.append(1.0)
        log.accs.append(1.0 if i >= 50 else 0.0)
        log.wall_ms.append(0.1)
        if len(log.accs) == w - 25:
            npt.assert_allclose(log.running_accuracy(), (w - 75) / (w - 25), rtol=1e-12)
    npt.assert_allclose(log.running_accuracy(), 1.0, atol=0)


def test_stop_at_acc_halts_early():
    # the running accuracy is compared only once a full window is logged,
    # so a lucky first batch does not end the run
    cfg = small_config(T=10, hidden=20, iters=4000, stop_at_acc=0.5, seed=1)
    res = train(cfg)
    assert 100 <= len(res.log.losses) < 4000
    assert res.log.running_accuracy() >= 0.5


def test_train_reaches_forward_and_backward_through_their_modules(monkeypatch):
    # Wrappers set on these module attributes (as the benchmark's tracer
    # does) must see every forward and backward call the loop makes.
    hooks = ((rnn, "forward"), (rnn, "bptt"), (targetprop, "tp_direction"),
             (gru, "gru_forward"), (gru, "gru_bptt"), (gru, "gru_tp_backward"))
    called = {
        ("rnn", "bp"): ("forward", "bptt"),
        ("rnn", "tp"): ("forward", "tp_direction"),
        ("rnn", "tp-dtp"): ("forward", "tp_direction"),
        ("rnn", "tp-exact"): ("forward", "tp_direction"),
        ("gru", "bp"): ("gru_forward", "gru_bptt"),
        ("gru", "tp"): ("gru_forward", "gru_tp_backward"),
    }

    def counting(fn, name, counts):
        def wrapper(*args, **kwargs):
            counts[name if kwargs.get("states", True) else f"{name}(states=False)"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for (model, method), names in called.items():
        counts = {attr: 0 for _, attr in hooks}
        counts.update({"forward(states=False)": 0, "gru_forward(states=False)": 0})
        cfg = small_config(model=model, method=method, iters=2)
        with monkeypatch.context() as m:
            for module, attr in hooks:
                m.setattr(module, attr, counting(getattr(module, attr), attr, counts))
            res = train(cfg)
            # evaluation runs the same forward, keeping no per-step states
            evaluate(res.params, build_task(cfg), 3, np.random.default_rng(0))
        want = {a: 2 if a in names else 0 for a in counts}
        want[f"{names[0]}(states=False)"] = 3
        assert counts == want, (model, method)


@pytest.mark.parametrize("model", ["rnn", "gru"])
def test_evaluate_memory_does_not_grow_with_sequence_length(model, traced_peak):
    # A training rollout stores at most one (tau, p, B) stack of states
    # (the RNN's; the GRU keeps one per block). Prediction needs only the
    # running state.
    cfg = small_config(model=model, T=400, hidden=128, batch=32)
    task = build_task(cfg)
    params = init_model(cfg, task, seed=0)
    stack = cfg.T * cfg.hidden * cfg.batch * 8
    peak = traced_peak(lambda: evaluate(params, task, 1, np.random.default_rng(0)))
    assert peak < stack, (peak, stack)


def test_train_keeps_one_gru_rollout_live(traced_peak):
    # A GRU rollout keeps h_t at the block edges only, 1/_BLOCK of a stack;
    # the backward re-runs one block at a time into block-sized buffers,
    # and the previous iteration's cache must be released before the next
    # forward allocates its own. The fixed block buffers weigh more at T=200.
    for T, bound in ((200, 1.25), (800, 0.6)):
        for method in ("bp", "tp"):
            cfg = small_config(model="gru", method=method, T=T, hidden=64, batch=32, iters=2)
            stack = cfg.T * cfg.hidden * cfg.batch * 8
            peak = traced_peak(lambda: train(cfg))
            assert peak < bound * stack, (T, method, peak / stack)


@pytest.mark.parametrize("method", ["bp", "tp", "tp-dtp", "tp-exact"])
def test_train_rnn_peak_below_bound(method, traced_peak):
    # The RNN rollout keeps only its states, and a'(u_t) is read from them.
    # The sweep holds one block of errors and the block's flattened copies
    # at a time; no rule stacks anything over the whole time axis.
    cfg = small_config(method=method, T=200, hidden=64, batch=32, iters=2)
    stack = cfg.T * cfg.hidden * cfg.batch * 8
    peak = traced_peak(lambda: train(cfg))
    assert peak < 2.0 * stack, peak / stack


@pytest.mark.parametrize("model", ["rnn", "gru"])
def test_train_writes_every_rollout_into_one_state_stack(monkeypatch, model):
    # The first rollout allocates the stack; every later one gets it as out=.
    module, attr = (rnn, "forward") if model == "rnn" else (gru, "gru_forward")
    forward = getattr(module, attr)
    seen = []

    def recording(*args, **kwargs):
        cache = forward(*args, **kwargs)
        out = kwargs.get("out")
        assert out is None or cache.hs is out
        seen.append((out is not None, cache.hs.__array_interface__["data"][0]))
        return cache

    monkeypatch.setattr(module, attr, recording)
    train(small_config(model=model, method="tp", iters=4))
    assert [given for given, _ in seen] == [False, True, True, True]
    assert len({address for _, address in seen}) == 1


def write_idx_set(directory, n_train, n_test, rng) -> int:
    """A random 28 x 28 IDX train/test pair in directory; returns the image bytes."""
    total = 0
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        write_idx_pair(directory / f"{prefix}-images-idx3-ubyte",
                       directory / f"{prefix}-labels-idx1-ubyte", images, labels)
        total += images.nbytes
    return total


@pytest.mark.parametrize("model", ["rnn", "gru"])
def test_train_keeps_pixel_images_as_bytes(tmp_path, model, traced_peak):
    # The image store is the files' uint8 pixels; only a batch is scaled to
    # float64. A float32 store alone would be 4x the image bytes.
    raw = write_idx_set(tmp_path, 3000, 250, np.random.default_rng(0))
    cfg = small_config(task="pixels", k=1, data_dir=str(tmp_path), model=model, iters=2)
    stack = (784 + 1) * cfg.hidden * cfg.batch * 8
    peak = traced_peak(lambda: train(cfg))
    assert peak < 1.5 * raw + stack, (peak / raw, stack / raw)


def test_pixel_test_split_is_read_on_first_evaluation(tmp_path, monkeypatch):
    # A run that never evaluates never reads the t10k split; one that does
    # reads it once, whatever the number of evaluations. The split must
    # still exist when the task is built.
    write_idx_set(tmp_path, 40, 30, np.random.default_rng(1))
    load_idx, reads = tasks.load_idx, []

    def recording(images, labels):
        reads.append(os.path.basename(images).split("-")[0])
        return load_idx(images, labels)

    monkeypatch.setattr(tasks, "load_idx", recording)
    cfg = small_config(task="pixels", k=28, data_dir=str(tmp_path), method="bp", iters=4)
    assert train(cfg).log.eval_iters == [] and reads == ["train"]
    reads.clear()
    assert train(dataclasses.replace(cfg, eval_every=2)).log.eval_iters == [1, 3]
    assert reads == ["train", "t10k"]
    (tmp_path / "t10k-labels-idx1-ubyte").unlink()
    with pytest.raises(ConfigError, match="t10k-labels"):
        build_task(cfg)


def test_pixel_test_labels_past_the_training_classes_raise(tmp_path):
    # Trained on classes 0-4, the head has 5 outputs and cannot score a
    # test split labelled 0-9: building the task raises, naming the labels
    # file, before a run spends any iteration, whether or not it evaluates.
    write_idx_set(tmp_path, 40, 20, np.random.default_rng(2))
    for prefix, n, classes in (("train", 40, 5), ("t10k", 20, 10)):
        (tmp_path / f"{prefix}-labels-idx1-ubyte").write_bytes(
            struct.pack(">ii", 0x801, n) + (np.arange(n) % classes).astype(np.uint8).tobytes())
    cfg = small_config(task="pixels", k=28, data_dir=str(tmp_path), method="bp", iters=2)
    for run in (lambda: build_task(cfg), lambda: train(cfg),
                lambda: train(dataclasses.replace(cfg, eval_every=1))):
        with pytest.raises(rnn.LabelMismatch, match="t10k-labels-idx1-ubyte"):
            run()


def test_pixel_test_images_that_do_not_fit_the_training_split_raise_at_build(tmp_path):
    # The t10k images' header is read when the task is built, its payload
    # left for the first evaluation: another image size (whatever k), more
    # labels than images, or a wrong magic raises before any iteration.
    rng = np.random.default_rng(3)
    write_idx_set(tmp_path, 40, 20, rng)
    images, labels = tmp_path / "t10k-images-idx3-ubyte", tmp_path / "t10k-labels-idx1-ubyte"
    write_idx_pair(images, labels, rng.integers(0, 256, (20, 20, 20), np.uint8),
                   np.zeros(20, np.uint8))
    for k in (1, 28):
        cfg = small_config(task="pixels", k=k, data_dir=str(tmp_path), eval_every=500)
        with pytest.raises(tasks.BadHeader, match=r"t10k-images-idx3-ubyte: 20x20 images, "
                                                  r"but \S*train-images-idx3-ubyte has 28x28"):
            build_task(cfg)
    write_idx_pair(images, labels, rng.integers(0, 256, (10, 28, 28), np.uint8),
                   np.zeros(12, np.uint8))
    with pytest.raises(tasks.CountMismatch, match=r"10 images but \S*t10k-labels\S* has 12"):
        build_task(cfg)
    images.write_bytes(struct.pack(">iiii", 0x801, 12, 28, 28) + bytes(12 * 784))
    with pytest.raises(tasks.BadMagic, match="t10k-images"):
        build_task(cfg)


def pixel_task(directory, n, batch):
    write_idx_set(directory, n, 5, np.random.default_rng(1))
    return build_task(small_config(task="pixels", k=28, data_dir=str(directory), batch=batch))


def sampled_rows(task, rng, n_batches, monkeypatch):
    """The training rows of the task's next n_batches batches."""
    image_batch, rows = tasks.image_batch, []

    def recording(dataset, indices, k, permutation=None):
        rows.append(np.asarray(indices).tolist())
        return image_batch(dataset, indices, k, permutation)

    monkeypatch.setattr(tasks, "image_batch", recording)
    for _ in range(n_batches):
        task.sample(rng)
    return rows


def test_pixel_epochs_slice_the_data_streams_permutations_in_order(tmp_path, monkeypatch):
    # 10 images at batch 3: each epoch is the stream's next permutation cut
    # into 3 whole batches, and its tenth row is dropped
    rows = sampled_rows(pixel_task(tmp_path, 10, 3), np.random.default_rng(4), 9, monkeypatch)
    ref = np.random.default_rng(4)
    for epoch in range(3):
        order = ref.permutation(10).tolist()
        taken = rows[3 * epoch:3 * epoch + 3]
        assert taken == [order[0:3], order[3:6], order[6:9]]
        flat = sum(taken, [])
        assert len(set(flat)) == 9 and order[9] not in flat  # no row twice


def test_pixel_batch_of_every_image_reshuffles_and_a_larger_one_is_rejected(
        tmp_path, monkeypatch):
    rows = sampled_rows(pixel_task(tmp_path, 10, 10), np.random.default_rng(4), 3, monkeypatch)
    ref = np.random.default_rng(4)
    assert rows == [ref.permutation(10).tolist() for _ in range(3)]
    with pytest.raises(ConfigError, match="batch 11 exceeds the 10 training images"):
        build_task(small_config(task="pixels", k=28, data_dir=str(tmp_path), batch=11))


def test_pixel_task_mid_epoch_copies_and_pickles_with_its_stream(tmp_path):
    # A run's data state is plain data: a copy taken mid-epoch goes on
    # drawing the batches the original draws, across epoch boundaries.
    task, rng = pixel_task(tmp_path, 10, 3), np.random.default_rng(4)
    for _ in range(4):
        task.sample(rng)
    copies = [copy.deepcopy((task, rng)), pickle.loads(pickle.dumps((task, rng)))]
    want = [task.sample(rng) for _ in range(7)]
    for twin, twin_rng in copies:
        for b in want:
            got = twin.sample(twin_rng)
            assert got.inputs.tobytes() == b.inputs.tobytes()
            assert got.labels.tobytes() == b.labels.tobytes()


def test_running_accuracy_of_an_empty_log_is_zero():
    assert MetricsLog().running_accuracy() == 0.0


def test_from_csv_skips_blank_lines_and_notes(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("iter,loss,acc,wall_ms\n0,1.5,0.25,0.1\n\n# note\n1,0.5,0.75,0.2\n")
    log = MetricsLog.from_csv(str(path))
    assert (log.iters, log.losses, log.accs) == ([0, 1], [1.5, 0.5], [0.25, 0.75])
    assert not log.diverged
