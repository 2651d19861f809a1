import argparse
import dataclasses
import re
import shlex
import struct
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from tprop import trainer
from tprop.cli import (EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, _add_config_flags, _config_from_args,
                       bench_point, build_parser, main, write_heatmap_svg)


def write_tiny_idx(root, n=8, h=4, w=4, n_classes=4, seed=0):
    """Write a small IDX image/label pair for both splits."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for img_name, lab_name in (
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ):
        imgs = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
        labels = (np.arange(n) % n_classes).astype(np.uint8)
        (root / img_name).write_bytes(struct.pack(">iiii", 0x803, n, h, w) + imgs.tobytes())
        (root / lab_name).write_bytes(struct.pack(">ii", 0x801, n) + labels.tobytes())


def test_unknown_command_exits_with_usage_code():
    # gen-data and --tp-momentum are gone: a command and a flag no parser knows
    for argv in (["frobnicate"], ["gen-data"], ["train", "--tp-momentum"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE, argv


def test_missing_required_flag_exits_with_usage_code():
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--r-grid", "1"])  # --gamma-theta-grid is required
    assert exc.value.code == EXIT_USAGE


def test_every_readme_command_line_parses():
    # only parsed, never run: a removed command or flag cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["tprop"]:
                commands.append(words[1:])
    assert len(commands) >= 10
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: tprop {shlex.join(argv)}")


def test_every_command_declares_its_settings_as_config_fields():
    fields = {fld.name: fld for fld in dataclasses.fields(trainer.ExperimentConfig)}
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    with_settings = set()
    for name, parser in commands.items():
        for action in parser._actions:
            if action.dest not in fields:
                continue
            # the flag reads exactly as _add_config_flags declares it
            reference = argparse.ArgumentParser()
            _add_config_flags(reference, (action.dest,))
            want = reference._actions[-1]
            assert (action.option_strings, action.choices, action.type, action.default,
                    type(action)) == (want.option_strings, want.choices, want.type,
                                      want.default, type(want)), (name, action.dest)
            assert action.help == fields[action.dest].metadata["help"], (name, action.dest)
            with_settings.add(name)
    assert with_settings == {"train", "grid", "bench"}
    assert _config_from_args(build_parser().parse_args(["bench"])).batch == 20


def test_train_writes_snapshot_and_metrics(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", "--task", "temporal-order", "--T", "12", "--hidden", "8",
            "--method", "tp", "--batch", "4", "--iters", "6", "--seed", "3",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    line = capsys.readouterr().out
    assert line.startswith("ok task=temporal-order method=tp iters=6")
    log = trainer.MetricsLog.from_csv(str(out / "metrics.csv"))
    assert len(log.losses) == 6
    # the snapshot pins every setting: rerunning it reproduces the metrics
    cfg = trainer.load_config(str(out / "config.snapshot"))
    rerun = trainer.train(cfg)
    assert rerun.log.losses == log.losses


def test_train_divergence_exit_code(tmp_path, capsys):
    out = tmp_path / "blowup"
    argv = ["train", "--task", "adding", "--T", "12", "--hidden", "8",
            "--method", "bp", "--gamma", "1e8", "--momentum", "0.0",
            "--batch", "4", "--iters", "200", "--out", str(out)]
    assert main(argv) == EXIT_DIVERGED
    assert capsys.readouterr().out.startswith("diverged task=adding")
    log = trainer.MetricsLog.from_csv(str(out / "metrics.csv"))
    assert log.diverged and log.diverged_at is not None


def test_train_zero_pivot_after_cholesky_is_divergence(tmp_path, capsys):
    # At iteration 2 the r = 0 system passes its Cholesky check but the
    # solve meets a zero pivot: a divergence, not an error.
    out = tmp_path / "pivot"
    argv = ["train", "--task", "temporal-order", "--T", "14", "--hidden", "8",
            "--batch", "4", "--seed", "3", "--gamma-theta", "0.1", "--r", "0",
            "--iters", "30", "--eval-every", "0", "--out", str(out)]
    assert main(argv) == EXIT_DIVERGED
    assert capsys.readouterr().out.startswith("diverged task=temporal-order method=tp at_iter=2")
    assert trainer.MetricsLog.from_csv(str(out / "metrics.csv")).diverged_at == 2


def test_train_rejects_bad_config_value(tmp_path, capsys):
    data = tmp_path / "idx"
    write_tiny_idx(data)
    for bad in (["--task", "temporal-order", "--batch", "0"],
                ["--task", "pixels", "--data-dir", str(data), "--k", "0", "--batch", "2"],
                ["--gamma-h", "-1", "--iters", "3"],
                ["--method", "bp", "--momentum", "1.5", "--iters", "3"],
                ["--iters", "0"],
                ["--r", "nan", "--iters", "3"],
                ["--r", "inf", "--iters", "3"],
                ["--gamma-theta", "inf", "--iters", "3"],
                ["--gamma-h", "inf", "--iters", "3"],
                ["--method", "bp", "--gamma", "inf", "--iters", "3"],
                ["--seed", "-1"],
                ["--perm-seed", "-1"],
                ["--eval-every", "-5"],
                ["--stop-at-acc", "nan"],
                ["--stop-at-acc", "1.5"],
                ["--stop-at-acc", "-0.1"]):
        argv = ["train", *bad, "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


def _other_value(fld):
    """A valid value of one ExperimentConfig setting other than its default."""
    if fld.metadata["choices"]:
        return next(c for c in fld.metadata["choices"] if c != fld.default)
    if fld.type == "bool":
        return not fld.default
    if fld.type == "str":
        return fld.default + "elsewhere"
    if fld.type == "int":
        return fld.default + 1
    return fld.default / 2 or 0.5


@pytest.mark.parametrize("fld", dataclasses.fields(trainer.ExperimentConfig),
                         ids=lambda f: f.name)
def test_every_setting_reads_the_same_as_flag_config_line_and_field(fld, tmp_path):
    value = _other_value(fld)
    flag = "--" + fld.name.replace("_", "-")
    if fld.type == "bool":
        argv = [flag if value else "--no-" + flag[2:]]
        text = "true" if value else "false"
    else:
        text = repr(value) if fld.type == "float" else str(value)
        argv = [flag, text]
    direct = trainer.ExperimentConfig(**{fld.name: value})
    assert direct != trainer.ExperimentConfig()
    for command in (["train"], ["grid", "--gamma-theta-grid", "1", "--r-grid", "1"]):
        assert _config_from_args(build_parser().parse_args([*command, *argv])) == direct
    path = tmp_path / "one.cfg"
    path.write_text(f"{fld.name} = {text}\n")
    assert trainer.load_config(str(path)) == direct


def test_train_rejects_a_value_outside_the_choices():
    for name in ("softsign", "relu"):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--activation", name])
        assert exc.value.code == EXIT_USAGE, name


def test_train_pixels_missing_dataset(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(trainer.DATA_DIR_ENV, raising=False)
    argv = ["train", "--task", "pixels", "--hidden", "6", "--batch", "2",
            "--iters", "2", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    # pointing at an empty directory names the first missing file
    argv += ["--data-dir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "missing dataset file" in capsys.readouterr().err


def test_pixels_batch_larger_than_train_split(tmp_path, capsys):
    data = tmp_path / "idx"
    write_tiny_idx(data, n=8)
    cfg = trainer.ExperimentConfig(task="pixels", data_dir=str(data), k=4, hidden=6,
                                   batch=9, iters=1)
    with pytest.raises(trainer.ConfigError, match="exceeds"):
        trainer.build_task(cfg)
    argv = ["train", "--task", "pixels", "--data-dir", str(data), "--k", "4",
            "--hidden", "6", "--batch", "9", "--iters", "1", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_USAGE
    assert "exceeds" in capsys.readouterr().err


def test_train_pixels_end_to_end(tmp_path, capsys):
    data = tmp_path / "idx"
    write_tiny_idx(data)
    out = tmp_path / "run"
    argv = ["train", "--task", "pixels", "--data-dir", str(data), "--k", "4",
            "--hidden", "6", "--batch", "2", "--iters", "4", "--eval-every", "2",
            "--method", "tp", "--out", str(out)]
    assert main(argv) == EXIT_OK
    log = trainer.MetricsLog.from_csv(str(out / "metrics.csv"))
    assert len(log.losses) == 4
    assert log.eval_accs, "eval cadence should have fired"
    assert all(0.0 <= a <= 1.0 for a in log.eval_accs)


def test_plot_two_logs(tmp_path):
    paths = []
    for j, name in enumerate(("left", "right")):
        log = trainer.MetricsLog()
        for i in range(10):
            log.iters.append(i)
            log.losses.append(float(1 + i + j))
            log.accs.append(0.0)
            log.wall_ms.append(0.1)
        p = tmp_path / f"{name}.csv"
        log.to_csv(str(p))
        paths.append(str(p))
    svg_path = tmp_path / "out.svg"
    assert main(["plot", "--in", *paths, "--out", str(svg_path)]) == EXIT_OK
    svg = svg_path.read_text()
    ET.fromstring(svg)
    assert svg.count("<polyline") == 2
    assert "left" in svg and "right" in svg
    # axes span the exact data extrema: x in [0, 9], loss in [1, 11]
    assert ">0<" in svg and ">9<" in svg
    assert ">1<" in svg and ">11<" in svg


def test_svg_writers_escape_text(tmp_path):
    # a series label (the file's base name) and titles with XML specials
    title = "T<60 & r=1"
    log = trainer.MetricsLog()
    log.iters += [0, 1]
    log.losses += [1.0, 2.0]
    log.accs += [0.0, 0.0]
    log.wall_ms += [0.1, 0.1]
    csv_path = tmp_path / "a&b<1>.csv"
    log.to_csv(str(csv_path))
    line_path, heat_path = tmp_path / "line.svg", tmp_path / "heat.svg"
    argv = ["plot", "--in", str(csv_path), "--title", title, "--out", str(line_path)]
    assert main(argv) == EXIT_OK
    write_heatmap_svg(str(heat_path), [trainer.GridCell(0.1, 1.0, 2.0, False)], title=title)
    for path, want in ((line_path, {title, "a&b<1>", "loss"}), (heat_path, {title})):
        texts = {el.text for el in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")}
        assert want <= texts, (path.name, texts)


def test_plot_header_only_csv(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("iter,loss,acc,wall_ms\n")
    svg_path = tmp_path / "empty.svg"
    assert main(["plot", "--in", str(p), "--out", str(svg_path)]) == EXIT_OK
    svg = svg_path.read_text()
    ET.fromstring(svg)
    assert "<polyline" not in svg  # nothing to draw, axes still render
    assert '<line' in svg


def test_plot_rejects_unknown_metric(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("iter,loss,acc,wall_ms\n")
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--in", str(p), "--metric", "entropy", "--out", str(tmp_path / "x.svg")])
    assert exc.value.code == EXIT_USAGE


def test_grid_writes_csv_and_heatmap(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    svg_path = tmp_path / "grid.svg"
    argv = ["grid", "--task", "temporal-order", "--T", "12", "--hidden", "8",
            "--batch", "4", "--iters", "5", "--method", "tp",
            "--gamma-theta-grid", "0.05,0.1", "--r-grid", "0.5,1.0",
            "--out-csv", str(csv_path), "--out-svg", str(svg_path)]
    assert main(argv) == EXIT_OK
    assert "grid 4 cells" in capsys.readouterr().out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "gamma_theta,r,area,diverged"
    assert len(lines) == 5
    seen = set()
    for line in lines[1:]:
        gt, r, area, flag = line.split(",")
        seen.add((float(gt), float(r)))
        assert flag in ("true", "false")
        if flag == "false":
            assert np.isfinite(float(area))
    assert seen == {(0.05, 0.5), (0.05, 1.0), (0.1, 0.5), (0.1, 1.0)}
    svg = svg_path.read_text()
    ET.fromstring(svg)
    assert svg.count("<rect") >= 4


def test_grid_rejects_nonpositive_jobs(tmp_path, capsys):
    for jobs in ("0", "-4"):
        argv = ["grid", "--T", "12", "--hidden", "4", "--batch", "2", "--iters", "3",
                "--gamma-theta-grid", "0.1", "--r-grid", "1", "--jobs", jobs,
                "--out-csv", str(tmp_path / "g.csv"), "--out-svg", str(tmp_path / "g.svg")]
        assert main(argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_grid_runs_the_config_files_iters_unless_a_flag_overrides(tmp_path, monkeypatch):
    calls = []

    def spy(base, gts, rs, horizon, jobs):
        calls.append((base.iters, base.T, horizon))
        return [trainer.GridCell(gts[0], rs[0], 1.0, False)]

    monkeypatch.setattr(trainer, "grid_search", spy)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("iters = 7\nT = 12\n")
    common = ["grid", "--gamma-theta-grid", "0.1", "--r-grid", "1",
              "--out-csv", str(tmp_path / "g.csv"), "--out-svg", str(tmp_path / "g.svg")]
    assert main([*common, "--config", str(cfg)]) == EXIT_OK
    assert main([*common, "--config", str(cfg), "--iters", "3"]) == EXIT_OK
    assert main(common) == EXIT_OK
    assert calls == [(7, 12, 7), (3, 12, 3), (trainer.GRID_HORIZON, 60, trainer.GRID_HORIZON)]
    assert "area(400 iters)" in (tmp_path / "g.svg").read_text()


def test_grid_rejects_a_bad_cell_before_training(tmp_path, capsys):
    argv = ["grid", "--T", "12", "--hidden", "4", "--batch", "2", "--iters", "3",
            "--gamma-theta-grid", "0.1", "--r-grid", "1,-1",
            "--out-csv", str(tmp_path / "g.csv"), "--out-svg", str(tmp_path / "g.svg")]
    assert main(argv) == EXIT_USAGE
    assert "r must be finite and >= 0, got -1.0" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_bench_point_alternates_the_methods_in_every_round(monkeypatch):
    calls = []
    real = trainer.cell_passes

    def recording(params):
        forward, bptt, tp_backward = real(params)

        def bp(*args):
            calls.append("bp")
            return bptt(*args)

        def tp(*args):
            calls.append(args[-1].variant)  # the TpHyper
            return tp_backward(*args)

        return forward, bp, tp

    monkeypatch.setattr(trainer, "cell_passes", recording)
    rnn_round = ["bp", "linearized", "finite_difference", "exact_inverse"]
    for model, names, order, inv in (
            ("rnn", ["bp", "tp", "tp-dtp", "tp-exact"], rnn_round, [0, 1, 1, 1]),
            ("gru", ["gru-bp", "gru-tp"], ["bp", "linearized"], [0, 3])):
        calls.clear()
        rows = bench_point(5, 4, 2, reps=4, model=model)
        assert calls == order * (3 + 4), model  # 3 warm-up rounds, then 4 timed
        assert [method for _, _, method, _, _ in rows] == names
        assert [inv for *_, inv in rows] == inv


def test_bench_rejects_a_negative_seed(tmp_path, capsys):
    # a zero batch too: each exits before any timing or writing and names the setting
    out = tmp_path / "bench.csv"
    for bad, named in ((["--seed", "-1"], "seed"), (["--batch", "0"], "batch")):
        argv = ["bench", *bad, "--tau-grid", "5", "--p-grid", "3", "--reps", "1",
                "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_bench_csv_counts_inversions(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    argv = ["bench", "--tau-grid", "5,10", "--p-grid", "8", "--batch", "2",
            "--reps", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,p,method,ms_per_iter,inversions"
    rows = [line.split(",") for line in lines[1:]]
    assert [(tau, method) for tau, _, method, _, _ in rows] == [
        (tau, method) for tau in ("5", "10") for method in ("bp", "tp", "tp-dtp", "tp-exact")]
    for tau, p, method, ms, inversions in rows:
        assert float(ms) > 0.0
        assert int(inversions) == (0 if method == "bp" else 1)
    assert capsys.readouterr().out.startswith("tau,p,method")


def test_bench_gru_counts_three_inversions(capsys):
    argv = ["bench", "--model", "gru", "--tau-grid", "5,13", "--p-grid", "8",
            "--batch", "2", "--reps", "2"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tau,p,method,ms_per_iter,inversions"
    rows = [line.split(",") for line in lines[1:]]
    assert [(tau, method) for tau, _, method, _, _ in rows] == [
        ("5", "gru-bp"), ("5", "gru-tp"), ("13", "gru-bp"), ("13", "gru-tp")]
    for _, _, method, ms, inversions in rows:
        assert float(ms) > 0.0
        assert int(inversions) == (3 if method == "gru-tp" else 0)


def test_bench_rejects_nonpositive_sizes(capsys):
    for bad in (["--reps", "0"], ["--batch", "0"], ["--tau-grid", "0"], ["--p-grid", "-1"],
                ["--tau-grid", "10.9"], ["--p-grid", "inf"]):
        assert main(["bench", "--tau-grid", "5", "--p-grid", "8", *bad]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


def test_check_suite_reports_all_pass(capsys):
    assert main(["check", "--suite", "dtp"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "suite,check,passed,measured,bound"
    assert len(out) > 1
    for line in out[1:]:
        fields = line.split(",")
        assert fields[0] == "dtp" and fields[2] == "pass"


def test_check_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "vibes"])
    assert exc.value.code == EXIT_USAGE
