"""Command line front end.

Subcommands: gen-data (serialize synthetic batches), train (one run with
metrics and a reproducible config snapshot), grid (stepsize/regularization
sweep into a CSV and an SVG heatmap), check (named diagnostic suites as a
pass/fail CSV table), bench (per-iteration timing of the two backward
passes of the RNN or the GRU), plot (metrics CSVs into a self-contained SVG).

Exit codes: 0 success, 1 usage or config error, 2 training diverged.
Plots are hand-written SVG, so runs have no plotting dependency and the
artifacts diff cleanly.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import diagnostics, gru, linalg, rnn, targetprop, tasks, trainer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; our contract reserves 2
    for divergence, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# SVG writers


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not np.isfinite(lo) or not np.isfinite(hi) or lo == hi:
        return [lo]
    return list(np.linspace(lo, hi, n))


def write_line_svg(path, series, xlabel="iter", ylabel="loss", title=""):
    """Overlaid polylines with axes, ticks and a legend.

    ``series`` is a list of (label, xs, ys). Axis ranges are the exact data
    extrema; with no data at all the axes span [0, 1]. Text is XML-escaped.
    """
    from xml.sax.saxutils import escape  # loads urllib.request (~40 ms); only plots need it

    W, H = 640, 420
    ml, mr, mt, mb = 64, 20, 28, 44
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if np.isfinite(y)]
    x0, x1 = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    y0, y1 = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (W - ml - mr)

    def py(y):
        return H - mb - (y - y0) / (y1 - y0) * (H - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="monospace" font-size="11">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="16" text-anchor="middle" font-size="13">{escape(title)}</text>',
        f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" stroke="black"/>',
    ]
    for t in _ticks(x0, x1):
        out.append(f'<line x1="{px(t):.1f}" y1="{H - mb}" x2="{px(t):.1f}" '
                   f'y2="{H - mb + 4}" stroke="black"/>')
        out.append(f'<text x="{px(t):.1f}" y="{H - mb + 16}" '
                   f'text-anchor="middle">{t:.4g}</text>')
    for t in _ticks(y0, y1):
        out.append(f'<line x1="{ml - 4}" y1="{py(t):.1f}" x2="{ml}" '
                   f'y2="{py(t):.1f}" stroke="black"/>')
        out.append(f'<text x="{ml - 6}" y="{py(t) + 3:.1f}" '
                   f'text-anchor="end">{t:.4g}</text>')
    out.append(f'<text x="{(ml + W - mr) / 2:.1f}" y="{H - 8}" '
               f'text-anchor="middle">{escape(xlabel)}</text>')
    out.append(f'<text x="14" y="{(mt + H - mb) / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 14 {(mt + H - mb) / 2:.1f})">{escape(ylabel)}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if np.isfinite(y)
        )
        if pts:
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        ly = mt + 14 + 16 * i
        out.append(f'<line x1="{W - mr - 150}" y1="{ly}" x2="{W - mr - 126}" '
                   f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{W - mr - 120}" y="{ly + 4}">{escape(label)}</text>')
    out.append("</svg>")
    _atomic_write(path, "\n".join(out) + "\n")


def _heat_color(t: float) -> str:
    """t in [0, 1], 0 = best (brightest)."""
    lo = (237, 248, 255)
    hi = (13, 35, 69)
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(lo, hi))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"

def write_heatmap_svg(path, cells, title=""):
    """Grid of (gamma_theta, r) cells shaded by area under the training-loss
    curve: smaller area is brighter, diverged cells stay blank. The title
    is XML-escaped."""
    from xml.sax.saxutils import escape  # as in write_line_svg

    gts = sorted({c.gamma_theta for c in cells}, reverse=True)
    rs = sorted({c.r for c in cells})
    cw, ch = 84, 46
    ml, mt, mr, mb = 88, 40, 20, 56
    W = ml + cw * len(rs) + mr
    H = mt + ch * len(gts) + mb
    finite = [c.area for c in cells if not c.diverged and np.isfinite(c.area)]
    lo = min(finite) if finite else 0.0
    span = (max(finite) - lo) if len(finite) > 1 and max(finite) > lo else 1.0
    by_pos = {(c.gamma_theta, c.r): c for c in cells}
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="monospace" font-size="11">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="20" text-anchor="middle" font-size="13">{escape(title)}</text>',
    ]
    for i, gt in enumerate(gts):
        for j, r in enumerate(rs):
            cell = by_pos.get((gt, r))
            x, y = ml + j * cw, mt + i * ch
            if cell is None:
                continue
            if cell.diverged:
                out.append(f'<rect x="{x}" y="{y}" width="{cw}" height="{ch}" '
                           f'fill="none" stroke="#999"/>')
                continue
            t = (cell.area - lo) / span
            out.append(
                f'<rect x="{x}" y="{y}" width="{cw}" height="{ch}" '
                f'fill="{_heat_color(t)}" stroke="#999">'
                f'<title>gamma_theta={gt:g} r={r:g} area={cell.area:.6g}</title></rect>'
            )
    for i, gt in enumerate(gts):
        out.append(f'<text x="{ml - 8}" y="{mt + i * ch + ch / 2 + 4:.1f}" '
                   f'text-anchor="end">{gt:g}</text>')
    for j, r in enumerate(rs):
        out.append(f'<text x="{ml + j * cw + cw / 2:.1f}" y="{mt + ch * len(gts) + 16}" '
                   f'text-anchor="middle">{r:g}</text>')
    out.append(f'<text x="{ml + cw * len(rs) / 2:.1f}" y="{H - 10}" '
               f'text-anchor="middle">r</text>')
    out.append(f'<text x="16" y="{mt + ch * len(gts) / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {mt + ch * len(gts) / 2:.1f})">gamma_theta</text>')
    out.append("</svg>")
    _atomic_write(path, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    rng = np.random.default_rng(args.seed)
    gen = (tasks.gen_temporal_order if args.task == tasks.TEMPORAL_ORDER
           else tasks.gen_adding)
    batches = [gen(args.T, args.batch, rng) for _ in range(args.n)]
    tasks.dump_batches_csv(args.out, batches)
    print(f"wrote {args.n} {args.task} batches (T={args.T}, batch={args.batch}) "
          f"to {args.out}")
    return EXIT_OK


def _config_from_args(args) -> trainer.ExperimentConfig:
    cfg = (trainer.load_config(args.config) if args.config
           else trainer.ExperimentConfig())
    for fld in dataclasses.fields(trainer.ExperimentConfig):
        v = getattr(args, fld.name, None)
        if v is not None:
            setattr(cfg, fld.name, v)
    cfg.validate()
    return cfg


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    trainer.save_config(cfg, os.path.join(args.out, "config.snapshot"))
    result = trainer.train(cfg)
    log = result.log
    log.to_csv(os.path.join(args.out, "metrics.csv"))
    if log.diverged:
        print(f"diverged task={cfg.task} method={cfg.method} "
              f"at_iter={log.diverged_at} out={args.out}")
        return EXIT_DIVERGED
    final_loss = log.losses[-1] if log.losses else float("nan")
    print(f"ok task={cfg.task} method={cfg.method} iters={len(log.iters)} "
          f"final_loss={final_loss:.6g} "
          f"running_acc={log.running_accuracy():.4f} out={args.out}")
    return EXIT_OK


def _float_grid(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise trainer.ConfigError(f"bad grid {text!r}, want comma-separated numbers")


def _int_grid(text: str) -> list[int]:
    values = _float_grid(text)
    if not all(v.is_integer() for v in values):
        raise trainer.ConfigError(f"bad grid {text!r}, want comma-separated integers")
    return [int(v) for v in values]


def cmd_grid(args) -> int:
    base = _config_from_args(args)
    gts = _float_grid(args.gamma_theta_grid)
    rs = _float_grid(args.r_grid)
    if not gts or not rs:
        raise trainer.ConfigError("grids must be nonempty")
    horizon = args.iters if args.iters is not None else 400
    cells = trainer.grid_search(base, gts, rs, horizon=horizon, jobs=args.jobs)
    lines = ["gamma_theta,r,area,diverged"]
    for c in cells:
        flag = "true" if c.diverged else "false"
        lines.append(f"{c.gamma_theta:.17g},{c.r:.17g},{c.area:.17g},{flag}")
    _atomic_write(args.out_csv, "\n".join(lines) + "\n")
    write_heatmap_svg(args.out_svg, cells,
                      title=f"{base.task} {base.method} area({horizon} iters)")
    n_div = sum(c.diverged for c in cells)
    print(f"grid {len(cells)} cells ({n_div} diverged) -> {args.out_csv}, {args.out_svg}")
    return EXIT_OK


def cmd_check(args) -> int:
    names = list(diagnostics.SUITES) if args.suite == "all" else [args.suite]
    print("suite,check,passed,measured,bound")
    ok = True
    for name in names:
        for row in diagnostics.run_suite(name):
            ok &= row.passed
            word = "pass" if row.passed else "fail"
            print(f"{row.suite},{row.name},{word},{row.measured:.6g},{row.bound:.6g}")
    return EXIT_OK if ok else EXIT_USAGE


def bench_point(tau: int, p: int, batch: int, reps: int, seed: int = 0, model: str = "rnn"):
    """Median per-iteration wall time of forward + backward for bp and tp
    of one model at one (tau, p), after 3 warmups, plus inversions per
    call. The GRU's methods are named gru-bp and gru-tp."""
    rng = np.random.default_rng(seed)
    d, n_out = 4, 4
    x = rng.standard_normal((tau, d, batch))
    y = rng.integers(0, n_out, size=batch)
    hyper = targetprop.TpHyper(gamma_h=1e-2, gamma_theta=1e-1, r=1.0)
    if model == "gru":
        params = gru.init_gru_params(p, d, n_out, rnn.SOFTMAX_CE, seed)
        forward = gru.gru_forward
        backward = {"gru-bp": gru.gru_bptt,
                    "gru-tp": lambda *a: gru.gru_tp_backward(*a, hyper)}
    else:
        params = rnn.init_params(p, d, n_out, "tanh", rnn.SOFTMAX_CE, seed)
        forward = rnn.forward
        backward = {trainer.BP: rnn.bptt,
                    trainer.TP: lambda *a: targetprop.tp_direction(*a, hyper)}
    rows = []
    for method, back in backward.items():
        def step():
            back(params, forward(params, x), y)
        for _ in range(3):
            step()
        times = []
        before = linalg.factorization_count()
        for _ in range(reps):
            t0 = time.perf_counter()
            step()
            times.append((time.perf_counter() - t0) * 1000.0)
        inversions = (linalg.factorization_count() - before) // reps
        rows.append((tau, p, method, float(np.median(times)), inversions))
    return rows


def cmd_bench(args) -> int:
    taus = _int_grid(args.tau_grid)
    ps = _int_grid(args.p_grid)
    if not taus or not ps:
        raise trainer.ConfigError("grids must be nonempty")
    if min(taus + ps) < 1 or args.batch < 1 or args.reps < 1:
        raise trainer.ConfigError("tau, p, batch and reps must be positive")
    lines = ["tau,p,method,ms_per_iter,inversions"]
    for p in ps:
        for tau in taus:
            for row in bench_point(tau, p, args.batch, args.reps, args.seed, args.model):
                lines.append(f"{row[0]},{row[1]},{row[2]},{row[3]:.4f},{row[4]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    print(text, end="")
    return EXIT_OK


METRIC_COLUMNS = ("loss", "acc", "eval_acc")


def cmd_plot(args) -> int:
    series = []
    for path in args.inputs:
        log = trainer.MetricsLog.from_csv(path)
        label = os.path.splitext(os.path.basename(path))[0]
        if args.metric == "loss":
            series.append((label, log.iters, log.losses))
        elif args.metric == "acc":
            series.append((label, log.iters, log.accs))
        else:
            series.append((label, log.eval_iters, log.eval_accs))
    write_line_svg(args.out, series, xlabel="iter", ylabel=args.metric,
                   title=args.title)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _add_config_flags(p: _Parser) -> None:
    """Flags mirroring ExperimentConfig; None means `not given`, so a
    --config file and the defaults shine through."""
    p.add_argument("--config", help="key = value config file to start from")
    p.add_argument("--task", choices=trainer.TASKS)
    p.add_argument("--T", type=int, help="synthetic sequence length")
    p.add_argument("--k", type=int, help="pixels per step for the pixels task")
    p.add_argument("--permute", action=argparse.BooleanOptionalAction,
                   help="permute pixels before chunking")
    p.add_argument("--perm-seed", type=int, dest="perm_seed")
    p.add_argument("--data-dir", dest="data_dir",
                   help=f"IDX dataset directory (default ${trainer.DATA_DIR_ENV})")
    p.add_argument("--model", choices=("rnn", "gru"))
    p.add_argument("--hidden", type=int)
    p.add_argument("--activation")
    p.add_argument("--method", choices=trainer.METHODS)
    p.add_argument("--gamma", type=float, help="bp stepsize")
    p.add_argument("--gamma-h", type=float, dest="gamma_h", help="target stepsize")
    p.add_argument("--gamma-theta", type=float, dest="gamma_theta",
                   help="tp parameter stepsize")
    p.add_argument("--r", type=float, help="inversion ridge coefficient")
    p.add_argument("--epsilon", type=float, help="projection clip margin")
    p.add_argument("--momentum", type=float)
    p.add_argument("--tp-momentum", action=argparse.BooleanOptionalAction,
                   dest="tp_momentum")
    p.add_argument("--batch", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--eval-every", type=int, dest="eval_every")
    p.add_argument("--stop-at-acc", type=float, dest="stop_at_acc")
    p.add_argument("--seed", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="tprop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="serialize synthetic batches to CSV")
    p.add_argument("--task", choices=(tasks.TEMPORAL_ORDER, tasks.ADDING),
                   default=tasks.TEMPORAL_ORDER)
    p.add_argument("--T", type=int, default=60)
    p.add_argument("--batch", type=int, default=20)
    p.add_argument("--n", type=int, default=10, help="number of batches")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one training experiment")
    _add_config_flags(p)
    p.add_argument("--out", default="run", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", help="stepsize/regularization grid search")
    _add_config_flags(p)
    p.add_argument("--gamma-theta-grid", dest="gamma_theta_grid", required=True,
                   help="comma-separated gamma_theta values")
    p.add_argument("--r-grid", dest="r_grid", required=True,
                   help="comma-separated r values")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-csv", dest="out_csv", default="grid.csv")
    p.add_argument("--out-svg", dest="out_svg", default="grid.svg")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("check", help="run a named diagnostic suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(diagnostics.SUITES) + ["all"])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="per-iteration timing of bp vs tp")
    p.add_argument("--model", choices=("rnn", "gru"), default="rnn")
    p.add_argument("--tau-grid", dest="tau_grid", default="50,784")
    p.add_argument("--p-grid", dest="p_grid", default="100")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="", help="also write the CSV here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="render metrics CSVs as an SVG")
    p.add_argument("--in", dest="inputs", nargs="+", required=True,
                   metavar="METRICS_CSV")
    p.add_argument("--metric", choices=METRIC_COLUMNS, default="loss")
    p.add_argument("--title", default="")
    p.add_argument("--out", default="plot.svg")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (trainer.ConfigError, trainer.ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
