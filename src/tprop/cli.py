"""Command line front end.

Subcommands: train (one run with metrics and a reproducible config
snapshot), grid (stepsize/regularization sweep into a CSV and an SVG
heatmap), check (named diagnostic suites as a pass/fail CSV table), bench
(per-iteration timing of every training method of the RNN or the GRU),
plot (metrics CSVs into a self-contained SVG).

This module is argument plumbing and output writers only: settings, tasks,
cells and their passes come from trainer. A run setting is declared once,
as an ExperimentConfig field, and is the same flag (``--gamma-h`` for
``gamma_h``) with the same help line and checks in every command that
takes it: train and grid take all of them, bench model, batch and seed. In
train and grid, flags override a --config file, which overrides the
defaults (grid's base runs 400 iterations).

Exit codes: 0 success, 1 usage or config error or a failed check, 2
training diverged. Plots are hand-written SVG, so runs have no plotting
dependency and the artifacts diff cleanly.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import types
from html import escape

import numpy as np

from . import diagnostics, linalg, rnn, targetprop, trainer

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


# ---------------------------------------------------------------------------
# SVG writers


def _write_svg(path, W: int, H: int, title: str, title_y: int, body: list[str]) -> None:
    """Write a W x H SVG: white background, the escaped title centred at
    ``title_y``, then the ``body`` elements."""
    trainer.write_text_atomic(path, "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="monospace" font-size="11">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="{title_y}" text-anchor="middle" '
        f'font-size="13">{escape(title, quote=False)}</text>',
        *body,
        "</svg>",
    ]) + "\n")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not np.isfinite(lo) or not np.isfinite(hi) or lo == hi:
        return [lo]
    return list(np.linspace(lo, hi, n))


def write_line_svg(path, series, xlabel="iter", ylabel="loss", title=""):
    """Overlaid polylines with axes, ticks and a legend.

    ``series`` is a list of (label, xs, ys). Axis ranges are the exact data
    extrema; with no data at all the axes span [0, 1]. Text is XML-escaped.
    """
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
               f'text-anchor="middle">{escape(xlabel, quote=False)}</text>')
    out.append(f'<text x="14" y="{(mt + H - mb) / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 14 {(mt + H - mb) / 2:.1f})">'
               f'{escape(ylabel, quote=False)}</text>')
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
        out.append(f'<text x="{W - mr - 120}" y="{ly + 4}">{escape(label, quote=False)}</text>')
    _write_svg(path, W, H, title, 16, out)


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
    out = []
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
    _write_svg(path, W, H, title, 20, out)


# ---------------------------------------------------------------------------
# subcommands


def _config_from_args(args, base: trainer.ExperimentConfig | None = None):
    """The validated run settings: ``base`` (the defaults when None), then
    the --config file if the command takes one, then the flags given."""
    cfg = base or trainer.ExperimentConfig()
    if getattr(args, "config", None):
        cfg = trainer.load_config(args.config, cfg)
    given = {fld.name: getattr(args, fld.name)
             for fld in dataclasses.fields(cfg) if getattr(args, fld.name, None) is not None}
    cfg = dataclasses.replace(cfg, **given)
    cfg.validate()
    return cfg


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    trainer.save_config(cfg, os.path.join(args.out, "config.snapshot"))
    log = trainer.train(cfg).log
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
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise trainer.ConfigError(f"bad grid {text!r}, want comma-separated numbers")
    return values


def _int_grid(text: str) -> list[int]:
    values = _float_grid(text)
    if not all(v.is_integer() for v in values):
        raise trainer.ConfigError(f"bad grid {text!r}, want comma-separated integers")
    return [int(v) for v in values]


def cmd_grid(args) -> int:
    base = _config_from_args(args, trainer.ExperimentConfig(iters=trainer.GRID_HORIZON))
    gts = _float_grid(args.gamma_theta_grid)
    rs = _float_grid(args.r_grid)
    cells = trainer.grid_search(base, gts, rs, horizon=base.iters, jobs=args.jobs)
    lines = ["gamma_theta,r,area,diverged"]
    for c in cells:
        flag = "true" if c.diverged else "false"
        lines.append(f"{c.gamma_theta:.17g},{c.r:.17g},{c.area:.17g},{flag}")
    trainer.write_text_atomic(args.out_csv, "\n".join(lines) + "\n")
    write_heatmap_svg(args.out_svg, cells,
                      title=f"{base.task} {base.method} area({base.iters} iters)")
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


# the input and output shape of a bench point: 4 features, 4 classes
_BENCH_TASK = types.SimpleNamespace(d=4, n_out=4, output_kind=rnn.SOFTMAX_CE)


def bench_point(tau: int, p: int, batch: int, reps: int, seed: int = 0, model: str = "rnn"):
    """Median per-iteration wall time of forward + backward for every
    method of one model at one (tau, p), plus inversions per call: bp, tp,
    tp-dtp and tp-exact for the RNN, gru-bp and gru-tp for the GRU. Every
    round times each method in that order, so a slow spell of the host
    lands on all of them; 3 warm-up rounds go untimed."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((tau, _BENCH_TASK.d, batch))
    y = rng.integers(0, _BENCH_TASK.n_out, size=batch)
    hyper = targetprop.TpHyper(gamma_h=1e-2, gamma_theta=1e-1, r=1.0)
    params = trainer.init_model(trainer.ExperimentConfig(model=model, hidden=p),
                                _BENCH_TASK, seed)
    forward, bptt, tp_backward = trainer.cell_passes(params)

    def backward_of(method):
        if method == trainer.BP:
            return bptt
        tp_hyper = dataclasses.replace(hyper, variant=trainer._VARIANT_OF[method])
        return lambda *a: tp_backward(*a, tp_hyper)

    prefix = "" if model == "rnn" else f"{model}-"
    methods = trainer.METHODS if model == "rnn" else trainer._GRU_METHODS
    backward = {prefix + method: backward_of(method) for method in methods}
    times = {method: [] for method in backward}
    inversions = dict.fromkeys(backward, 0)
    for rnd in range(-3, reps):
        for method, back in backward.items():
            before = linalg.factorization_count()
            t0 = time.perf_counter()
            back(params, forward(params, x), y)
            ms = (time.perf_counter() - t0) * 1000.0
            if rnd >= 0:
                times[method].append(ms)
                inversions[method] += linalg.factorization_count() - before
    return [(tau, p, method, float(np.median(times[method])), inversions[method] // reps)
            for method in backward]


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    taus = _int_grid(args.tau_grid)
    ps = _int_grid(args.p_grid)
    if min(taus + ps) < 1 or args.reps < 1:
        raise trainer.ConfigError("tau, p and reps must be positive")
    lines = ["tau,p,method,ms_per_iter,inversions"]
    for p in ps:
        for tau in taus:
            for row in bench_point(tau, p, cfg.batch, args.reps, cfg.seed, cfg.model):
                lines.append(f"{row[0]},{row[1]},{row[2]},{row[3]:.4f},{row[4]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        trainer.write_text_atomic(args.out, text)
    print(text, end="")
    return EXIT_OK


METRIC_COLUMNS = ("loss", "acc", "eval_acc")


def cmd_plot(args) -> int:
    series = []
    for path in args.inputs:
        log = trainer.MetricsLog.from_csv(path)
        label = os.path.splitext(os.path.basename(path))[0]
        columns = {"loss": (log.iters, log.losses), "acc": (log.iters, log.accs),
                   "eval_acc": (log.eval_iters, log.eval_accs)}
        series.append((label, *columns[args.metric]))
    write_line_svg(args.out, series, xlabel="iter", ylabel=args.metric,
                   title=args.title)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _add_config_flags(p: _Parser, names: tuple[str, ...] | None = None) -> None:
    """One flag per ExperimentConfig field in ``names`` (every field, plus
    --config, when None), named ``--`` plus the field name with ``_`` as
    ``-``, with the field's help line and choices. Each defaults to None,
    `not given`, so a --config file and the field defaults shine through."""
    if names is None:
        p.add_argument("--config", help="key = value config file to start from")
    for fld in dataclasses.fields(trainer.ExperimentConfig):
        if names is not None and fld.name not in names:
            continue
        if fld.type == "bool":
            kw = dict(action=argparse.BooleanOptionalAction)
        else:
            kw = dict(type=trainer.PARSERS[fld.type], choices=fld.metadata["choices"])
        p.add_argument("--" + fld.name.replace("_", "-"), help=fld.metadata["help"], **kw)


def build_parser() -> _Parser:
    parser = _Parser(prog="tprop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--jobs", type=int, default=1,
                   help="processes that train cells, this one included; at most one per cell")
    p.add_argument("--out-csv", dest="out_csv", default="grid.csv")
    p.add_argument("--out-svg", dest="out_svg", default="grid.svg")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("check", help="run a named diagnostic suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(diagnostics.SUITES) + ["all"])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="per-iteration timing of every training method")
    _add_config_flags(p, ("model", "batch", "seed"))
    p.add_argument("--tau-grid", dest="tau_grid", default="50,784")
    p.add_argument("--p-grid", dest="p_grid", default="100")
    p.add_argument("--reps", type=int, default=5)
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
