"""Per-layer metrics from a traced run's spans.

Layer names follow tprop's modules. Self time is a span's duration minus
what its traced children cover, so ``targetprop.backward_ms.*`` excludes
``linalg.ridge_pinv`` and the activation calls, and ``trainer.self_ms`` is
the part of an iteration no traced call covers (update step, loss,
accuracy, bookkeeping).
"""

from __future__ import annotations

import dataclasses

from tracing import IterationProfile, SpanIndex, median, profile_train
from workloads import Metric, Outcome, timing

MS, US = 1e3, 1e6


def _profile(index: SpanIndex, label: str) -> IterationProfile:
    """Iteration profiles of every traced train run with this label, joined."""
    spans = index.named("trainer.train", label)
    if not spans:
        raise RuntimeError(f"no traced train run {label!r}")
    profs = [profile_train(index, s) for s in spans]
    return IterationProfile(**{f.name: [x for p in profs for x in getattr(p, f.name)]
                               for f in dataclasses.fields(IterationProfile)})


def _eval_forward(index: SpanIndex, name: str) -> list[float]:
    return [s.dur for s in index.named(name)
            if s.parent in index.by_id and index.by_id[s.parent].name == "trainer.evaluate"]


def layer_metrics(index: SpanIndex, res: Outcome, tau: int,
                  untraced_tp_ms: list[float]) -> dict[str, Metric]:
    """The per-layer metrics every workload reports (BENCHMARK.json's
    ``per_layer``), from its in-process tp and bp training runs."""
    tp, bp = _profile(index, "tp"), _profile(index, "bp")
    n = len(tp.wall)
    m = {
        "linalg.ridge_pinv_ms": timing(
            [s.dur for s in index.named("linalg.ridge_pinv", "tp")], "ms", MS),
        "linalg.factorizations_per_backward": Metric(sum(tp.ridge_calls) / n, "count", n),
        "linalg.share": Metric(sum(tp.ridge) / sum(tp.wall), "fraction", n),
        "activations.self_ms": timing(tp.act_self, "ms", MS),
        "activations.calls_per_iter": timing(tp.act_calls, "count"),
        "rnn.forward_ms": timing(tp.forward + bp.forward, "ms", MS),
        "rnn.forward_us_per_step": timing(tp.forward + bp.forward, "us", US / tau),
        "rnn.eval_forward_us_per_step": timing(_eval_forward(index, "rnn.forward"), "us",
                                               US / tau),
        "rnn.bptt_ms": timing([s.dur for s in index.named("rnn.bptt", "bp")], "ms", MS),
        "rnn.bptt_us_per_step": timing([s.dur for s in index.named("rnn.bptt", "bp")],
                                       "us", US / tau),
        "targetprop.backward_ms.tp": timing(tp.direction_self, "ms", MS),
        "targetprop.step_us.tp": timing(tp.direction_self, "us", US / tau),
        "tasks.batch_ms": timing(tp.batch + bp.batch, "ms", MS),
        "trainer.self_ms": timing(tp.trainer_self + bp.trainer_self, "ms", MS),
    }
    # same config and seed, so the first k iterations did identical work
    k = min(len(untraced_tp_ms), len(res.wall_ms["tp"]))
    overhead = median(res.wall_ms["tp"][:k]) - median(untraced_tp_ms[:k])
    m["trace.overhead_ms"] = Metric(overhead, "ms", k)
    return m


def pixel_extras(index: SpanIndex, tau: int, untraced_tp_ms: list[float]) -> dict[str, Metric]:
    """Layers only pixel784 exercises: the other tp variants, the GRU,
    IDX loading, and the span accounting of one rnn-tp iteration."""
    m = {}
    for variant in ("tp-dtp", "tp-exact"):
        prof = _profile(index, variant)
        m[f"targetprop.backward_ms.{variant}"] = timing(prof.direction_self, "ms", MS)
        m[f"targetprop.step_us.{variant}"] = timing(prof.direction_self, "us", US / tau)
    gbp, gtp = _profile(index, "gru-bp"), _profile(index, "gru-tp")
    m["gru.forward_ms"] = timing(gbp.forward + gtp.forward, "ms", MS)
    m["gru.eval_forward_us_per_step"] = timing(_eval_forward(index, "gru.gru_forward"), "us",
                                               US / tau)
    m["gru.bptt_ms"] = timing([s.dur for s in index.named("gru.gru_bptt", "gru-bp")], "ms", MS)
    m["gru.tp_backward_ms"] = timing(gtp.direction_self, "ms", MS)
    m["linalg.factorizations_per_backward.gru-tp"] = Metric(
        sum(gtp.ridge_calls) / len(gtp.wall), "count", len(gtp.wall))
    loads = [sum(c.dur for c in index.children[t.sid] if c.name == "tasks.load_idx")
             for t in index.named("trainer.train")]
    m["tasks.load_idx_s"] = timing(loads, "s")
    # Do the self times of an rnn-tp iteration's spans add up to its wall
    # time, and how far is that from the untraced wall? Means, since means
    # add up where medians of skewed samples do not.
    tp = _profile(index, "tp")
    parts = (tp.batch, tp.forward, tp.direction_self, tp.ridge, tp.act_self, tp.trainer_self)
    n = len(tp.wall)
    m["accounting.tp.self_sum_ms"] = Metric(sum(sum(p) for p in parts) / n * MS, "ms", n)
    m["accounting.tp.traced_wall_ms"] = Metric(sum(tp.wall) / n * MS, "ms", n)
    m["accounting.tp.untraced_wall_ms"] = Metric(
        sum(untraced_tp_ms) / len(untraced_tp_ms), "ms", len(untraced_tp_ms))
    return m


def grid_extras(index: SpanIndex) -> dict[str, Metric]:
    grids = index.named("trainer.grid_search")
    serial = next(g for g in grids if g.run == "grid-serial")
    parallel = median(g.dur for g in grids if g.run != "grid-serial")
    cells = [c.dur for c in index.children[serial.sid] if c.name == "trainer.train"]
    return {
        "trainer.grid_cell_s": timing(cells, "s"),
        "trainer.grid_speedup": Metric(serial.dur / parallel, "ratio", len(grids) - 1),
    }
