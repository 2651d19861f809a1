"""Set-up probe: one fresh interpreter doing what a user's script does.

It imports tprop, builds the workload's first training run exactly as the
timed run does and starts it, printing ``first-batch <perf_counter>`` when
that run asks for its first batch; the parent subtracts its own clock
reading taken just before it started this process (both read
CLOCK_MONOTONIC on Linux).

    python3 perfbench/setup_probe.py <workload> <seed> [idx_dir]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tprop import tasks, trainer  # noqa: E402

import configs  # noqa: E402


def _announce(fn):
    def first_batch(*args, **kwargs):
        print(f"first-batch {time.perf_counter():.9f}", flush=True)
        return fn(*args, **kwargs)
    return first_batch


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    tasks.gen_temporal_order = _announce(tasks.gen_temporal_order)
    tasks.image_batch = _announce(tasks.image_batch)
    if workload == "order20-converge":
        cfg = configs.order20("tp", seed)
    elif workload == "pixel784":
        cfg = configs.pixel("rnn", "tp", seed, argv[2])
    elif workload == "grid-t60":    # its in-process rounds come before the grids
        cfg = configs.grid_chunk("tp", seed)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    cfg.iters = 1
    trainer.train(cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
