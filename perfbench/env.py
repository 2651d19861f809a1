"""Environment stamp and the seeded synthetic IDX dataset.

The stamp records what decides the speed of a run on this machine: the
interpreter and library versions, the BLAS builds numpy and scipy were
linked against (they each ship their own OpenBLAS), the BLAS thread
variables exactly as found (the benchmark never sets them), cores, CPU
model and the source revision.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import struct
from pathlib import Path

import numpy as np

from tprop import tasks

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _show_config(module):
    try:
        return module.show_config(mode="dicts")
    except TypeError:  # older releases only print
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            module.show_config()
        return buf.getvalue()


def _mapped_blas() -> list[str]:
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int | None:
    """Size of the largest CPU cache level reported for cpu0, in bytes."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for idx in sorted(base.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        nbytes = int(size.rstrip("KMG")) * mult
        if best is None or level >= best[0]:
            best = (level, nbytes)
    return None if best is None else best[1]


def source_revision(root: Path) -> dict:
    """Git revision when the checkout has one, and a hash of src/ always
    (benchmark checkouts are plain file trees)."""
    rev = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            rev = ref
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return {"git_rev": rev, "src_sha256": h.hexdigest()}


def stamp(root: Path, seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_config": _show_config(np),
        "scipy_config": _show_config(scipy),
        "blas_libraries_mapped": _mapped_blas(),
        "blas_thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc_bytes(),
        **source_revision(root),
        "seed": seed,
    }


def write_synthetic_idx(directory: Path, seed: int, n_train: int, n_test: int) -> int:
    """Write train and t10k IDX pairs of 28x28 uint8 digits-like images.

    Each class has a smooth random prototype; an image is its class
    prototype plus pixel noise, so the labels are learnable. Returns the
    bytes written.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:28, 0:28]
    protos = []
    for _ in range(10):
        cy, cx = rng.uniform(6, 22, size=2)
        sy, sx = rng.uniform(3, 8, size=2)
        protos.append(np.exp(-((yy - cy) / sy) ** 2 - ((xx - cx) / sx) ** 2))
    protos = np.stack(protos) * 200.0
    directory.mkdir(parents=True, exist_ok=True)
    total = 0
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        noise = rng.normal(0.0, 30.0, size=(n, 28, 28))
        images = np.clip(protos[labels] + noise, 0, 255).astype(np.uint8)
        img_path = directory / f"{prefix}-images-idx3-ubyte"
        lab_path = directory / f"{prefix}-labels-idx1-ubyte"
        img_path.write_bytes(struct.pack(">iiii", tasks.IMAGES_MAGIC, n, 28, 28)
                             + images.tobytes())
        lab_path.write_bytes(struct.pack(">ii", tasks.LABELS_MAGIC, n) + labels.tobytes())
        total += img_path.stat().st_size + lab_path.stat().st_size
    return total
