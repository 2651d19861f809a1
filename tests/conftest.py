import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import tprop

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs a second time; the
    first, untraced run loads what is imported lazily (numpy.random), so
    one-time import allocations are not counted. Arrays made before the
    traced run are not counted either."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture
def env_with_src():
    """The environment with this checkout's src directory on PYTHONPATH, for
    child interpreters."""
    src = str(Path(tprop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def write_idx_pair(images_path, labels_path, images, labels):
    """Write (N, H, W) images and (N,) labels as an IDX pair: a big-endian
    header (magic 0x803 or 0x801, then the sizes) before the uint8 payload.
    Test modules import it from here."""
    n, h, w = images.shape
    Path(images_path).write_bytes(struct.pack(">iiii", 0x803, n, h, w)
                                  + np.asarray(images, np.uint8).tobytes())
    Path(labels_path).write_bytes(struct.pack(">ii", 0x801, len(labels))
                                  + np.asarray(labels, np.uint8).tobytes())
