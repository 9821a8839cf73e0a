"""The benchmark times layers by wrapping sigmine functions from outside, at
the names their callers look them up under (bench/layers.py).  A renamed
function or a dropped re-export would silently stop a per-layer metric."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_wrapped_names_resolve():
    sys.path.insert(0, str(BENCH))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))
    for owner, attr, name, _ in layers.WRAPPED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
