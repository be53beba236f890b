"""The benchmark's traced run keeps working against the package.

``bench/layers.py`` re-drives ``mixnum run`` call by call (runners,
``metrics.*``, the CLI's writers), but the benchmark runs it only under
``--trace 1``.  This drives it at a tiny size for every method and holds
its artifacts to the CLI's, byte for byte.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mixnum import cli
from mixnum.scenario import METHODS

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
SETS = ["duration_symbols_base=8"]
ARTIFACTS = ("ccdf.csv", "psd.csv", "report.json", "waveform.c128")


@pytest.fixture(scope="module")
def layers():
    # Loaded from its file without writing bytecode next to it.
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    old, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = old
    yield module
    del sys.modules[spec.name]


def test_traced_run_matches_the_cli(layers, tmp_path):
    tracer = layers.Tracer()
    runs = []
    for method in METHODS:
        sets = [f"method={method}", *SETS]
        traced = tmp_path / f"traced-{method}"
        runs.append(layers.traced_run(tracer, method, traced, sets, threads=2))
        plain = tmp_path / f"cli-{method}"
        assert cli.main(["run", "--out", str(plain), "--dump-waveform",
                         "--threads", "2",
                         *[a for s in sets for a in ("--set", s)]]) == 0
        for name in ARTIFACTS:
            assert ((traced / name).read_bytes()
                    == (plain / name).read_bytes()), (method, name)
    per_layer = layers.pass_metrics(runs)
    assert set(per_layer) == set(layers.PER_LAYER_UNITS)
    assert all(np.isfinite(v) for v in per_layer.values())
