"""Shared fixtures: small scenarios for unit tests, cached runs for reuse."""

from __future__ import annotations

import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mixnum.scenario import (default_scenario_dict, derive_dims,
                             scenario_from_dict)
from mixnum import ofdm, wola

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_spec(**overrides):
    """Validated scenario from the built-in two-numerology carrier."""
    raw = default_scenario_dict()
    raw.update(overrides)
    return scenario_from_dict(raw)


def tiny_spec(**overrides):
    """Short-duration variant that keeps unit tests fast."""
    defaults = {"duration_symbols_base": 8, "max_iterations": 5}
    defaults.update(overrides)
    return make_spec(**defaults)


# A carrier of three numerologies, 15/30/60 kHz side by side, so that
# sums over the BWPs have more than two terms.
THREE_BWPS = [
    {"scs_hz": 15000.0, "num_prbs": 24, "modulation": "QPSK",
     "center_offset_hz": -6e6},
    {"scs_hz": 30000.0, "num_prbs": 12, "modulation": "16QAM",
     "center_offset_hz": 0.0},
    {"scs_hz": 60000.0, "num_prbs": 6, "modulation": "64QAM",
     "center_offset_hz": 6e6},
]


def make_grids(spec, dims):
    """The payload grids ``cli.execute`` hands a runner for ``spec``."""
    return [ofdm.generate_grid(dims, m, spec.seed) for m in range(dims.num_bwps)]


def batch_assemble(bodies, p):
    """Whole-batch overlap-add of a (S, L) body batch, the bit-exact reference.

    Every window's first ``stride`` samples are added into their own row of
    a zero buffer and the ``l_ext`` after them into the head of the next.
    """
    windowed = wola.wola_symbol(bodies, p)
    n_sym = bodies.shape[0]
    buf = np.zeros((n_sym + 1) * p.stride, dtype=np.complex128)
    rows = buf.reshape(n_sym + 1, p.stride)
    rows[:-1] += windowed[:, :p.stride]
    rows[1:, :p.l_ext] += windowed[:, p.stride:]
    return buf[p.l_ext // 2: n_sym * p.stride + p.l_ext]


def clip_polar(x: np.ndarray, threshold_amp) -> np.ndarray:
    """Magnitude-limit samples to ``threshold_amp`` preserving their phase,
    as a fresh array: the out-of-place reference for
    ``icef.clip_in_place``.

    The ceiling may be a scalar or anything broadcastable against ``x``;
    samples at or below it are multiplied by exactly 1.
    """
    scale = np.minimum(1.0, np.asarray(threshold_amp)
                       / np.maximum(np.abs(x), 1e-300))
    return x * scale


def rng(tag) -> np.random.Generator:
    """Deterministic generator keyed by an int or a short string label."""
    if isinstance(tag, str):
        tag = zlib.crc32(tag.encode("utf-8"))
    return np.random.Generator(
        np.random.Philox(key=np.array([2024, tag], dtype=np.uint64)))


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes tracemalloc saw during it."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def full_ccdf(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every threshold (dB) and exceedance probability of the survival
    curve, built at full length: the oracle for the rank accessors."""
    thresholds_db = np.sort(ratios)
    n = thresholds_db.size
    np.maximum(thresholds_db, 1e-300, out=thresholds_db)
    np.log10(thresholds_db, out=thresholds_db)
    thresholds_db *= 10.0
    probabilities = np.arange(n - 1.0, -1.0, -1.0)
    probabilities /= n
    return thresholds_db, probabilities


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so chunks on a pool interleave."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@pytest.fixture(scope="session")
def desk_dims():
    """Derived geometry of the full-duration built-in scenario."""
    return derive_dims(make_spec(method="FC_ICEF"))


@pytest.fixture(scope="session")
def tiny_dims():
    return derive_dims(tiny_spec(method="FC_ICEF"))


@pytest.fixture(scope="session")
def tiny_grids(tiny_dims):
    return make_grids(tiny_spec(method="FC_ICEF"), tiny_dims)
