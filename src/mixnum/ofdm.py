"""CP-OFDM primitives: transforms, QAM mapping, grids, modulation.

Conventions used throughout the package:

* the forward DFT is unnormalized and the inverse carries the 1/L factor
  (numpy convention), so ``dft(idft(x)) == x``;
* frequency-domain vectors are in natural DFT order, DC at bin 0; signed
  subcarrier indexes are folded with ``k mod L``;
* one OFDM symbol is one contiguous row: grids are C-ordered
  (num_symbols, K) arrays and transform inputs and bodies C-ordered
  (num_symbols, L) arrays, so every transform runs along the last axis
  and a set of symbols is a set of rows;
* work on many rows or samples is cut into fixed chunks that
  ``chunk_map`` runs on the ``--threads`` pool; the chunks never depend
  on the thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
import json

import numpy as np

from .scenario import BwpDims, DerivedDims


@dataclass
class ComplexSignal:
    """A complex baseband sample stream tagged with its sampling rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __len__(self) -> int:
        return int(self.samples.size)


@dataclass
class ResourceGrid:
    """Frequency-domain payload of one BWP.

    ``values`` is a C-ordered (num_symbols, num_subcarriers) array: one row
    per OFDM symbol, its active subcarriers in ascending index order.
    """

    bwp_index: int
    values: np.ndarray

    @property
    def num_symbols(self) -> int:
        return int(self.values.shape[0])


@contextmanager
def chunk_map(threads: int):
    """Yield ``pmap(fn, chunks)``: the list of ``fn(chunk)`` in chunk order.

    With ``threads > 1`` the calls run on that many worker threads (numpy's
    transforms and element-wise kernels release the interpreter lock);
    otherwise they run in the calling thread.  The caller fixes the chunks,
    so their content, and with it every result, is the same for any
    thread count.
    """
    if threads <= 1:
        yield lambda fn, chunks: [fn(c) for c in chunks]
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield lambda fn, chunks: list(pool.map(fn, chunks))


# The full-length stages (WOLA and filter-bank synthesis, the clip loops,
# demodulation, Welch's segments) work in chunks of about this many
# samples.  Their arithmetic is per row or per sample, so the chunk size
# changes no result while every chunk of samples holds at least 2: numpy
# multiplies a 1-sample complex slice (WOLA's carrier) on another code
# path, whose last bits differ in about 40 % of products.
_STAGE_CHUNK_SAMPLES = 1 << 18


def stage_chunks(n: int, row_len: int = 1) -> list[slice]:
    """Fixed slices of ``n`` rows of ``row_len`` samples, one per chunk."""
    size = max(1, _STAGE_CHUNK_SAMPLES // max(row_len, 1))
    return [slice(a, min(a + size, n)) for a in range(0, n, size)]


def dft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized forward DFT."""
    return np.fft.fft(x, axis=axis)


def idft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse DFT carrying the 1/L normalization."""
    return np.fft.ifft(x, axis=axis)


# Gray-coded square QAM with unit mean power, bits grouped I/Q-alternating.
_QAM_BITS = {"QPSK": 2, "16QAM": 4, "64QAM": 6, "256QAM": 8}
_QAM_NORM = {"QPSK": 2.0, "16QAM": 10.0, "64QAM": 42.0, "256QAM": 170.0}
# Transmitter EVM limits (RMS error over RMS reference), 3GPP TS 38.104
# Table 6.5.2.2-1.
_EVM_LIMIT = {"QPSK": 0.175, "16QAM": 0.125, "64QAM": 0.08, "256QAM": 0.035}


def bits_per_symbol(modulation: str) -> int:
    return _QAM_BITS[modulation]


def evm_limit(modulation: str) -> float:
    """Largest RMS error-vector magnitude the modulation may carry."""
    return _EVM_LIMIT[modulation]


def _gray_axis(bits: np.ndarray) -> np.ndarray:
    """Map per-axis bit columns to odd integer amplitudes, Gray-coded.

    ``bits`` has shape (n, m) with the axis' bits MSB first; the resulting
    levels follow the nested Gray construction where each extra bit selects
    the inner/outer half of the constellation axis.
    """
    m = bits.shape[1]
    amp = np.ones(bits.shape[0])
    for j in range(m - 1, 0, -1):
        amp = (2 ** (m - j)) - (1 - 2 * bits[:, j]) * amp
    return (1 - 2 * bits[:, 0]) * amp


def qam_map(bits: np.ndarray, modulation: str) -> np.ndarray:
    """Map 0/1 bits (whole symbols) onto unit-power Gray-coded square QAM."""
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, bits_per_symbol(modulation))
    i_axis = _gray_axis(groups[:, 0::2])
    q_axis = _gray_axis(groups[:, 1::2])
    return (i_axis + 1j * q_axis) / np.sqrt(_QAM_NORM[modulation])


def generate_grid(dims: DerivedDims, bwp_index: int, seed: int) -> ResourceGrid:
    """Draw a reproducible random payload grid for one BWP.

    Payload bits come from a counter-based generator keyed by
    (seed, bwp, symbol), so any symbol's data is identical no matter in
    which order or batch the grid is produced.  ``seed`` must fit in 64
    bits (the scenario checks it).
    """
    bd = dims.bwps[bwp_index]
    k = bd.num_subcarriers
    bits = np.empty((bd.num_symbols, k * bits_per_symbol(bd.modulation)),
                    dtype=np.int64)
    for s in range(bd.num_symbols):
        key = np.array([seed, ((bwp_index & 0xFFFFFFFF) << 32) | (s & 0xFFFFFFFF)],
                       dtype=np.uint64)
        bits[s] = np.random.Generator(np.random.Philox(key=key)).integers(
            0, 2, size=bits.shape[1])
    values = qam_map(bits, bd.modulation).reshape(bd.num_symbols, k)
    return ResourceGrid(bwp_index=bwp_index, values=values)


def _transform_dims(bd: BwpDims, oversampled: bool) -> tuple[int, int]:
    if oversampled:
        return bd.l_ofdm_os, bd.l_cp_os
    return bd.l_ofdm, bd.l_cp


def bin_runs(first: int, count: int, n: int) -> list[tuple[slice, slice]]:
    """Contiguous runs of the bins ``(first + k) mod n``, ``k`` in [0, count).

    Returns (positions, bins) slice pairs: positions ``k`` of one run land
    on one contiguous slice of the n bins.  A run that crosses bin n - 1
    (an allocation around DC) wraps to bin 0, so there are at most two.
    ``count`` is at most ``n``.
    """
    first %= n
    head = min(count, n - first)
    runs = [(slice(0, head), slice(first, first + head))]
    if head < count:
        runs.append((slice(head, count), slice(0, count - head)))
    return runs


def subband_carrier(bd: BwpDims, l: int, start: int, length: int, *,
                    conjugate: bool = False) -> np.ndarray:
    """Continuous upconversion carrier for a BWP, sampled at absolute index.

    ``exp(2j*pi*center*(start+n)/l)`` for ``n`` in ``[0, length)``, where
    ``center`` is the snapped center in the BWP's own subcarrier units and
    ``l`` the matching transform size.  The carrier runs continuously over
    the whole stream — it does not reset at symbol boundaries — which is
    what a mixing upconverter (or the filter bank's bin mapping with its
    per-block phase rotation) produces.
    """
    sign = -1.0 if conjugate else 1.0
    n = start + np.arange(length)
    return np.exp(sign * 2j * np.pi * bd.center_scs * n / l)


def grid_to_spectrum(grid: ResourceGrid, dims: DerivedDims, *,
                     oversampled: bool = True,
                     symbols: slice = slice(None)) -> np.ndarray:
    """Zero-padded length-L transform input per symbol, shape (S, L).

    The allocation is centered on DC (``active_base``), and only the grid
    rows in ``symbols`` are taken, one C-ordered row each, ready for a
    last-axis transform.
    """
    bd = dims.bwps[grid.bwp_index]
    l, _ = _transform_dims(bd, oversampled)
    values = grid.values[symbols]
    x_f = np.zeros((values.shape[0], l), dtype=np.complex128)
    for cols, bins in bin_runs(int(bd.active_base[0]), bd.num_subcarriers, l):
        x_f[:, bins] = values[:, cols]
    return x_f


def ofdm_modulate(grid: ResourceGrid, dims: DerivedDims, *,
                  oversampled: bool = True,
                  at_baseband: bool = False) -> ComplexSignal:
    """Synthesize the CP-OFDM sample stream of one BWP.

    The symbol bodies are synthesized around DC and the last ``l_cp`` body
    samples are prepended as the cyclic prefix (every symbol uses the same
    CP length).  Unless ``at_baseband`` is requested, the assembled stream
    is then upconverted to the BWP's in-carrier position by one carrier
    that runs continuously across symbol boundaries.
    """
    bd = dims.bwps[grid.bwp_index]
    l, l_cp = _transform_dims(bd, oversampled)
    body = idft(grid_to_spectrum(grid, dims, oversampled=oversampled))
    flat = np.concatenate([body[:, l - l_cp:], body], axis=1).reshape(-1)
    if not at_baseband:
        # The carrier is the left operand: complex multiply may fuse one
        # of its products into an FMA, so the operand order fixes the last
        # bit.  Callers that cache the carrier multiply the same way.
        flat = subband_carrier(bd, l, 0, flat.size) * flat
    rate = dims.fs_oversampled_hz if oversampled else dims.fs_nominal_hz
    return ComplexSignal(samples=flat, sample_rate_hz=rate)


def ofdm_demodulate(signal: ComplexSignal, dims: DerivedDims, bwp_index: int,
                    timing_offset: int = 0, *,
                    threads: int = 1) -> ResourceGrid:
    """Recover a BWP's grid from an oversampled composite stream.

    Per symbol, an L-sample window is taken at
    ``symbol_start + l_cp + timing_offset``, downconverted by the BWP's
    continuous carrier and transformed; the known phase ramp caused by a
    window start inside the CP is compensated, so any ``timing_offset`` in
    [-l_cp, 0] recovers an ISI-free symbol exactly.  The signal covers at
    least the BWP's symbols.  Symbols are demodulated in fixed chunks of
    rows on ``threads`` worker threads; each row's arithmetic is the same
    in any chunk.
    """
    bd = dims.bwps[bwp_index]
    l, l_cp = bd.l_ofdm_os, bd.l_cp_os
    stride = l + l_cp
    n_sym = bd.num_symbols
    start = l_cp + timing_offset
    frames = signal.samples[: n_sym * stride].reshape(n_sym, stride)
    idx = bd.active_base
    runs = bin_runs(int(idx[0]), idx.size, l)
    # The conjugate carrier over window s factors into a per-sample ramp
    # (shared by all windows) times a per-window scalar at its start.
    ramp = subband_carrier(bd, l, 0, l, conjugate=True)
    starts = start + stride * np.arange(n_sym)
    phase = np.exp(-2j * np.pi * bd.center_scs * starts / l)
    rows = np.empty((n_sym, idx.size), dtype=np.complex128)

    def demodulate(sl: slice) -> None:
        windows = frames[sl, start: start + l] * ramp[None, :] * phase[sl, None]
        spectra = dft(windows)
        for cols, bins in runs:
            rows[sl, cols] = spectra[:, bins]

    with chunk_map(threads) as pmap:
        pmap(demodulate, stage_chunks(n_sym, l))
    if timing_offset:
        rows *= np.exp(-2j * np.pi * idx * timing_offset / l)
    return ResourceGrid(bwp_index=bwp_index, values=rows)


def write_waveform(signal: ComplexSignal, path: str) -> None:
    """Dump samples as interleaved little-endian float64 I/Q plus a sidecar."""
    np.asarray(signal.samples, dtype="<c16").tofile(path)
    sidecar = {
        "format": "interleaved float64 complex little-endian",
        "sample_rate_hz": signal.sample_rate_hz,
        "num_samples": len(signal),
    }
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
