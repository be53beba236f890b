"""CP-OFDM primitives: transforms, QAM mapping, grids, modulation.

Conventions used throughout the package:

* the forward DFT is unnormalized and the inverse carries the 1/L factor
  (numpy convention), so ``dft(idft(x)) == x``;
* frequency-domain vectors are in natural DFT order, DC at bin 0; signed
  subcarrier indexes are folded with ``k mod L``;
* a BWP's carrier is a shift of ``center_scs`` bins plus one exact phase
  per symbol (``carrier_phase``), removed the same way by the receiver and
  taken per block by the filter bank; no full-length carrier array exists;
* one OFDM symbol is one contiguous row: grids are C-ordered
  (num_symbols, K) arrays and transform inputs and bodies C-ordered
  (num_symbols, L) arrays, so every transform runs along the last axis
  and a set of symbols is a set of rows;
* work on many rows or samples is cut into even chunks (``stage_chunks``)
  that ``pmap`` runs on the process's one pool of ``--threads`` workers;
  a chunk task takes nothing from another chunk and writes only its own
  rows or samples; the chunks never depend on the thread count, and a
  stream's sums split as numpy's pairwise sum splits them
  (``pairwise_reduce``), so every stage, its statistics included, gives
  the same bits on any pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
import json
import operator

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


@cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's pool of ``threads`` workers, started at first use."""
    return ThreadPoolExecutor(max_workers=threads)


def pmap(fn, chunks, threads: int) -> list:
    """The list of ``fn(chunk)`` in chunk order.

    With ``threads > 1`` the calls run on the process's shared pool of
    that many worker threads (numpy's transforms and element-wise kernels
    release the interpreter lock); otherwise they run in the calling
    thread.  ``fn`` must not itself call ``pmap`` with ``threads > 1``: it
    would wait on the pool it runs on.  The caller fixes the chunks, so
    their content, and with it every result, is the same for any thread
    count.
    """
    if threads <= 1:
        return [fn(c) for c in chunks]
    return list(_pool(threads).map(fn, chunks))


# The full-length stages (WOLA and filter-bank synthesis, the clip loops,
# demodulation, Welch's segments, the stream statistics) work in chunks of
# at most this many samples (or one row).  Their arithmetic is per row or
# per sample, and their sums split as numpy's do, so the chunk size changes
# no result.
_STAGE_CHUNK_SAMPLES = 1 << 18


def stage_chunks(n: int, row_len: int) -> list[slice]:
    """Even slices of ``n`` rows of ``row_len`` samples, one per chunk.

    A chunk holds at most ``_STAGE_CHUNK_SAMPLES // row_len`` rows (one at
    least).  The count is the fewest such chunks rounded up to a multiple
    of 4, but at most ``n``, and the rows are dealt out evenly, so sizes
    differ by at most one row: the chunks never depend on the thread
    count, and they share out evenly over 1, 2 and 4 workers.
    """
    size = max(1, _STAGE_CHUNK_SAMPLES // row_len)
    fewest = -(-n // size)
    count = min(n, fewest + -fewest % 4)
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


def _pairwise_half(n: int) -> int:
    """Where numpy's pairwise sum splits ``n`` values."""
    return n // 2 - n // 2 % 8


def pairwise_reduce(leaf, n: int, threads: int, cap: int = 0, join=operator.add):
    """``leaf`` over numpy's pairwise split of ``n`` values, joined in its
    tree order.

    numpy sums ``n`` contiguous values by splitting them at ``n/2``
    rounded down to a multiple of 8, down to blocks of at most 128 values
    (Higham, SIAM J. Sci. Comput. 14(4), 1993).  Here the split stops at
    nodes of at most ``cap`` values (``cap >= 128``; one stage chunk, but
    128 at least, if 0); each node is one task ``leaf(slice)`` on
    ``threads`` worker threads, and the results are joined as numpy adds
    its halves.  So a leaf that sums its node as numpy does makes the whole
    sum numpy's, bit for bit.  numpy does not
    promise that split (checked against numpy 2.4.6): after any numpy
    upgrade, ``test_ofdm.py``'s ``TestPowerStats`` must pass.
    """
    cap = cap or max(128, _STAGE_CHUNK_SAMPLES)

    def split(lo: int, m: int) -> list[slice]:
        if m <= cap:
            return [slice(lo, lo + m)]
        half = _pairwise_half(m)
        return split(lo, half) + split(lo + half, m - half)

    done = iter(pmap(leaf, split(0, n), threads))

    def tree(m: int):
        if m <= cap:
            return next(done)
        half = _pairwise_half(m)
        return join(tree(half), tree(m - half))

    return tree(n)


def power_stats(x: np.ndarray, threads: int) -> tuple[float, float]:
    """Mean and peak of ``|x|^2`` over a 1-D stream, on ``threads`` workers.

    Each leaf of numpy's pairwise split, at most one stage chunk and never
    below 128 samples, takes its own ``|x|^2`` and reduces it, so this
    equals ``np.mean(np.abs(x) ** 2)`` and ``np.max(np.abs(x) ** 2)`` bit
    for bit and no full-length power array exists.
    """
    def leaf(sl: slice) -> tuple[float, float]:
        p = np.abs(x[sl])
        np.square(p, out=p)
        return np.add.reduce(p), p.max()

    def join(a, b):
        return a[0] + b[0], np.maximum(a[1], b[1])

    total, peak = pairwise_reduce(leaf, x.size, threads, join=join)
    return float(total / x.size), float(peak)


def dft(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized forward DFT (into ``out``, which may be ``x``)."""
    return np.fft.fft(x, axis=axis, out=out)


def idft(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse DFT carrying the 1/L normalization (into ``out``, which may be ``x``)."""
    return np.fft.ifft(x, axis=axis, out=out)


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
    which order or batch the grid is produced.  One generator serves the
    grid: each symbol sets its key, with counter, buffer and uint32 carry
    zeroed, the state ``Philox(key=...)`` starts from.  ``seed`` must fit
    in 64 bits (the scenario checks it).
    """
    bd = dims.bwps[bwp_index]
    k = bd.num_subcarriers
    bits = np.empty((bd.num_symbols, k * bits_per_symbol(bd.modulation)),
                    dtype=np.int64)
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    draw = np.random.Generator(bitgen)
    fresh = bitgen.state
    for s in range(bd.num_symbols):
        fresh["state"]["key"] = np.array(
            [seed, ((bwp_index & 0xFFFFFFFF) << 32) | (s & 0xFFFFFFFF)],
            dtype=np.uint64)
        bitgen.state = fresh
        bits[s] = draw.integers(0, 2, size=bits.shape[1])
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


def _place(values: np.ndarray, first: int, l: int) -> np.ndarray:
    """Length-``l`` zero rows with ``values[:, k]`` on bin ``(first + k) mod l``."""
    x_f = np.zeros((values.shape[0], l), dtype=np.complex128)
    for cols, bins in bin_runs(first, values.shape[1], l):
        x_f[:, bins] = values[:, cols]
    return x_f


def grid_to_spectrum(grid: ResourceGrid, dims: DerivedDims) -> np.ndarray:
    """Zero-padded oversampled transform input per symbol, shape (S, L).

    The allocation is centered on DC (``active_base``), one C-ordered row
    per symbol, ready for a last-axis transform.
    """
    bd = dims.bwps[grid.bwp_index]
    return _place(grid.values, int(bd.active_base[0]), bd.l_ofdm_os)


def carrier_phase(center: int, n: np.ndarray, l: int) -> np.ndarray:
    """``exp(2j*pi*center*n/l)``, with ``center*n`` reduced mod ``l`` in
    integers first, so its error does not grow with ``n``."""
    return np.exp(2j * np.pi * ((center * n) % l) / l)


def symbol_bodies(grid: ResourceGrid, dims: DerivedDims,
                  symbols: slice = slice(None), *, oversampled: bool = True,
                  at_baseband: bool = False) -> np.ndarray:
    """The (S, L) time bodies of grid rows ``symbols``, at the BWP's carrier.

    The allocation sits at bins ``active_base + c`` (``c = center_scs``, an
    integer), so each body carries the carrier ``exp(2j*pi*c*n/l)`` over
    its own samples, and row ``s`` is multiplied by the carrier's phase at
    its first body sample ``s*stride + l_cp``.  CP and WOLA extensions are
    cyclic copies and windows pointwise, so a stream built from these
    bodies is the baseband one mixed by the continuous carrier.
    ``at_baseband`` keeps the allocation on DC, with no phase.
    """
    bd = dims.bwps[grid.bwp_index]
    l, l_cp = _transform_dims(bd, oversampled)
    c = 0 if at_baseband else bd.center_scs
    values = grid.values[symbols]
    body = idft(_place(values, int(bd.active_base[0]) + c, l))
    if c:
        first = symbols.indices(grid.num_symbols)[0]
        n0 = (first + np.arange(values.shape[0])) * (l + l_cp) + l_cp
        body *= carrier_phase(c, n0, l)[:, None]
    return body


def ofdm_span(grid: ResourceGrid, dims: DerivedDims, a: int, b: int, *,
              oversampled: bool = True, at_baseband: bool = False) -> np.ndarray:
    """Samples [a, b) of one BWP's CP-OFDM stream (cut short at its end),
    made from the symbols under them only: each is its body
    (``symbol_bodies``) with its last ``l_cp`` samples in front as the CP.
    """
    l, l_cp = _transform_dims(dims.bwps[grid.bwp_index], oversampled)
    s0 = a // (l + l_cp)
    body = symbol_bodies(grid, dims, slice(s0, -(-b // (l + l_cp))),
                         oversampled=oversampled, at_baseband=at_baseband)
    flat = np.concatenate([body[:, l - l_cp:], body], axis=1).reshape(-1)
    return flat[a - s0 * (l + l_cp): b - s0 * (l + l_cp)]


def ofdm_modulate(grid: ResourceGrid, dims: DerivedDims, *, oversampled: bool = True,
                  at_baseband: bool = False) -> ComplexSignal:
    """The whole CP-OFDM sample stream of one BWP (``ofdm_span``)."""
    l, l_cp = _transform_dims(dims.bwps[grid.bwp_index], oversampled)
    rate = dims.fs_oversampled_hz if oversampled else dims.fs_nominal_hz
    return ComplexSignal(ofdm_span(grid, dims, 0, grid.num_symbols * (l + l_cp),
                                   oversampled=oversampled,
                                   at_baseband=at_baseband), rate)


def ofdm_demodulate(signal: ComplexSignal, dims: DerivedDims, bwp_index: int,
                    timing_offset: int = 0, *,
                    threads: int = 1) -> ResourceGrid:
    """Recover a BWP's grid from an oversampled composite stream.

    Per symbol, the L-sample window at ``symbol_start + l_cp +
    timing_offset`` is transformed, bins ``active_base + center_scs`` are
    read and multiplied by the conjugate carrier phase at the window start
    (the mirror of ``symbol_bodies``).  The known phase ramp caused by a
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
    runs = bin_runs(int(idx[0]) + bd.center_scs, idx.size, l)
    phase = np.conj(carrier_phase(bd.center_scs,
                                  start + stride * np.arange(n_sym), l))
    rows = np.empty((n_sym, idx.size), dtype=np.complex128)

    def demodulate(sl: slice) -> None:
        spectra = dft(frames[sl, start: start + l])
        for cols, bins in runs:
            rows[sl, cols] = spectra[:, bins]
        rows[sl] *= phase[sl, None]

    pmap(demodulate, stage_chunks(n_sym, l), threads)
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
