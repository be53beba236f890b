"""Fast-convolution filter bank: block-wise filtering, translation, interpolation.

Subband streams at the nominal rate are chopped into overlapping blocks, one
block per row of a C-ordered array; each block is transformed, weighted by a
frequency-domain window and rotated by the modem's carrier phase
(``ofdm.carrier_phase``), so the translation stays phase-continuous from
block to block.  Its bins belong on a larger inverse transform centered on
the subband's carrier position (which both translates and interpolates).
Adding the mapped blocks of all subbands, inverse-transforming the sum and
keeping the central part of every block (overlap-save) yields the composite
wideband waveform.  Every step is per block, so the bank runs on chunks of
block rows cut from the symbols they cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, bin_runs, carrier_phase, dft,
                   idft, ofdm_span, pmap, stage_chunks)
from .scenario import BwpDims, DerivedDims, FcDims, ScenarioSpec
from .wola import rc_ramp


@dataclass
class FcWindow:
    """Frequency-domain subband window on the forward-transform bin grid.

    ``gains`` are the window's nonzero values on the signed bins
    ``-half .. half - 1`` in DFT-shifted order: the raised-cosine ramp,
    unity over the allocation, the mirrored ramp; every other bin is zero.
    ``center_bin`` is the subband center on the output bin grid.
    """

    center_bin: int
    half: int
    gains: np.ndarray


def design_window(bd: BwpDims, fc: FcDims) -> FcWindow:
    """Unity passband over the allocation, RC transition ramps, zero stopband.

    The transition ramps sample the raised cosine at half-sample offsets,
    so opposite points of one ramp are exactly complementary and the ramp
    midpoint (between the two central transition bins) sits at 0.5.
    """
    step_bins = int(round(bd.scs_hz / fc.bin_spacing_hz))
    half = bd.num_subcarriers // 2 * step_bins
    ramp = rc_ramp(fc.transition_bins)
    return FcWindow(center_bin=bd.center_scs * step_bins,
                    half=half + fc.transition_bins,
                    gains=np.concatenate([ramp, np.ones(2 * half), ramp[::-1]]))


def segment(x: np.ndarray, fc: FcDims, rows: slice = slice(None)) -> np.ndarray:
    """Overlapping forward-transform blocks ``rows`` of samples ``x``."""
    return _cut(lambda a, b: x[a:b], fc, *rows.indices(fc.num_blocks(x.size))[:2])


def _cut(read: Callable[[int, int], np.ndarray], fc: FcDims, first: int,
         stop: int) -> np.ndarray:
    """Blocks ``first`` to ``stop`` of a stream, one per row of a (B, L) array,
    from the samples [a, b) they cover, ``read(a, b)`` (cut short at the
    stream's end).  Half an overlap of zeros goes in front, so the first kept
    output region starts at the first sample, and zeros complete the last block.
    """
    l, step, pad = fc.transform_len, fc.step_len, fc.head_pad
    # Sample i of the padded stream is source sample i - pad; this chunk
    # of it starts at its first block.
    a = first * step - pad
    padded = np.zeros((stop - first - 1) * step + l, dtype=np.complex128)
    src = read(max(a, 0), a + padded.size)
    padded[max(-a, 0): max(-a, 0) + src.size] = src
    return np.lib.stride_tricks.sliding_window_view(padded, l)[::step].copy()


def subband_forward(blocks: np.ndarray, window: FcWindow, fc: FcDims,
                    first_block: int) -> np.ndarray:
    """Transform, weight and phase-rotate one subband's blocks.

    Returns the window's support columns: signed bin ``k`` of the forward
    transform, ``-half <= k < half``, is column ``half + k`` and belongs on
    output bin ``(center + k) mod N``.  Row ``r`` is block ``first_block +
    r``; its rotation, ``carrier_phase`` at its first sample ``(first_block
    + r)*step``, keeps the implied frequency translation coherent across
    consecutive blocks.  The N/L amplitude factor is folded in so passband
    gain is unity.
    """
    l, h = fc.transform_len, window.half
    f = dft(blocks)
    out = np.concatenate([f[:, l - h:], f[:, :h]], axis=1)
    out *= (window.gains * fc.interpolation)[None, :]
    r = first_block + np.arange(blocks.shape[0])
    out *= carrier_phase(window.center_bin, r * fc.step_len, l)[:, None]
    return out


def combine(spectra: np.ndarray, supports: list[np.ndarray],
            windows: list[FcWindow]) -> np.ndarray:
    """Sum mapped subband spectra and inverse-transform each block.

    Each subband's support columns are added, in list order, on the
    output bins they map to, into ``spectra`` (zeroed (B, N) rows); the
    sum then takes the one inverse transform, which is returned.
    """
    n = spectra.shape[1]
    for s, w in zip(supports, windows):
        for cols, bins in bin_runs(w.center_bin - w.half, s.shape[1], n):
            spectra[:, bins] += s[:, cols]
    return idft(spectra)


def ols_extract(blocks: np.ndarray, fc: FcDims, length: int,
                first_block: int = 0) -> np.ndarray:
    """Overlap-save reassembly: keep each (B, N) block's central samples.

    The kept regions tile the output timeline contiguously starting at the
    first source sample (the head zero-pad lies exactly inside the first
    discarded half-overlap); the tail is trimmed to the stream's ``length``
    output samples.  Row 0 is block ``first_block``, whose samples start at
    output sample ``first_block * keep_len``.
    """
    return blocks[:, fc.keep_slice].reshape(-1)[: length - first_block * fc.keep_len]


def filter_bank(dims: DerivedDims, grids: list[ResourceGrid]) -> tuple[
        list[FcWindow], int, Callable[[slice], tuple[np.ndarray, np.ndarray]]]:
    """Subband windows, block count and the bank's step on a chunk of rows.

    ``step(sl)`` cuts block rows ``sl`` of each subband's nominal-rate
    CP-OFDM stream, allocation on DC, from the symbols they cover, maps
    them to their carrier positions, sums them into (rows, N) spectra of
    its own and returns those spectra and the time blocks.
    """
    fcd = dims.fc
    windows = [design_window(bd, fcd) for bd in dims.bwps]
    reads = [partial(ofdm_span, g, dims, oversampled=False, at_baseband=True)
             for g in grids]

    def step(sl: slice) -> tuple[np.ndarray, np.ndarray]:
        spectra = np.zeros((sl.stop - sl.start, fcd.inverse_len), dtype=np.complex128)
        return spectra, combine(spectra, [
            subband_forward(_cut(read, fcd, sl.start, sl.stop), w, fcd, sl.start)
            for read, w in zip(reads, windows)], windows)

    return windows, fcd.num_blocks(grids[0].num_symbols * dims.bwps[0].stride), step


def fc_subband_spectra(dims: DerivedDims, grids: list[ResourceGrid]
                       ) -> tuple[np.ndarray, np.ndarray, list[FcWindow]]:
    """The whole filter bank in one batch, its step on every row: the
    (B, N) spectra and time blocks of every block, and the subband windows.

    The runners go through the bank in chunks of rows instead; this form
    is for inspecting the full sum.
    """
    windows, n_blocks, step = filter_bank(dims, grids)
    return (*step(slice(0, n_blocks)), windows)


def run_fc_f_ofdm(spec: ScenarioSpec, dims: DerivedDims,
                  grids: list[ResourceGrid], *,
                  info: dict | None = None, threads: int = 1) -> ComplexSignal:
    """Filtered multi-subband waveform without PAPR processing.

    Each fixed chunk of block rows goes through the filter bank and
    writes its kept samples straight into the output, on ``threads``
    worker threads, so no batch of all blocks exists; the output does not
    depend on ``threads``.
    """
    windows, n_blocks, step = filter_bank(dims, grids)
    fcd = dims.fc
    bd = dims.bwps[0]
    out = np.empty(bd.num_symbols * bd.stride_os, dtype=np.complex128)

    def synthesize(sl: slice) -> None:
        kept = ols_extract(step(sl)[1], fcd, out.size, sl.start)
        out[sl.start * fcd.keep_len: sl.start * fcd.keep_len + kept.size] = kept

    pmap(synthesize, stage_chunks(n_blocks, fcd.inverse_len), threads)
    if info is not None:
        info["iterations"] = 0
        info["windows"] = windows
    return ComplexSignal(samples=out, sample_rate_hz=dims.fs_oversampled_hz)
