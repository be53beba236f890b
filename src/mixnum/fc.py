"""Fast-convolution filter bank: block-wise filtering, translation, interpolation.

Subband streams at the nominal rate are chopped into overlapping blocks,
one block per row of a C-ordered array; each block is transformed,
weighted by a frequency-domain window and phase-rotated so the
translation stays phase-continuous from block to block.  Its bins belong
on a larger inverse transform centered on the subband's carrier position
(which both translates and interpolates).  Adding the mapped blocks of
all subbands, inverse-transforming the sum and keeping the central part
of every block (overlap-save) yields the composite wideband waveform.
Every step is per block, so the bank runs on fixed chunks of block rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, bin_runs, chunk_map, dft,
                   idft, ofdm_modulate, stage_chunks)
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
    """Cut overlapping forward-transform blocks ``rows`` out of samples ``x``.

    Half an overlap of zeros is prepended so the first kept output region
    starts exactly at the first input sample; the tail is zero-padded to
    complete the final block.  Only the blocks in ``rows`` are built, from
    the samples they cover, one per row of a (B, L) array.
    """
    l, step, pad = fc.transform_len, fc.step_len, fc.head_pad
    first, stop, _ = rows.indices(fc.num_blocks(x.size))
    # Sample i of the padded stream is source sample i - pad; this chunk
    # of it starts at its first block.
    a = first * step - pad
    padded = np.zeros((stop - first - 1) * step + l, dtype=np.complex128)
    src = x[max(a, 0): a + padded.size]
    padded[max(-a, 0): max(-a, 0) + src.size] = src
    return np.lib.stride_tricks.sliding_window_view(padded, l)[::step].copy()


def subband_forward(blocks: np.ndarray, window: FcWindow, fc: FcDims,
                    first_block: int) -> np.ndarray:
    """Transform, weight and phase-rotate one subband's blocks.

    Returns the window's support columns: signed bin ``k`` of the forward
    transform, ``-half <= k < half``, is column ``half + k`` and belongs on
    output bin ``(center + k) mod N``.  Row ``r`` is block
    ``first_block + r`` of the stream; its rotation
    ``exp(j*2*pi*(first_block + r)*theta)`` with ``theta = center*step/L``
    keeps the implied frequency translation coherent across consecutive
    blocks.  The N/L amplitude factor is folded in so passband gain is unity.
    """
    l, h = fc.transform_len, window.half
    f = dft(blocks)
    out = np.concatenate([f[:, l - h:], f[:, :h]], axis=1)
    out *= (window.gains * fc.interpolation)[None, :]
    theta = window.center_bin * fc.step_len / l
    r = first_block + np.arange(blocks.shape[0])
    out *= np.exp(2j * np.pi * theta * r)[:, None]
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
    keep = fc.keep_len
    discard = (fc.inverse_len - keep) // 2
    return blocks[:, discard: discard + keep].reshape(-1)[: length - first_block * keep]


def _filter_bank(dims: DerivedDims, grids: list[ResourceGrid]) -> tuple[
        list[FcWindow], int, Callable[[slice, np.ndarray], np.ndarray]]:
    """Subband windows, block count and the bank's step on a chunk of rows.

    Subband CP-OFDM streams are synthesized at the nominal rate with the
    allocation centered on DC; ``step(sl, spectra)`` cuts block rows
    ``sl`` out of each, maps them to their carrier positions, sums them
    into ``spectra`` (zeroed rows) and returns the time blocks of ``sl``.
    """
    fcd = dims.fc
    windows = [design_window(bd, fcd) for bd in dims.bwps]
    streams = [ofdm_modulate(g, dims, oversampled=False, at_baseband=True).samples
               for g in grids]

    def step(sl: slice, spectra: np.ndarray) -> np.ndarray:
        return combine(spectra, [
            subband_forward(segment(x, fcd, sl), w, fcd, sl.start)
            for x, w in zip(streams, windows)], windows)

    return windows, fcd.num_blocks(streams[0].size), step


def fc_subband_spectra(dims: DerivedDims, grids: list[ResourceGrid], *,
                       threads: int = 1
                       ) -> tuple[np.ndarray, np.ndarray, list[FcWindow]]:
    """Forward half of the filter bank for every BWP, summed into one batch.

    Each fixed chunk of block rows runs segment, forward transform,
    window and rotation, subband scatter-add and inverse transform, on
    ``threads`` worker threads.  Returns the (B, N) spectra and time
    blocks and the subband windows.
    """
    windows, n_blocks, step = _filter_bank(dims, grids)
    n = dims.fc.inverse_len
    spectra = np.zeros((n_blocks, n), dtype=np.complex128)
    blocks = np.empty_like(spectra)

    def synthesize(sl: slice) -> None:
        blocks[sl] = step(sl, spectra[sl])

    with chunk_map(threads) as pmap:
        pmap(synthesize, stage_chunks(n_blocks, n))
    return spectra, blocks, windows


def run_fc_f_ofdm(spec: ScenarioSpec, dims: DerivedDims,
                  grids: list[ResourceGrid], *,
                  info: dict | None = None, threads: int = 1) -> ComplexSignal:
    """Filtered multi-subband waveform without PAPR processing.

    Each fixed chunk of block rows goes through the filter bank and
    writes its kept samples straight into the output, on ``threads``
    worker threads, so no batch of all blocks exists; the output does not
    depend on ``threads``.
    """
    windows, n_blocks, step = _filter_bank(dims, grids)
    fcd = dims.fc
    bd = dims.bwps[0]
    out = np.empty(bd.num_symbols * bd.stride_os, dtype=np.complex128)

    def synthesize(sl: slice) -> None:
        spectra = np.zeros((sl.stop - sl.start, fcd.inverse_len), dtype=np.complex128)
        kept = ols_extract(step(sl, spectra), fcd, out.size, sl.start)
        out[sl.start * fcd.keep_len: sl.start * fcd.keep_len + kept.size] = kept

    with chunk_map(threads) as pmap:
        pmap(synthesize, stage_chunks(n_blocks, fcd.inverse_len))
    if info is not None:
        info["iterations"] = 0
        info["windows"] = windows
    return ComplexSignal(samples=out, sample_rate_hz=dims.fs_oversampled_hz)
