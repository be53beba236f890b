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

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, bin_runs, chunk_map, dft,
                   idft, ofdm_modulate, stage_chunks)
from .scenario import BwpDims, DerivedDims, FcDims, ScenarioSpec
from .wola import rc_ramp


@dataclass
class FcWindow:
    """Frequency-domain subband window on the forward-transform bin grid.

    ``weights`` is indexed in DFT-shifted order (most negative frequency
    first, DC at position L/2).  ``passband`` and ``transition`` hold the
    signed baseband bin indexes of the unity region and the RC ramps;
    ``center_bin`` is the subband center on the output bin grid.
    """

    center_bin: int
    weights: np.ndarray
    passband: np.ndarray
    transition: np.ndarray


@dataclass
class FcBlocks:
    """Block rows of a batch plus the bookkeeping to reassemble them.

    ``data`` has one block per row; row 0 is block ``first_block`` of the
    whole stream, so a chunk of rows carries where it sits.  ``step_len``
    and ``source_len`` (of the whole stream) are in samples at
    ``sample_rate_hz``.  A subband's mapped spectra carry
    ``bins = (first, n)``: column ``k`` belongs on bin ``(first + k) mod n``
    of the n-point inverse transform.
    """

    data: np.ndarray
    step_len: int
    source_len: int
    sample_rate_hz: float
    bins: tuple[int, int] | None = None
    first_block: int = 0

    @property
    def num_blocks(self) -> int:
        return int(self.data.shape[0])

    @property
    def block_len(self) -> int:
        return int(self.data.shape[1])


def design_window(bd: BwpDims, fc: FcDims) -> FcWindow:
    """Unity passband over the allocation, RC transition ramps, zero stopband.

    The transition ramps sample the raised cosine at half-sample offsets,
    so opposite points of one ramp are exactly complementary and the ramp
    midpoint (between the two central transition bins) sits at 0.5.
    """
    l = fc.transform_len
    step_bins = int(round(bd.scs_hz / fc.bin_spacing_hz))
    half = bd.num_subcarriers // 2 * step_bins
    t = fc.transition_bins
    passband = np.arange(-half, half, dtype=np.int64)
    trans_lo = np.arange(-half - t, -half, dtype=np.int64)
    trans_hi = np.arange(half, half + t, dtype=np.int64)
    weights = np.zeros(l)
    weights[l // 2 + passband] = 1.0
    ramp = rc_ramp(t)
    weights[l // 2 + trans_lo] = ramp
    weights[l // 2 + trans_hi] = ramp[::-1]
    return FcWindow(center_bin=bd.center_scs * step_bins, weights=weights,
                    passband=passband,
                    transition=np.concatenate([trans_lo, trans_hi]))


def segment(x: np.ndarray, fc: FcDims, sample_rate_hz: float,
            rows: slice = slice(None)) -> FcBlocks:
    """Cut overlapping forward-transform blocks ``rows`` out of samples ``x``.

    ``sample_rate_hz`` is the rate of ``x``; the blocks carry it.

    Half an overlap of zeros is prepended so the first kept output region
    starts exactly at the first input sample; the tail is zero-padded to
    complete the final block.  Only the blocks in ``rows`` are built, from
    the samples they cover.
    """
    l, step, pad = fc.transform_len, fc.step_len, fc.head_pad
    first, stop, _ = rows.indices(fc.num_blocks(x.size))
    # Sample i of the padded stream is source sample i - pad; this chunk
    # of it starts at its first block.
    a = first * step - pad
    padded = np.zeros((stop - first - 1) * step + l, dtype=np.complex128)
    src = x[max(a, 0): a + padded.size]
    padded[max(-a, 0): max(-a, 0) + src.size] = src
    data = np.lib.stride_tricks.sliding_window_view(padded, l)[::step].copy()
    return FcBlocks(data=data, step_len=step, source_len=x.size,
                    sample_rate_hz=sample_rate_hz, first_block=first)


def subband_forward(blocks: FcBlocks, window: FcWindow, fc: FcDims) -> FcBlocks:
    """Transform, weight, map and phase-rotate one subband's blocks.

    Shifted-order bin ``b`` of the forward transform belongs on output
    bin ``(center - L/2 + b) mod N``, which ``bins`` records; the
    per-block rotation ``exp(j*2*pi*r*theta)`` of block ``r`` with
    ``theta = center*step/L`` keeps the implied frequency translation
    coherent across consecutive blocks.  The N/L amplitude factor is
    folded in so passband gain is unity.
    """
    l, n = fc.transform_len, fc.inverse_len
    out = np.fft.fftshift(dft(blocks.data), axes=1)
    out *= (window.weights * fc.interpolation)[None, :]
    theta = window.center_bin * fc.step_len / l
    r = blocks.first_block + np.arange(blocks.num_blocks)
    out *= np.exp(2j * np.pi * theta * r)[:, None]
    i = fc.interpolation
    return replace(blocks, data=out, step_len=i * blocks.step_len,
                   source_len=i * blocks.source_len,
                   sample_rate_hz=i * blocks.sample_rate_hz,
                   bins=((window.center_bin - l // 2) % n, n))


def combine(subbands: list[FcBlocks],
            spectra: np.ndarray | None = None) -> tuple[FcBlocks, FcBlocks]:
    """Sum mapped subband spectra and inverse-transform each block.

    Each subband's spectra are added, in list order, on the bins they map
    to, into ``spectra`` (zeroed rows, allocated when not given); the sum
    then takes the one inverse transform.  Returns (spectra, time blocks);
    both are kept because block-wise processing edits the spectra while
    overlap-save consumes the time side.  The subbands share rows and rate.
    """
    first = subbands[0]
    n = first.bins[1]
    if spectra is None:
        spectra = np.zeros((first.num_blocks, n), dtype=np.complex128)
    for b in subbands:
        for cols, bins in bin_runs(b.bins[0], b.block_len, n):
            spectra[:, bins] += b.data[:, cols]
    v_f = replace(first, data=spectra, bins=None)
    return v_f, replace(v_f, data=idft(spectra))


def ols_extract(blocks: FcBlocks, fc: FcDims) -> ComplexSignal:
    """Overlap-save reassembly: keep each block's central samples.

    The kept regions tile the output timeline contiguously starting at the
    first source sample (the head zero-pad lies exactly inside the first
    discarded half-overlap); the tail is trimmed to the interpolated
    source length.  The samples of a chunk of rows start at output sample
    ``first_block * step_len``.
    """
    keep = blocks.step_len
    discard = (blocks.block_len - keep) // 2
    out = blocks.data[:, discard: discard + keep].reshape(-1)[
        : blocks.source_len - blocks.first_block * keep]
    return ComplexSignal(samples=out, sample_rate_hz=blocks.sample_rate_hz)


def _filter_bank(dims: DerivedDims, grids: list[ResourceGrid]) -> tuple[
        list[FcWindow], int, Callable[..., tuple[FcBlocks, FcBlocks]]]:
    """Subband windows, block count and the bank's step on a chunk of rows.

    Subband CP-OFDM streams are synthesized at the nominal rate with the
    allocation centered on DC; ``step(sl, spectra)`` cuts block rows
    ``sl`` out of each, maps them to their carrier positions and returns
    ``combine``'s spectra and time blocks for those rows.
    """
    fcd = dims.fc
    if fcd is None:
        raise ValueError("scenario has no fast-convolution geometry")
    windows = [design_window(bd, fcd) for bd in dims.bwps]
    streams = [ofdm_modulate(g, dims, oversampled=False, at_baseband=True).samples
               for g in grids]

    def step(sl: slice, spectra: np.ndarray | None = None
             ) -> tuple[FcBlocks, FcBlocks]:
        return combine([subband_forward(
            segment(x, fcd, dims.fs_nominal_hz, rows=sl), w, fcd)
            for x, w in zip(streams, windows)], spectra)

    return windows, fcd.num_blocks(streams[0].size), step


def fc_subband_spectra(dims: DerivedDims, grids: list[ResourceGrid], *,
                       threads: int = 1
                       ) -> tuple[FcBlocks, FcBlocks, list[FcWindow]]:
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

    def synthesize(sl: slice) -> FcBlocks:
        v_f, v_t = step(sl, spectra[sl])
        blocks[sl] = v_t.data
        return v_f

    with chunk_map(threads) as pmap:
        head = pmap(synthesize, stage_chunks(n_blocks, n))[0]
    # The first chunk starts at block 0, so its geometry is the batch's.
    v_f = replace(head, data=spectra)
    return v_f, replace(v_f, data=blocks), windows


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
    out = np.empty(fcd.interpolation * bd.num_symbols * bd.stride,
                   dtype=np.complex128)

    def synthesize(sl: slice) -> None:
        kept = ols_extract(step(sl)[1], fcd).samples
        out[sl.start * fcd.keep_len: sl.start * fcd.keep_len + kept.size] = kept

    with chunk_map(threads) as pmap:
        pmap(synthesize, stage_chunks(n_blocks, fcd.inverse_len))
    if info is not None:
        info["iterations"] = 0
        info["windows"] = windows
    return ComplexSignal(samples=out,
                         sample_rate_hz=fcd.interpolation * dims.fs_nominal_hz)
