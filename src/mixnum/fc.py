"""Fast-convolution filter bank: block-wise filtering, translation, interpolation.

Subband streams at the nominal rate are chopped into overlapping blocks,
one block per row of a C-ordered batch; each block is transformed,
weighted by a frequency-domain window and phase-rotated so the
translation stays phase-continuous from block to block.  Its bins belong
on a larger inverse transform centered on the subband's carrier position
(which both translates and interpolates).  Adding the mapped blocks of
all subbands into one batch, inverse-transforming it once and keeping the
central part of every block (overlap-save) yields the composite wideband
waveform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, chunk_map, dft, idft,
                   ofdm_modulate, stage_chunks)
from .scenario import BwpDims, DerivedDims, FcDims, ScenarioSpec, derive_dims
from .wola import rc_ramp
from . import ofdm


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
    """A batch of processing blocks plus the bookkeeping to reassemble them.

    ``data`` has one block per row.  ``step_len``, ``head_pad`` and
    ``source_len`` are in samples at ``sample_rate_hz``.  A subband's
    mapped spectra carry ``bins = (first, n)``: column ``k`` belongs on
    bin ``(first + k) mod n`` of the n-point inverse transform.
    """

    data: np.ndarray
    step_len: int
    head_pad: int
    source_len: int
    sample_rate_hz: float
    bins: tuple[int, int] | None = None

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
    if half + t > l // 2:
        raise ValueError("passband plus transition bins overflow the transform")
    passband = np.arange(-half, half, dtype=np.int64)
    trans_lo = np.arange(-half - t, -half, dtype=np.int64)
    trans_hi = np.arange(half, half + t, dtype=np.int64)
    weights = np.zeros(l)
    weights[l // 2 + passband] = 1.0
    ramp = rc_ramp(t)
    weights[l // 2 + trans_lo] = ramp
    weights[l // 2 + trans_hi] = ramp[::-1]
    center = bd.center_hz / fc.bin_spacing_hz
    if abs(center - round(center)) > 1e-9:
        raise ValueError("subband center is not an integer output bin")
    return FcWindow(center_bin=int(round(center)), weights=weights,
                    passband=passband,
                    transition=np.concatenate([trans_lo, trans_hi]))


def segment(signal: ComplexSignal | np.ndarray, fc: FcDims,
            sample_rate_hz: float | None = None) -> FcBlocks:
    """Split a stream into overlapping forward-transform blocks.

    Half an overlap of zeros is prepended so the first kept output region
    starts exactly at the first input sample; the tail is zero-padded to
    complete the final block.
    """
    if isinstance(signal, ComplexSignal):
        x = signal.samples
        rate = signal.sample_rate_hz
    else:
        x = np.asarray(signal)
        rate = float(sample_rate_hz or 0.0)
    l, step, pad = fc.transform_len, fc.step_len, fc.head_pad
    n_blocks = -(-(x.size + pad) // step)
    padded = np.zeros((n_blocks - 1) * step + l, dtype=np.complex128)
    padded[pad: pad + x.size] = x
    data = np.lib.stride_tricks.sliding_window_view(padded, l)[::step].copy()
    return FcBlocks(data=data, step_len=step, head_pad=pad,
                    source_len=x.size, sample_rate_hz=rate)


def subband_forward(blocks: FcBlocks, window: FcWindow, fc: FcDims) -> FcBlocks:
    """Transform, weight, map and phase-rotate one subband's blocks.

    Shifted-order bin ``b`` of the forward transform belongs on output
    bin ``(center - L/2 + b) mod N``, which ``bins`` records; the
    per-block rotation ``exp(j*2*pi*r*theta)`` with
    ``theta = center*step/L`` keeps the implied frequency translation
    coherent across consecutive blocks.  The N/L amplitude factor is
    folded in so passband gain is unity.
    """
    l, n = fc.transform_len, fc.inverse_len
    if blocks.block_len != l:
        raise ValueError("block length does not match the forward transform")
    out = np.fft.fftshift(dft(blocks.data), axes=1)
    out *= (window.weights * fc.interpolation)[None, :]
    theta = window.center_bin * fc.step_len / l
    out *= np.exp(2j * np.pi * theta * np.arange(blocks.num_blocks))[:, None]
    i = fc.interpolation
    return FcBlocks(data=out, step_len=i * blocks.step_len,
                    head_pad=i * blocks.head_pad,
                    source_len=i * blocks.source_len,
                    sample_rate_hz=i * blocks.sample_rate_hz,
                    bins=((window.center_bin - l // 2) % n, n))


def combine(subbands: list[FcBlocks], *,
            threads: int = 1) -> tuple[FcBlocks, FcBlocks]:
    """Sum mapped subband spectra and inverse-transform each block.

    Each subband's spectra are added, in list order, into one zeroed
    batch on the bins they map to; the batch then takes the one inverse
    transform.  Both steps run in fixed chunks of block rows on
    ``threads`` worker threads.  Returns (spectra, time blocks); both are
    kept because block-wise processing edits the spectra while
    overlap-save consumes the time side.
    """
    if not subbands:
        raise ValueError("nothing to combine")
    first = subbands[0]
    for b in subbands:
        if (b.data.shape != first.data.shape or b.step_len != first.step_len
                or b.sample_rate_hz != first.sample_rate_hz):
            raise ValueError("subband block geometries differ")
    n = first.bins[1]
    total = np.zeros((first.num_blocks, n), dtype=np.complex128)
    blocks = np.empty_like(total)
    cols = [np.mod(b.bins[0] + np.arange(b.block_len), n) for b in subbands]

    def synthesize(sl: slice) -> None:
        rows = total[sl]
        for b, c in zip(subbands, cols):
            rows[:, c] += b.data[sl]
        blocks[sl] = idft(rows)

    with chunk_map(threads) as pmap:
        pmap(synthesize, stage_chunks(first.num_blocks, n))
    v_f = replace(first, data=total, bins=None)
    return v_f, replace(v_f, data=blocks)


def ols_extract(blocks: FcBlocks, fc: FcDims) -> ComplexSignal:
    """Overlap-save reassembly: keep each block's central samples.

    The kept regions tile the output timeline contiguously starting at the
    first source sample (the head zero-pad lies exactly inside the first
    discarded half-overlap); the tail is trimmed to the interpolated
    source length.
    """
    n = blocks.block_len
    keep = blocks.step_len
    discard = (n - keep) // 2
    if 2 * discard + keep != n:
        raise ValueError("block length minus keep length must be even")
    out = blocks.data[:, discard: discard + keep].reshape(-1)[: blocks.source_len]
    return ComplexSignal(samples=out, sample_rate_hz=blocks.sample_rate_hz)


def fc_subband_spectra(dims: DerivedDims, grids: list[ResourceGrid], *,
                       threads: int = 1
                       ) -> tuple[FcBlocks, FcBlocks, list[FcWindow]]:
    """Forward half of the filter bank for every BWP, summed into one batch.

    Subband CP-OFDM streams are synthesized at the nominal rate with the
    allocation centered on DC; the bin mapping places each subband at its
    carrier position.  Returns ``combine``'s spectra and time blocks (built
    on ``threads`` worker threads) and the subband windows.
    """
    fcd = dims.fc
    if fcd is None:
        raise ValueError("scenario has no fast-convolution geometry")
    windows = [design_window(bd, fcd) for bd in dims.bwps]
    mapped = []
    for m, grid in enumerate(grids):
        sub = ofdm_modulate(grid, dims, oversampled=False, at_baseband=True)
        mapped.append(subband_forward(segment(sub, fcd), windows[m], fcd))
    v_f, v_t = combine(mapped, threads=threads)
    return v_f, v_t, windows


def run_fc_f_ofdm(spec: ScenarioSpec, dims: DerivedDims | None = None,
                  grids: list[ResourceGrid] | None = None, *,
                  info: dict | None = None, threads: int = 1) -> ComplexSignal:
    """Filtered multi-subband waveform without PAPR processing.

    ``threads`` worker threads build the composite blocks (``combine``);
    the output does not depend on it.
    """
    dims = dims or derive_dims(spec)
    grids = grids or [ofdm.generate_grid(dims, m, spec.seed) for m in range(dims.num_bwps)]
    _, v_t, windows = fc_subband_spectra(dims, grids, threads=threads)
    if info is not None:
        info["iterations"] = 0
        info["windows"] = windows
    return ols_extract(v_t, dims.fc)
