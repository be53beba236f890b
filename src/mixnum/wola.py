"""Windowed overlap-add (WOLA) symbol shaping and multi-BWP aggregation.

Each CP-OFDM symbol is cyclically extended beyond its CP+body stride and
shaped with a raised-cosine window whose ramps overlap the neighbouring
symbols' ramps exactly; overlapping ramp weights sum to one, so the flat
part of every symbol is transmitted untouched while symbol transitions are
smoothed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, chunk_map, grid_to_spectrum,
                   idft, stage_chunks, subband_carrier)
from .scenario import BwpDims, DerivedDims


@dataclass
class WolaParams:
    """Windowing geometry for one BWP at one sampling rate."""

    l_ofdm: int
    l_cp: int
    l_ext: int   # total cyclic extension beyond the CP-OFDM stride, even

    @property
    def stride(self) -> int:
        return self.l_ofdm + self.l_cp

    @property
    def window_len(self) -> int:
        return self.stride + self.l_ext

    @classmethod
    def from_dims(cls, bd: BwpDims, extension_factor: float) -> "WolaParams":
        # Floored to an even count, so it splits into equal halves on each
        # side of the symbol; a factor in [0, 1] keeps it inside the CP.
        l_ext = 2 * int(extension_factor * bd.l_cp_os / 2)
        return cls(l_ofdm=bd.l_ofdm_os, l_cp=bd.l_cp_os, l_ext=l_ext)


def rc_ramp(n: int) -> np.ndarray:
    """Rising raised-cosine ramp sampled at half-sample offsets.

    ``w[i] = 0.5*(1 - cos(pi*(i+0.5)/n))``; the upper half is stored as
    ``1 - w[mirror]`` so amplitude complementarity ``w[n-1-i] == 1 - w[i]``
    holds bit-exactly (an odd-length ramp's midpoint is exactly 0.5).
    """
    if n == 0:
        return np.zeros(0)
    w = np.empty(n)
    half = n // 2
    i = np.arange(half)
    w[:half] = 0.5 * (1.0 - np.cos(np.pi * (i + 0.5) / n))
    if n % 2:
        w[half] = 0.5
    w[n - half:] = 1.0 - w[:half][::-1]
    return w


def build_rc_window(params: WolaParams) -> np.ndarray:
    """Full symbol window: RC ramp up, flat top, mirrored RC ramp down."""
    w = np.ones(params.window_len)
    n = params.l_ext
    if n:
        up = rc_ramp(n)
        w[:n] = up
        w[-n:] = up[::-1]
    return w


def wola_symbol(body: np.ndarray, params: WolaParams) -> np.ndarray:
    """Cyclically extend and window one symbol body (or a (S, L) batch).

    The extension places ``l_cp + l_ext/2`` tail samples of the body in
    front (CP plus half the extra extension) and ``l_ext/2`` head samples
    behind, then multiplies by the RC window.  A batch holds one body per
    row.
    """
    half = params.l_ext // 2
    ext = np.concatenate([body[..., params.l_ofdm - params.l_cp - half:],
                          body, body[..., :half]], axis=-1)
    return ext * build_rc_window(params)


def wola_assemble(body_rows: Callable[[slice], np.ndarray], n_sym: int,
                  params: WolaParams, *, threads: int = 1) -> np.ndarray:
    """Overlap-add ``n_sym`` windowed symbols into one sample stream.

    ``body_rows(sl)`` returns the (n, L) bodies of symbols ``sl``; it is
    called once per fixed chunk of symbols, on ``threads`` worker threads,
    so no batch of all bodies exists.  Windowed symbols are placed at the
    CP-OFDM stride; the half-extension lead-in of the first symbol (which
    would sit before time zero) is dropped so sample 0 is the nominal
    start of symbol 0 in every BWP and multi-BWP aggregation stays time
    aligned.  Output length is ``S*stride + l_ext/2``.

    Since ``l_ext <= l_cp``, a window overlaps only its successor: each
    chunk adds the first ``stride`` samples of its windows into their own
    stride-long rows of a zero buffer and keeps a copy of the ``l_ext``
    samples after them; a second pass adds those tails into the head of
    the next row.  So every sample is ``0.0 + x`` or ``(0.0 + x) + y``,
    as with one add per symbol, whatever the chunks.
    """
    stride = params.stride
    buf = np.zeros((n_sym + 1) * stride, dtype=np.complex128)
    rows = buf.reshape(n_sym + 1, stride)
    tails = np.empty((n_sym, params.l_ext), dtype=np.complex128)

    def shape(sl: slice) -> None:
        windowed = wola_symbol(body_rows(sl), params)
        rows[sl] += windowed[:, :stride]
        tails[sl] = windowed[:, stride:]

    def overlap(sl: slice) -> None:
        rows[sl.start + 1: sl.stop + 1, :params.l_ext] += tails[sl]

    with chunk_map(threads) as pmap:
        pmap(shape, stage_chunks(n_sym, params.window_len))
        pmap(overlap, stage_chunks(n_sym, params.l_ext))
    return buf[params.l_ext // 2: n_sym * stride + params.l_ext]


def modulate_wola(grid: ResourceGrid, dims: DerivedDims,
                  extension_factor: float, *,
                  threads: int = 1) -> ComplexSignal:
    """WOLA-shaped oversampled waveform of one BWP.

    Shaping happens at baseband and the assembled stream is upconverted by
    the BWP's continuous carrier afterwards; since windowing is pointwise
    and the cyclic extensions of neighbouring symbols overlap at identical
    absolute times, this equals upconverting each extended symbol first.
    Each chunk of symbols is synthesized from the grid, transformed and
    windowed on its own (``wola_assemble``), and the carrier multiply runs
    in fixed chunks of samples, all on ``threads`` worker threads; each
    chunk's carrier is sampled at the same absolute indexes as the whole
    stream's.
    """
    bd = dims.bwps[grid.bwp_index]
    params = WolaParams.from_dims(bd, extension_factor)

    def body_rows(sl: slice) -> np.ndarray:
        return idft(grid_to_spectrum(grid, dims, symbols=sl).T)

    flat = wola_assemble(body_rows, grid.num_symbols, params, threads=threads)

    def upconvert(sl: slice) -> None:
        flat[sl] *= subband_carrier(bd, bd.l_ofdm_os, sl.start,
                                    sl.stop - sl.start)

    with chunk_map(threads) as pmap:
        pmap(upconvert, stage_chunks(flat.size))
    return ComplexSignal(samples=flat, sample_rate_hz=dims.fs_oversampled_hz)


def aggregate(signals: list[ComplexSignal]) -> ComplexSignal:
    """Element-wise sum of per-BWP streams, zero-padded to equal length.

    The streams share one sample rate.  The sum is taken in the longest
    stream's own buffer, which the result takes over; the other streams
    are added to it in list order.
    """
    longest = max(signals, key=len)
    out = longest.samples
    for s in signals:
        if s is not longest:
            out[:len(s)] += s.samples
    return ComplexSignal(samples=out, sample_rate_hz=longest.sample_rate_hz)
