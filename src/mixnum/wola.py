"""Windowed overlap-add (WOLA) symbol shaping and multi-BWP aggregation.

Each CP-OFDM symbol is cyclically extended beyond its CP+body stride and
shaped with a raised-cosine window whose ramps overlap the neighbouring
symbols' ramps exactly; overlapping ramp weights sum to one, so the flat
part of every symbol is transmitted untouched while symbol transitions are
smoothed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, pmap, stage_chunks,
                   symbol_bodies)
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
    row.  A window of ones is skipped (``wola_add``'s +0.0 start hides it).
    """
    half = params.l_ext // 2
    ext = np.concatenate([body[..., params.l_ofdm - params.l_cp - half:],
                          body, body[..., :half]], axis=-1)
    if params.l_ext:
        ext *= build_rc_window(params)
    return ext


def wola_add(out: np.ndarray, body_rows: Callable[[slice], np.ndarray],
             n_sym: int, params: WolaParams, *, threads: int = 1) -> None:
    """Overlap-add ``n_sym`` windowed symbols onto ``out[:S*stride + l_ext/2]``.

    ``body_rows(sl)`` returns the (n, L) bodies of symbols ``sl``; it is
    called once per fixed chunk of symbols, on ``threads`` worker threads,
    so no batch of all bodies exists.  Windowed symbols are placed at the
    CP-OFDM stride; the half-extension lead-in of the first symbol (which
    would sit before time zero) is dropped so sample 0 is the nominal
    start of symbol 0 in every BWP and multi-BWP sums stay time aligned.

    Since ``l_ext <= l_cp``, a window overlaps only its successor, in the
    first ``l_ext`` samples of the successor's stride (its head).  Each
    stream sample is built on its own, ``x`` or in a head ``x + y`` (its
    own window, then the predecessor's tail), and added to ``out`` once.
    A chunk adds every sample of its span: its rows, whose last ends in
    the head of the symbol after the chunk (windowed too, if ``l_ext``) or
    in the stream's last tail, and in the first chunk ``out[:l_ext/2]``.
    An ``out`` that starts at +0.0 never holds -0.0 (a sum is -0.0 only
    when both terms are), so it gets the bits of adding ``0.0 + x`` or
    ``(0.0 + x) + y``, whatever the chunks.
    """
    stride, l_ext, half = params.stride, params.l_ext, params.l_ext // 2

    def shape(sl: slice) -> None:
        n = sl.stop - sl.start
        more = int(l_ext > 0 and sl.stop < n_sym)
        windowed = wola_symbol(body_rows(slice(sl.start, sl.stop + more)), params)
        # Row r: symbol r's samples after its head, then symbol r+1's head
        # plus symbol r's tail (the stream's last tail alone).
        rows = out[sl.start * stride + half: sl.stop * stride + half]
        rows = rows.reshape(-1, stride)
        rows[:, :stride - l_ext] += windowed[:n, l_ext:stride]
        seams = windowed[:n, stride:]
        seams[:n + more - 1] += windowed[1:, :l_ext]
        rows[:, stride - l_ext:] += seams
        if sl.start == 0:
            out[:half] += windowed[0, half:l_ext]

    pmap(shape, stage_chunks(n_sym, params.window_len), threads)


def modulate_composite(grids: list[ResourceGrid], dims: DerivedDims,
                       extension_factor: float, *,
                       threads: int = 1) -> ComplexSignal:
    """Sum of the BWPs' WOLA-shaped streams, built in one buffer.

    The buffer is as long as the longest stream.  That BWP is added first
    and the others follow in list order, each one chunk of symbols at a
    time (``wola_add``), so the sum has ``aggregate``'s bits and no second
    full-length stream exists.  Each BWP's symbol bodies come at its
    carrier (``symbol_bodies``), so this equals shaping at baseband and
    mixing each stream by its carrier.
    """
    params = [WolaParams.from_dims(dims.bwps[g.bwp_index], extension_factor)
              for g in grids]
    lengths = [g.num_symbols * p.stride + p.l_ext // 2
               for g, p in zip(grids, params)]
    first = lengths.index(max(lengths))
    out = np.zeros(lengths[first], dtype=np.complex128)
    for m in [first] + [m for m in range(len(grids)) if m != first]:
        wola_add(out, partial(symbol_bodies, grids[m], dims),
                 grids[m].num_symbols, params[m], threads=threads)
    return ComplexSignal(samples=out, sample_rate_hz=dims.fs_oversampled_hz)


def modulate_wola(grid: ResourceGrid, dims: DerivedDims,
                  extension_factor: float) -> ComplexSignal:
    """WOLA-shaped oversampled waveform of one BWP."""
    return modulate_composite([grid], dims, extension_factor)


def aggregate(signals: list[ComplexSignal]) -> ComplexSignal:
    """Element-wise sum of per-BWP streams, zero-padded to equal length.

    The streams share one sample rate.  The sum is taken in the longest
    stream's own buffer, which the result takes over; the other streams
    are added to it in list order.  No runner calls it: it is the
    reference that ``modulate_composite`` equals, over ``modulate_wola``
    streams.
    """
    longest = max(signals, key=len)
    out = longest.samples
    for s in signals:
        if s is not longest:
            out[:len(s)] += s.samples
    return ComplexSignal(samples=out, sample_rate_hz=longest.sample_rate_hz)
