"""Clip-and-filter PAPR reduction embedded inside the fast-convolution bank.

Each combined frequency-domain block is clipped in time against an
amplitude ceiling; the clipping noise is transformed, weighted by the
subband windows' own gains (unity on the allocations, the raised-cosine
ramp on the transition bins) and added to the block spectrum, so the
noise is filtered exactly like the signal.  Only the bins the windows
reach (K_E) are stored and edited; every other bin stays exactly zero,
so spectral containment holds by construction.  The full-signal runner
shares one ceiling across all blocks, re-referenced every round to the
mean power of the current output samples, which pins the achieved
peak-to-average ratio to the commanded target whenever that target is
below the unprocessed composite's own; blocks can be processed in any
order or in parallel without changing the result.
"""

from __future__ import annotations

import numpy as np

from .fc import FcWindow, filter_bank
from .icef import clip_in_place
from .ofdm import (ComplexSignal, ResourceGrid, bin_runs, dft, idft, pmap,
                   stage_chunks)
from .scenario import DerivedDims, ScenarioSpec


def window_weights(windows: list[FcWindow], n: int) -> np.ndarray:
    """Subband window gains on the output bins, in standard DFT order.

    Each window's gains land on the bins its subband is mapped to:
    unity on the passband, the raised-cosine ramp (never zero) on the
    transition bins, zero everywhere else; the nonzero bins are K_E.  A
    later window overwrites an earlier one where their transitions meet.
    """
    weights = np.zeros(n)
    for w in windows:
        for cols, bins in bin_runs(w.center_bin - w.half, w.gains.size, n):
            weights[bins] = w.gains[cols]
    return weights


def _support_runs(weights: np.ndarray) -> list[tuple[slice, slice]]:
    """(columns, bins) slice pairs of K_E's contiguous runs; the columns
    number the nonzero bins of ``weights`` in ascending order."""
    edges = np.flatnonzero(np.diff(weights != 0, prepend=False, append=False))
    runs, col = [], 0
    for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()):
        runs.append((slice(col, col + b - a), slice(a, b)))
        col += b - a
    return runs


def _expand(compact: np.ndarray, runs: list[tuple[slice, slice]],
            out: np.ndarray) -> np.ndarray:
    """Write compact K_E rows onto their bins of ``out`` (zeroed full rows)."""
    for cols, bins in runs:
        out[:, bins] = compact[:, cols]
    return out


def run_fc_icef(spec: ScenarioSpec, dims: DerivedDims,
                grids: list[ResourceGrid], *,
                info: dict | None = None, threads: int = 1) -> ComplexSignal:
    """Filtered multi-subband waveform with in-bank PAPR reduction.

    A single amplitude ceiling is shared by every block.  All blocks
    advance in lock step: each round the ceiling is re-referenced to the
    mean power of the whole signal's current kept samples, blocks whose
    peak still exceeds it are clipped and re-filtered, and the rest are
    left untouched (they re-enter if the shared ceiling later drops
    below their peak).  A clipped block's noise, ``dft(clip(v_t) - v_t)``,
    is scaled by the subband window weights on K_E before it is added,
    so it sees the filter's raised-cosine transitions rather than a
    brick wall, whose long time response overlap-save would truncate
    into adjacent-channel leakage.

    The filter bank writes nothing off K_E, the union of the window
    supports, and neither does the noise, so each block's spectrum is
    kept as a compact row of its K_E bins only, next to the full (B, N)
    time blocks; a block is expanded onto a zeroed row just before its
    inverse transform.  Synthesis and every round run in fixed chunks of
    whole rows whose content does not depend on ``threads``; each block's
    energy is a sum along its own contiguous row, so the output is
    byte-identical for any thread count and chunk size.  With
    ``info["keep_spectra"]`` the clean and processed spectra are returned
    expanded, as (B, N).
    """
    windows, n_blocks, step = filter_bank(dims, grids)
    n, keep, keep_slice = dims.fc.inverse_len, dims.fc.keep_len, dims.fc.keep_slice
    weights = window_weights(windows, n)
    runs = _support_runs(weights)
    h_w = weights[weights != 0]

    cur = np.empty((n_blocks, h_w.size), dtype=np.complex128)
    blocks = np.empty((n_blocks, n), dtype=np.complex128)
    peaks = np.empty(n_blocks)
    energies = np.empty(n_blocks)

    def store(rows: slice | np.ndarray, fresh: np.ndarray) -> None:
        """Keep time blocks ``rows`` with their peaks and kept energies."""
        blocks[rows] = fresh
        mag = np.abs(fresh)
        peaks[rows] = np.max(mag, axis=1) ** 2
        energies[rows] = np.sum(mag[:, keep_slice] ** 2, axis=1)

    def synthesize(sl: slice) -> None:
        spectra, fresh = step(sl)
        store(sl, fresh)
        for cols, bins in runs:
            cur[sl, cols] = spectra[:, bins]

    def work(rows: np.ndarray) -> None:
        x = blocks[rows]  # then their noise, its spectrum, the new blocks
        clip_in_place(x, np.abs(x), amp, noise=True)
        dft(x, out=x)
        spectra = cur[rows]
        for cols, bins in runs:
            spectra[:, cols] += h_w[cols] * x[:, bins]
        cur[rows] = spectra
        x.fill(0)
        store(rows, idft(_expand(spectra, runs, x), out=x))

    keep_spectra = bool(info.get("keep_spectra")) if info is not None else False
    iters = np.zeros(n_blocks, dtype=np.int64)
    total_kept = float(keep) * n_blocks
    tau = 10.0 ** (spec.papr_target_db / 10.0)
    stop = 10.0 ** (spec.stop_epsilon_db / 10.0)
    pmap(synthesize, stage_chunks(n_blocks, n), threads)
    v_f_orig = cur.copy() if keep_spectra else None
    amp = amp0 = float(np.sqrt(energies.sum() / total_kept * tau))
    for _ in range(spec.max_iterations):
        amp = float(np.sqrt(energies.sum() / total_kept * tau))
        active = np.flatnonzero(peaks > amp ** 2 * stop)
        if active.size == 0:
            break
        iters[active] += 1
        pmap(work, [active[sl] for sl in stage_chunks(active.size, n)], threads)

    if info is not None:
        info["iterations"] = iters
        info["threshold_amp"] = amp0
        info["final_amp"] = amp
        info["windows"] = windows
        if keep_spectra:
            for key, compact in (("v_f_orig", v_f_orig), ("v_f_proc", cur)):
                full = np.zeros((n_blocks, n), dtype=np.complex128)
                info[key] = _expand(compact, runs, full)
    # Overlap-save in place, in block order (onto earlier rows only).
    for sl in stage_chunks(n_blocks, n):
        blocks.reshape(-1)[sl.start * keep: sl.stop * keep] = (
            blocks[sl, keep_slice].reshape(-1))
    bd = dims.bwps[0]
    try:
        blocks.resize(bd.num_symbols * bd.stride_os)
    except ValueError:  # a profiler or tracer also holds the store
        blocks = blocks.reshape(-1)[: bd.num_symbols * bd.stride_os].copy()
    return ComplexSignal(samples=blocks, sample_rate_hz=dims.fs_oversampled_hz)
