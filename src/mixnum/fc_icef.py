"""Clip-and-filter PAPR reduction embedded inside the fast-convolution bank.

Each combined frequency-domain block is clipped in time against an
amplitude ceiling; the clipping noise is transformed, weighted by the
subband windows' own gains (unity on the allocations, the raised-cosine
ramp on the transition bins) and added to the block spectrum, so the
noise is filtered exactly like the signal.  Out-of-window bins always
retain their original values, so spectral containment is preserved
bit-exactly.  The full-signal driver shares one ceiling across all
blocks, re-referenced every round to the mean power of the current
output samples, which pins the achieved peak-to-average ratio to the
commanded target whenever that target is below the unprocessed
composite's own; blocks can be processed in any order or in parallel
without changing the result.
"""

from __future__ import annotations

import numpy as np

from .fc import FcWindow, fc_subband_spectra, ols_extract
from .icef import clip_polar
from .ofdm import ComplexSignal, ResourceGrid, bin_runs, chunk_map, dft, idft
from .scenario import DerivedDims, ScenarioSpec

# FC_ICEF's unit of work: this many block rows of an active set.
_CHUNK_ROWS = 64


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
    into adjacent-channel leakage.  Blocks are rows of C-ordered (B, N)
    spectra and time samples.  Work inside a round is split into fixed
    chunks of whole rows whose content does not depend on ``threads``,
    and the power reduction is a single ordered sum, so the output is
    byte-identical for any thread count.
    """
    cur, blocks, windows = fc_subband_spectra(dims, grids, threads=threads)
    n_blocks, n = cur.shape
    keep = dims.fc.keep_len
    discard = (n - keep) // 2
    keep_slice = slice(discard, discard + keep)

    weights = window_weights(windows, n)
    h_idx = np.flatnonzero(weights)
    h_w = weights[h_idx]
    keep_spectra = bool(info.get("keep_spectra")) if info is not None else False
    v_f_orig = cur.copy() if keep_spectra else None

    mag = np.abs(blocks)
    peaks = np.max(mag, axis=1) ** 2
    # Summed one element at a time down a transposed copy's columns, as the
    # block-per-column loop did; its in-loop energies were row sums (pairwise).
    energies = np.sum((mag[:, keep_slice] ** 2).T.copy(), axis=0)
    del mag
    iters = np.zeros(n_blocks, dtype=np.int64)
    total_kept = float(keep) * n_blocks
    tau = 10.0 ** (spec.papr_target_db / 10.0)
    stop = 10.0 ** (spec.stop_epsilon_db / 10.0)
    amp = float(np.sqrt(energies.sum() / total_kept * tau))
    amp0 = amp

    def work(rows: np.ndarray) -> None:
        x = blocks[rows]
        spectra = cur[rows]
        spectra[:, h_idx] += h_w * dft(clip_polar(x, amp) - x)[:, h_idx]
        cur[rows] = spectra
        blocks[rows] = fresh = idft(spectra)
        mag = np.abs(fresh)
        peaks[rows] = np.max(mag, axis=1) ** 2
        energies[rows] = np.sum(mag[:, keep_slice] ** 2, axis=1)

    with chunk_map(threads) as pmap:
        for _ in range(spec.max_iterations):
            amp = float(np.sqrt(energies.sum() / total_kept * tau))
            active = np.flatnonzero(peaks > amp ** 2 * stop)
            if active.size == 0:
                break
            iters[active] += 1
            pmap(work, [active[c: c + _CHUNK_ROWS]
                        for c in range(0, active.size, _CHUNK_ROWS)])

    if info is not None:
        info["iterations"] = iters
        info["threshold_amp"] = amp0
        info["final_amp"] = amp
        info["windows"] = windows
        if keep_spectra:
            info["v_f_orig"] = v_f_orig.T
            info["v_f_proc"] = cur.T
    bd = dims.bwps[0]
    samples = ols_extract(blocks, dims.fc, bd.num_symbols * bd.stride_os)
    return ComplexSignal(samples=samples, sample_rate_hz=dims.fs_oversampled_hz)
