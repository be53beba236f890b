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

from .fc import FcWindow, fc_subband_spectra
from .icef import chunk_map, clip_polar
from .ofdm import ComplexSignal, ResourceGrid, dft, idft
from .scenario import DerivedDims, ScenarioSpec, derive_dims
from . import ofdm


def window_weights(windows: list[FcWindow], n: int) -> np.ndarray:
    """Subband window gains on the output bins, in standard DFT order.

    Each window's weights land on the bins its subband is mapped to:
    unity on the passband, the raised-cosine ramp (never zero) on the
    transition bins, zero everywhere else; the nonzero bins are K_E.
    """
    weights = np.zeros(n)
    for w in windows:
        signed = np.concatenate([w.passband, w.transition])
        l = w.weights.size
        weights[np.mod(w.center_bin + signed, n)] = w.weights[l // 2 + signed]
    return weights


def run_fc_icef(spec: ScenarioSpec, dims: DerivedDims | None = None,
                grids: list[ResourceGrid] | None = None, *,
                info: dict | None = None, threads: int = 1,
                chunk_size: int = 64) -> ComplexSignal:
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
    into adjacent-channel leakage.  Work inside a round is split into
    fixed column chunks whose content does not depend on ``threads``, and
    the power reduction is a single ordered sum, so the output is
    byte-identical for any thread count.
    """
    dims = dims or derive_dims(spec)
    fcd = dims.fc
    if fcd is None:
        raise ValueError("scenario has no fast-convolution geometry")
    grids = grids or [ofdm.generate_grid(dims, m, spec.seed)
                      for m in range(dims.num_bwps)]
    v_f, windows = fc_subband_spectra(dims, grids)
    n, n_blocks = v_f.data.shape
    keep = v_f.step_len
    discard = (n - keep) // 2
    keep_slice = slice(discard, discard + keep)

    weights = window_weights(windows, n)
    h_idx = np.flatnonzero(weights)
    h_w = weights[h_idx, None]
    keep_spectra = bool(info.get("keep_spectra")) if info is not None else False
    v_f_orig = v_f.data.copy() if keep_spectra else None

    cur = v_f.data
    v_t = idft(cur, axis=0)
    peaks = np.max(np.abs(v_t) ** 2, axis=0)
    energies = np.sum(np.abs(v_t[keep_slice, :]) ** 2, axis=0)
    iters = np.zeros(n_blocks, dtype=np.int64)
    total_kept = float(keep) * n_blocks
    tau = 10.0 ** (spec.papr_target_db / 10.0)
    stop = 10.0 ** (spec.stop_epsilon_db / 10.0)
    amp = float(np.sqrt(energies.sum() / total_kept * tau))
    amp0 = amp

    def work(cols: np.ndarray) -> None:
        blocks = v_t[:, cols]
        noise_f = dft(clip_polar(blocks, amp) - blocks, axis=0)[h_idx, :]
        cur[np.ix_(h_idx, cols)] += h_w * noise_f
        fresh = idft(cur[:, cols], axis=0)
        v_t[:, cols] = fresh
        peaks[cols] = np.max(np.abs(fresh) ** 2, axis=0)
        energies[cols] = np.sum(np.abs(fresh[keep_slice, :]) ** 2, axis=0)

    with chunk_map(threads) as pmap:
        for _ in range(spec.max_iterations):
            amp = float(np.sqrt(energies.sum() / total_kept * tau))
            active = np.flatnonzero(peaks > amp ** 2 * stop)
            if active.size == 0:
                break
            iters[active] += 1
            pmap(work, [active[c: c + chunk_size]
                        for c in range(0, active.size, chunk_size)])

    if info is not None:
        info["iterations"] = iters
        info["threshold_amp"] = amp0
        info["final_amp"] = amp
        info["windows"] = windows
        if keep_spectra:
            info["v_f_orig"] = v_f_orig
            info["v_f_proc"] = cur
    out = v_t[keep_slice, :].T.reshape(-1)[: v_f.source_len]
    return ComplexSignal(samples=out, sample_rate_hz=v_f.sample_rate_hz)
