"""Iterative clipping with frequency-confined error filtering.

Two flavours operate on WOLA-shaped CP-OFDM bandwidth parts:

* the subband-independent variant processes every BWP in isolation —
  cheap, but peaks recombine when the subband streams are summed;
* the aggregate-aware variant clips the full composite and, per subband
  and symbol, removes an explicit estimate of the other subbands'
  contribution (the inter-numerology interference seen through that
  subband's receiver window) before extracting the clipping noise, so the
  noise added to each grid tracks the composite peaks.

In both cases the clipping noise is confined to each BWP's own active
subcarriers; nothing is ever written outside the allocation.
"""

from __future__ import annotations

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, dft, grid_to_spectrum, idft,
                   ofdm_demodulate, ofdm_modulate)
from .scenario import DerivedDims, ScenarioSpec, derive_dims
from . import ofdm, wola


def clip_polar(x: np.ndarray, threshold_amp) -> np.ndarray:
    """Magnitude-limit samples to ``threshold_amp`` preserving their phase.

    The ceiling may be a scalar or anything broadcastable against ``x``
    (e.g. one ceiling per column); samples at or below it pass through
    bit-exactly.
    """
    mag = np.abs(x)
    scale = np.minimum(1.0, np.asarray(threshold_amp)
                       / np.maximum(mag, 1e-300))
    return x * scale


def run_i_icef(spec: ScenarioSpec, dims: DerivedDims | None = None,
               grids: list[ResourceGrid] | None = None, *,
               info: dict | None = None) -> ComplexSignal:
    """Subband-independent clipping: each BWP reduced against its own power.

    Every symbol of every BWP runs the clip/filter kernel with a ceiling
    referenced to that symbol's own current mean power, then the shaped
    subband streams are aggregated.  Each round the symbol's accumulated
    noise (current minus reference values on the active subcarriers) is
    scaled down, when needed, so its power stays within the squared EVM
    limit of the BWP's modulation times the symbol's payload power.
    Other subbands are never consulted, so summing the streams recombines
    their residual peaks.
    """
    dims = dims or derive_dims(spec)
    grids = grids or [ofdm.generate_grid(dims, m, spec.seed) for m in range(dims.num_bwps)]
    shaped = []
    all_iters: list[np.ndarray] = []
    out_grids = []
    tau = 10.0 ** (spec.papr_target_db / 10.0)
    stop = 10.0 ** (spec.stop_epsilon_db / 10.0)
    for m, grid in enumerate(grids):
        bd = dims.bwps[m]
        l = bd.l_ofdm_os
        rows = np.mod(bd.active_base, l)
        # One row per symbol: (S, K) values, (S, L) spectra and bodies.
        vals_orig = grid.values.T
        vals_cur = vals_orig.copy()
        budget = (ofdm.evm_limit(bd.modulation) ** 2
                  * np.sum(np.abs(grid.values) ** 2, axis=0))
        bodies = idft(grid_to_spectrum(grid, dims, at_baseband=True).T)
        iters = np.zeros(bd.num_symbols, dtype=np.int64)
        power = np.abs(bodies) ** 2
        # The initial mean power and the noise power are summed down the
        # columns of a transposed copy: a column sum adds one element at a
        # time, which a row reduction (pairwise) would not reproduce.
        amps = np.sqrt(np.mean(power.T.copy(), axis=0) * tau)
        peaks = np.max(power, axis=1)
        del power
        active = np.flatnonzero(peaks > amps ** 2 * stop)
        # Only the active symbols' bodies are needed from here on.
        bodies = bodies[active]
        for _ in range(spec.max_iterations):
            if active.size == 0:
                break
            iters[active] += 1
            clipped_f = dft(clip_polar(bodies, amps[active, None]))
            noise = clipped_f[:, rows] - vals_orig[active]
            noise_pow = np.sum((np.abs(noise) ** 2).T.copy(), axis=0)
            noise *= np.sqrt(np.minimum(
                1.0, budget[active] / np.maximum(noise_pow, 1e-300)))[:, None]
            vals_cur[active] = vals = vals_orig[active] + noise
            spec_active = np.zeros((active.size, l), dtype=np.complex128)
            spec_active[:, rows] = vals
            bodies = idft(spec_active)
            amps[active] = np.sqrt(np.mean(np.abs(bodies) ** 2, axis=1) * tau)
            keep = np.max(np.abs(bodies) ** 2, axis=1) > amps[active] ** 2 * stop
            active, bodies = active[keep], bodies[keep]
        out_grids.append(ResourceGrid(bwp_index=m, values=vals_cur.T))
        all_iters.append(iters)
        shaped.append(wola.modulate_wola(out_grids[-1], dims,
                                         spec.wola_extension_factor))
    if info is not None:
        info["iterations"] = np.concatenate(all_iters)
        info["grids"] = out_grids
    return wola.aggregate(shaped)


def run_e_icef(spec: ScenarioSpec, dims: DerivedDims | None = None,
               grids: list[ResourceGrid] | None = None, *,
               info: dict | None = None, cancel_ini: bool = True) -> ComplexSignal:
    """Aggregate clipping with per-subband interference cancellation.

    Per iteration: the plain-CP composite is clipped to the target ratio
    over its current mean power; per (subband, symbol) the clipped
    composite is observed through the subband's CP-stripped DFT window
    (``ofdm_demodulate``); subtracting the subband's own payload and the
    current inter-numerology interference estimate isolates the clipping
    noise, which is confined to the active bins and folded back into the
    grid.  The subband streams are then regenerated (``ofdm_modulate`` at
    baseband, times the subband's carrier, which is computed once per call)
    and the interference estimates refreshed.  The iteration stops early
    once the composite peak-to-average ratio meets the target.

    The shaped output applies the per-BWP WOLA windows to the final grids
    and sums the streams.  ``cancel_ini=False`` disables the interference
    term (for ablation experiments only).
    """
    dims = dims or derive_dims(spec)
    grids = grids or [ofdm.generate_grid(dims, m, spec.seed) for m in range(dims.num_bwps)]
    n_bwp = dims.num_bwps
    vals_orig = [g.values for g in grids]
    out_grids = [ResourceGrid(bwp_index=m, values=vals_orig[m].copy())
                 for m in range(n_bwp)]

    def observe(samples: np.ndarray, m: int) -> np.ndarray:
        sig = ComplexSignal(samples=samples, sample_rate_hz=dims.fs_oversampled_hz)
        return ofdm_demodulate(sig, dims, m).values

    # Each subband's carrier, computed once: a synthesis is the baseband
    # stream times it, in the operand order ``ofdm_modulate`` uses.
    carriers = [ofdm.subband_carrier(bd, bd.l_ofdm_os, 0,
                                     bd.num_symbols * bd.stride_os)
                for bd in dims.bwps]

    def synthesize() -> list[np.ndarray]:
        return [carriers[m] * ofdm_modulate(g, dims, at_baseband=True).samples
                for m, g in enumerate(out_grids)]

    streams = synthesize()
    composite = np.sum(streams, axis=0)

    target_lin = 10.0 ** (spec.papr_target_db / 10.0)
    stop_lin = target_lin * 10.0 ** (spec.stop_epsilon_db / 10.0)

    def ini(m: int) -> np.ndarray:
        if not cancel_ini or n_bwp == 1:
            return np.zeros_like(vals_orig[m])
        return observe(composite - streams[m], m)

    z = [ini(m) for m in range(n_bwp)]

    def composite_papr() -> float:
        return float(np.max(np.abs(composite) ** 2)
                     / np.mean(np.abs(composite) ** 2))

    iterations = 0
    papr = composite_papr()
    # trace[k] is the aggregate peak-to-average ratio after k iterations
    peak_trace = [10.0 * np.log10(papr)]
    while iterations < spec.max_iterations and papr > stop_lin:
        iterations += 1
        a = float(np.sqrt(np.mean(np.abs(composite) ** 2) * target_lin))
        clipped = clip_polar(composite, a)
        for m in range(n_bwp):
            noise = observe(clipped, m) - vals_orig[m] - z[m]
            out_grids[m] = ResourceGrid(bwp_index=m, values=vals_orig[m] + noise)
        streams = synthesize()
        composite = np.sum(streams, axis=0)
        z = [ini(m) for m in range(n_bwp)]
        papr = composite_papr()
        peak_trace.append(10.0 * np.log10(papr))

    if info is not None:
        info["iterations"] = iterations
        info["peak_trace_db"] = peak_trace
        info["grids"] = out_grids
    shaped = [wola.modulate_wola(g, dims, spec.wola_extension_factor)
              for g in out_grids]
    return wola.aggregate(shaped)


def run_none(spec: ScenarioSpec, dims: DerivedDims | None = None,
             grids: list[ResourceGrid] | None = None, *,
             info: dict | None = None) -> ComplexSignal:
    """Plain aggregated CP-OFDM + WOLA composite without PAPR processing."""
    dims = dims or derive_dims(spec)
    grids = grids or [ofdm.generate_grid(dims, m, spec.seed) for m in range(dims.num_bwps)]
    if info is not None:
        info["iterations"] = 0
    return wola.aggregate([
        wola.modulate_wola(g, dims, spec.wola_extension_factor) for g in grids
    ])
