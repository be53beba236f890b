"""Iterative clipping with frequency-confined error filtering.

Two flavours operate on WOLA-shaped CP-OFDM bandwidth parts:

* the subband-independent variant processes every BWP in isolation —
  cheap, but peaks recombine when the subband streams are summed;
* the aggregate-aware variant clips the full composite and observes the
  clipping noise through each subband's receiver window, which leaves
  the other subbands' contribution (the inter-numerology interference)
  out of the noise, so the noise added to each grid tracks the composite
  peaks.

In both cases the clipping noise is confined to each BWP's own active
subcarriers; nothing is ever written outside the allocation.
"""

from __future__ import annotations

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, chunk_map, dft,
                   grid_to_spectrum, idft, ofdm_demodulate, ofdm_modulate)
from .scenario import DerivedDims, ScenarioSpec
from . import ofdm, wola


def clip_polar(x: np.ndarray, threshold_amp, mag=None) -> np.ndarray:
    """Magnitude-limit samples to ``threshold_amp`` preserving their phase.

    The ceiling may be a scalar or anything broadcastable against ``x``
    (e.g. one ceiling per column); samples at or below it pass through
    bit-exactly.  ``mag`` is ``np.abs(x)`` when the caller already has it.
    """
    mag = np.abs(x) if mag is None else mag
    scale = np.minimum(1.0, np.asarray(threshold_amp)
                       / np.maximum(mag, 1e-300))
    return x * scale


# I_ICEF's unit of work: whole symbols, about this many body samples.
_CHUNK_SAMPLES = 1 << 16


def _row_chunks(n: int, size: int) -> list[slice]:
    """Slices of ``n`` rows, ``size`` (at least 2) each but the last.

    A remainder of one row joins the slice before it: numpy sums a single
    column pairwise but several columns one element at a time, so a lone
    row would change the noise power of a symbol that shares its round
    with others.
    """
    bounds = list(range(0, n, size))
    if n > 1 and n % size == 1:
        bounds.pop()
    return [slice(a, b) for a, b in zip(bounds, bounds[1:] + [n])]


def run_i_icef(spec: ScenarioSpec, dims: DerivedDims,
               grids: list[ResourceGrid], *,
               info: dict | None = None, threads: int = 1) -> ComplexSignal:
    """Subband-independent clipping: each BWP reduced against its own power.

    Every symbol of every BWP runs the clip/filter kernel with a ceiling
    referenced to that symbol's own current mean power, then the shaped
    subband streams are aggregated.  Each round the symbol's accumulated
    noise (current minus reference values on the active subcarriers) is
    scaled down, when needed, so its power stays within the squared EVM
    limit of the BWP's modulation times the symbol's payload power.
    Other subbands are never consulted, so summing the streams recombines
    their residual peaks.

    Each round splits the active symbols into fixed chunks of rows whose
    content does not depend on ``threads`` and runs them on that many
    worker threads; every symbol's arithmetic is the same in any chunk,
    so the output is byte-identical for any thread count.
    """
    all_iters: list[np.ndarray] = []
    out_grids = []
    tau = 10.0 ** (spec.papr_target_db / 10.0)
    stop = 10.0 ** (spec.stop_epsilon_db / 10.0)
    with chunk_map(threads) as pmap:
        for m, grid in enumerate(grids):
            bd = dims.bwps[m]
            l = bd.l_ofdm_os
            rows = np.mod(bd.active_base, l)
            # One row per symbol: (S, K) values, (S, L) spectra and bodies.
            vals_orig = grid.values.T
            vals_cur = vals_orig.copy()
            budget = (ofdm.evm_limit(bd.modulation) ** 2
                      * np.sum(np.abs(grid.values) ** 2, axis=0))
            bodies = idft(grid_to_spectrum(grid, dims).T)
            iters = np.zeros(bd.num_symbols, dtype=np.int64)
            power = np.abs(bodies) ** 2
            # The initial mean power and the noise power are summed down the
            # columns of a transposed copy: a column sum adds one element at
            # a time, which a row reduction (pairwise) would not reproduce.
            amps = np.sqrt(np.mean(power.T.copy(), axis=0) * tau)
            peaks = np.max(power, axis=1)
            del power
            active = np.flatnonzero(peaks > amps ** 2 * stop)
            # Only the active symbols' bodies are needed from here on.
            bodies = bodies[active]

            def clip_rows(sl: slice) -> np.ndarray:
                """One round on active rows ``sl``; which of them stay active."""
                idx = active[sl]
                clipped_f = dft(clip_polar(bodies[sl], amps[idx, None]))
                noise = clipped_f[:, rows] - vals_orig[idx]
                noise_pow = np.sum((np.abs(noise) ** 2).T.copy(), axis=0)
                noise *= np.sqrt(np.minimum(
                    1.0, budget[idx] / np.maximum(noise_pow, 1e-300)))[:, None]
                vals_cur[idx] = vals = vals_orig[idx] + noise
                spec_rows = np.zeros((idx.size, l), dtype=np.complex128)
                spec_rows[:, rows] = vals
                bodies[sl] = fresh = idft(spec_rows)
                power = np.abs(fresh) ** 2
                amps[idx] = np.sqrt(np.mean(power, axis=1) * tau)
                return np.max(power, axis=1) > amps[idx] ** 2 * stop

            size = max(2, _CHUNK_SAMPLES // l)
            for _ in range(spec.max_iterations):
                if active.size == 0:
                    break
                iters[active] += 1
                keep = np.concatenate(
                    pmap(clip_rows, _row_chunks(active.size, size)))
                active, bodies = active[keep], bodies[keep]
            out_grids.append(ResourceGrid(bwp_index=m, values=vals_cur.T))
            all_iters.append(iters)
    if info is not None:
        info["iterations"] = np.concatenate(all_iters)
        info["grids"] = out_grids
    return run_none(spec, dims, out_grids, threads=threads)


def run_e_icef(spec: ScenarioSpec, dims: DerivedDims,
               grids: list[ResourceGrid], *,
               info: dict | None = None, threads: int = 1,
               cancel_ini: bool = True) -> ComplexSignal:
    """Aggregate clipping with per-subband interference cancellation.

    Per round the plain-CP composite ``c`` is clipped to the target ratio
    over its current mean power, and each subband observes the clipping
    noise ``clip(c) - c`` through its CP-stripped DFT window
    (``ofdm_demodulate``) and adds it to its grid, so the noise lands on
    the subband's active bins only.  A subband's own stream demodulates to
    its own grid, so this equals observing the clipped composite and
    subtracting both the payload and the inter-numerology interference
    (the other subbands' streams seen through the window), with one
    observation per subband and round instead of three; the two forms
    agree to rounding.  Each subband is then resynthesized
    (``ofdm_modulate`` at baseband, times the subband's carrier, which is
    computed once per call).  The iteration stops early once the
    composite peak-to-average ratio meets the target.

    Each subband's observe-and-resynthesize step is one task on
    ``threads`` worker threads, and the composite is summed in subband
    order, so the output is byte-identical for any thread count.  The
    output is ``run_none`` of the final grids.  ``cancel_ini=False``
    (ablation experiments only) sets each grid to its observation of the
    clipped composite, so the other subbands' interference is folded in as
    if it were clipping noise.
    """
    n_bwp = dims.num_bwps
    vals = [g.values.copy() for g in grids]
    # With one subband there is no interference to leave in.
    ablate = not cancel_ini and n_bwp > 1

    def observe(samples: np.ndarray, m: int) -> np.ndarray:
        sig = ComplexSignal(samples=samples, sample_rate_hz=dims.fs_oversampled_hz)
        return ofdm_demodulate(sig, dims, m).values

    # Each subband's carrier, computed once: a synthesis is the baseband
    # stream times it, in the operand order ``ofdm_modulate`` uses.
    carriers = [ofdm.subband_carrier(bd, bd.l_ofdm_os, 0,
                                     bd.num_symbols * bd.stride_os)
                for bd in dims.bwps]

    def synthesize(m: int) -> np.ndarray:
        grid = ResourceGrid(bwp_index=m, values=vals[m])
        return carriers[m] * ofdm_modulate(grid, dims, at_baseband=True).samples

    def update(m: int, heard: np.ndarray) -> np.ndarray:
        seen = observe(heard, m)
        vals[m] = seen if ablate else vals[m] + seen
        return synthesize(m)

    target_lin = 10.0 ** (spec.papr_target_db / 10.0)
    stop_lin = target_lin * 10.0 ** (spec.stop_epsilon_db / 10.0)
    iterations = 0
    # peak_trace[k] is the aggregate peak-to-average ratio after k rounds
    peak_trace: list[float] = []
    with chunk_map(threads) as pmap:

        def compose(step) -> np.ndarray:
            streams = pmap(step, range(n_bwp))
            composite = streams[0]
            for stream in streams[1:]:
                composite += stream
            return composite

        composite = compose(synthesize)
        while True:
            mag = np.abs(composite)
            power = mag ** 2
            mean = np.mean(power)
            papr = float(np.max(power) / mean)
            peak_trace.append(10.0 * np.log10(papr))
            del power
            if iterations >= spec.max_iterations or papr <= stop_lin:
                break
            iterations += 1
            heard = clip_polar(composite, float(np.sqrt(mean * target_lin)), mag)
            if not ablate:
                heard -= composite
            del composite, mag
            composite = compose(lambda m: update(m, heard))
    del composite, mag
    out_grids = [ResourceGrid(bwp_index=m, values=v) for m, v in enumerate(vals)]
    if info is not None:
        info["iterations"] = iterations
        info["peak_trace_db"] = peak_trace
        info["grids"] = out_grids
    return run_none(spec, dims, out_grids, threads=threads)


def run_none(spec: ScenarioSpec, dims: DerivedDims,
             grids: list[ResourceGrid], *,
             info: dict | None = None, threads: int = 1) -> ComplexSignal:
    """Plain aggregated CP-OFDM + WOLA composite without PAPR processing.

    Both clipping runners shape and sum their processed grids here.
    ``threads`` worker threads run WOLA synthesis; the output does not
    depend on it.
    """
    if info is not None:
        info["iterations"] = 0
    return wola.aggregate([
        wola.modulate_wola(g, dims, spec.wola_extension_factor, threads=threads)
        for g in grids
    ])
