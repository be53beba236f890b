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
subcarriers; nothing is ever written outside the allocation.  Every
time-domain symbol comes from ``ofdm.symbol_bodies`` and every composite
from ``wola.modulate_composite``; the aggregate-aware variant's plain-CP
composite is the WOLA composite at zero extension.
"""

from __future__ import annotations

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, dft, ofdm_demodulate, pmap,
                   stage_chunks, symbol_bodies)
from .scenario import DerivedDims, ScenarioSpec
from . import ofdm, wola


def clip_in_place(x: np.ndarray, mag: np.ndarray, threshold_amp, *,
                  noise: bool = False) -> None:
    """Magnitude-limit the samples of ``x`` (``mag = np.abs(x)``) above the
    positive ``threshold_amp`` (broadcast against ``x``), in place: onto it
    along their phase, or with ``noise`` to ``clip(x) - x`` and the rest to
    +0.0.  Those samples take the operations of ``x * min(1, amp / max(mag,
    1e-300))``, whose scale is below 1 exactly there, so they keep its bits.
    """
    hit = mag > threshold_amp
    old = x[hit]
    clipped = old * (np.broadcast_to(threshold_amp, x.shape)[hit]
                     / np.maximum(mag[hit], 1e-300))
    if noise:
        clipped -= old
        x.fill(0)
    x[hit] = clipped


def run_i_icef(spec: ScenarioSpec, dims: DerivedDims,
               grids: list[ResourceGrid], *,
               info: dict | None = None, threads: int = 1) -> ComplexSignal:
    """Subband-independent clipping: each BWP reduced against its own power.

    Every symbol of every BWP runs the clip/filter kernel with a ceiling
    referenced to that symbol's own current mean power, then the shaped
    subband streams are aggregated.  Between rounds a symbol is only its
    grid values: each round remakes the time body of every symbol still
    active, and a symbol whose peak no longer exceeds its ceiling drops
    out unclipped.  A clipped symbol's accumulated noise (current minus
    reference values on the active subcarriers) is scaled down, when
    needed, so its power stays within the squared EVM limit of the BWP's
    modulation times the symbol's payload power.  Other subbands are
    never consulted, so summing the streams recombines their residual
    peaks.

    Each round splits the active symbols into fixed chunks of rows whose
    content does not depend on ``threads`` and runs them on that many
    worker threads; every per-symbol sum runs along the symbol's own
    contiguous row, so the output is byte-identical for any thread count
    and chunk size.
    """
    done = [_clip_symbols(spec, dims, grid, threads) for grid in grids]
    out_grids = [grid for grid, _ in done]
    if info is not None:
        info["iterations"] = np.concatenate([iters for _, iters in done])
        info["grids"] = out_grids
    return run_none(spec, dims, out_grids, threads=threads)


def _clip_symbols(spec: ScenarioSpec, dims: DerivedDims, grid: ResourceGrid,
                  threads: int) -> tuple[ResourceGrid, np.ndarray]:
    """I_ICEF on one BWP: its processed grid and each symbol's rounds.

    Between rounds a symbol is only its grid row.  Each round runs one
    task per stage chunk of the active rows on ``threads`` worker threads:
    it makes their bodies from the current values, takes each ceiling from
    the body's own mean power, and clips and filters the rows whose peak
    still exceeds it; only those rows stay active.  No body outlives its
    task."""
    bd = dims.bwps[grid.bwp_index]
    l = bd.l_ofdm_os
    rows = np.mod(bd.active_base, l)
    tau = 10.0 ** (spec.papr_target_db / 10.0)
    stop = 10.0 ** (spec.stop_epsilon_db / 10.0)
    vals_orig = grid.values
    vals_cur = vals_orig.copy()
    budget = (ofdm.evm_limit(bd.modulation) ** 2
              * np.sum(np.abs(vals_orig) ** 2, axis=1))
    iters = np.zeros(bd.num_symbols, dtype=np.int64)
    active = np.arange(bd.num_symbols)

    def clip_rows(sl: slice) -> np.ndarray:
        """One round on active rows ``sl``: which of them it clipped."""
        body = symbol_bodies(
            ResourceGrid(bwp_index=grid.bwp_index, values=vals_cur[active[sl]]),
            dims, at_baseband=True)
        mag = np.abs(body)
        amp = np.sqrt(np.mean(mag ** 2, axis=1) * tau)
        over = np.max(mag, axis=1) ** 2 > amp ** 2 * stop
        idx = active[sl][over]
        clip_in_place(body, mag, amp[:, None])
        clipped_f = dft(body[over])
        noise = clipped_f[:, rows] - vals_orig[idx]
        noise_pow = np.sum(np.abs(noise) ** 2, axis=1)
        noise *= np.sqrt(np.minimum(
            1.0, budget[idx] / np.maximum(noise_pow, 1e-300)))[:, None]
        vals_cur[idx] = vals_orig[idx] + noise
        return over

    for _ in range(spec.max_iterations):
        active = active[np.concatenate(
            pmap(clip_rows, stage_chunks(active.size, l), threads))]
        iters[active] += 1
        if active.size == 0:
            break
    return ResourceGrid(bwp_index=grid.bwp_index, values=vals_cur), iters


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
    agree to rounding.  The plain-CP composite is the WOLA composite at
    zero extension (``wola.modulate_composite``).  The clip writes the
    noise over the composite, which nothing reads after it; every subband
    observes that one buffer, freed before the composite is rebuilt from
    the updated grids.  The iteration stops once the ratio meets the target.

    Synthesis and each subband's observation run in fixed chunks of
    symbols on ``threads`` worker threads, and the subbands are summed and
    observed in list order.  The composite's mean power and peak
    (``ofdm.power_stats``, numpy's pairwise order) and the in-place clip
    run in fixed chunks of samples on the same workers, so no full-length
    magnitude or power array exists and the output is byte-identical for
    any thread count.  The output is ``run_none`` of the final grids.
    ``cancel_ini=False`` (ablation experiments only) writes the clipped
    samples instead and sets each grid to its observation of them, so the
    other subbands' interference is folded in as if it were clipping noise.
    """
    cur = [ResourceGrid(bwp_index=m, values=g.values)
           for m, g in enumerate(grids)]
    # With one subband there is no interference to leave in.
    ablate = not cancel_ini and len(cur) > 1
    target_lin = 10.0 ** (spec.papr_target_db / 10.0)
    stop_lin = target_lin * 10.0 ** (spec.stop_epsilon_db / 10.0)
    iterations = 0
    # peak_trace[k] is the aggregate peak-to-average ratio after k rounds
    peak_trace: list[float] = []
    composite = wola.modulate_composite(cur, dims, 0.0, threads=threads)
    while True:
        x = composite.samples
        mean, peak = ofdm.power_stats(x, threads)
        papr = peak / mean
        peak_trace.append(10.0 * np.log10(papr))
        if iterations >= spec.max_iterations or papr <= stop_lin:
            break
        iterations += 1
        amp = float(np.sqrt(mean * target_lin))

        def clip(sl: slice) -> None:
            clip_in_place(x[sl], np.abs(x[sl]), amp, noise=not ablate)

        pmap(clip, stage_chunks(x.size, 1), threads)
        for g in cur:
            seen = ofdm_demodulate(composite, dims, g.bwp_index,
                                   threads=threads).values
            g.values = seen if ablate else g.values + seen
        del composite, x
        composite = wola.modulate_composite(cur, dims, 0.0, threads=threads)
    del composite, x
    if info is not None:
        info["iterations"] = iterations
        info["peak_trace_db"] = peak_trace
        info["grids"] = cur
    return run_none(spec, dims, cur, threads=threads)


def run_none(spec: ScenarioSpec, dims: DerivedDims,
             grids: list[ResourceGrid], *,
             info: dict | None = None, threads: int = 1) -> ComplexSignal:
    """Plain aggregated CP-OFDM + WOLA composite without PAPR processing.

    Both clipping runners shape and sum their processed grids here.  The
    composite is built in one buffer (``wola.modulate_composite``): each
    BWP is added into it one chunk of symbols at a time, so no second
    full-length stream exists.  ``threads`` worker threads run WOLA
    synthesis; the output does not depend on it.
    """
    if info is not None:
        info["iterations"] = 0
    return wola.modulate_composite(grids, dims, spec.wola_extension_factor,
                                   threads=threads)
