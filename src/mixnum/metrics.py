"""Waveform measurements: PAPR statistics, per-subband MSE, PSD, ACLR, mask.

PAPR is taken per sample against the whole-signal mean power, and the
reported "PAPR at probability p" is read off the per-sample survival
curve.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, ofdm_demodulate,
                   pairwise_reduce, pmap, power_stats, stage_chunks)
from .scenario import DerivedDims, ScenarioError, ScenarioSpec


def signal_power(signal: ComplexSignal, *, threads: int = 1) -> float:
    """Mean power of the whole signal, ``np.mean(np.abs(x) ** 2)`` bit for
    bit (``ofdm.power_stats`` on ``threads`` worker threads), the
    reduction the PAPR ratios and Welch share."""
    return power_stats(signal.samples, threads)[0]


def papr_per_sample(signal: ComplexSignal, mean_power: float | None = None,
                    *, threads: int = 1) -> np.ndarray:
    """Instantaneous-to-mean power ratio for every sample (linear).

    ``mean_power`` is ``signal_power(signal)`` when the caller already has
    it.  The ratios are taken in chunks of samples on ``threads`` worker
    threads, into one fresh array, so ``ccdf`` may take it over and sort
    it in place.
    """
    x = signal.samples
    if mean_power is None:
        mean_power = signal_power(signal, threads=threads)
    p = np.empty(x.size)

    def ratios(sl: slice) -> None:
        np.abs(x[sl], out=p[sl])
        np.square(p[sl], out=p[sl])
        p[sl] /= mean_power

    pmap(ratios, stage_chunks(x.size, 1), threads)
    return p


@dataclass
class CcdfCurve:
    """Empirical survival curve of per-sample PAPR.

    ``ratios`` ascends; rank i's threshold is ``ratios[i]`` in dB, and its
    exceedance probability ``(n-1-i)/n`` is the fraction of samples above
    it.  Both are computed only at the ranks that are read.
    """

    ratios: np.ndarray
    sample_count: int
    # Samples pooled per curve point; ccdf.csv and report.json echo it.
    window = 1

    def thresholds_db_at(self, ranks: np.ndarray | list[int]) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.ratios[ranks], 1e-300))

    def probabilities_at(self, ranks: np.ndarray | list[int]) -> np.ndarray:
        return (self.sample_count - 1 - np.asarray(ranks)) / self.sample_count


def ccdf(papr_linear: np.ndarray) -> CcdfCurve:
    """Survival curve of a per-sample PAPR array, sorted in place and kept."""
    papr_linear.sort()
    return CcdfCurve(ratios=papr_linear, sample_count=papr_linear.size)


def papr_at_probability(curve: CcdfCurve, p: float) -> float:
    """Smallest threshold whose exceedance probability is at most ``p``.

    Interpolates linearly in probability between the two bracketing curve
    points; saturates at the curve extremes.
    """
    n = curve.sample_count
    # Probabilities fall with rank: step from the estimate to the first rank
    # whose probability is at most p (searchsorted's rule on -probabilities).
    idx = min(max(int(np.ceil(n - 1 - p * n)), 0), n)
    while idx > 0 and (n - idx) / n <= p:
        idx -= 1
    while idx < n and (n - 1 - idx) / n > p:
        idx += 1
    if idx == 0 or idx == n:
        return float(curve.thresholds_db_at([min(idx, n - 1)])[0])
    p_hi, p_lo = curve.probabilities_at([idx - 1, idx])
    th_hi, th_lo = curve.thresholds_db_at([idx - 1, idx])
    if p_hi == p_lo:
        return float(th_lo)
    frac = (p_hi - p) / (p_hi - p_lo)
    return float(th_hi + frac * (th_lo - th_hi))


def mse_per_bwp(signal: ComplexSignal, dims: DerivedDims,
                grids: list[ResourceGrid], *,
                threads: int = 1) -> list[float]:
    """Demodulation error power per subband, in dB relative to signal.

    A single complex gain per subband is fitted by least squares before
    comparing, so flat scaling and rotation do not count as error.  The
    receiver timing is the middle of the cyclic prefix, which keeps the
    analysis window clear of symbol-edge shaping.  ``threads`` worker
    threads demodulate the symbols and take the fit's inner products.
    """
    def vdot(a: np.ndarray, b: np.ndarray) -> complex:
        """``np.vdot(a, b)`` on pool leaves, each part summed as ``np.sum``
        does (BLAS would split it by the host's CPU count)."""
        def leaf(sl: slice) -> complex:
            p = np.conj(a[sl]) * b[sl]
            return complex(np.add.reduce(p.real), np.add.reduce(p.imag))

        return pairwise_reduce(leaf, a.size, threads)

    def error_db(m: int) -> float:
        rx = ofdm_demodulate(signal, dims, m,
                             timing_offset=-dims.bwps[m].l_cp_os // 2,
                             threads=threads)
        x = grids[m].values.reshape(-1)
        err = rx.values.reshape(-1)  # the received rows, then their error
        denom = vdot(x, x)
        g = vdot(x, err) / denom
        err -= g * x
        ref_power = np.abs(g) ** 2 * denom.real
        return float(10.0 * np.log10(max(vdot(err, err).real / ref_power, 1e-300)))

    return [error_db(m) for m in range(len(grids))]


@dataclass
class PsdEstimate:
    """Welch spectrum of a complex baseband signal, DC-centered.

    ``density`` is linear power per Hz; ``psd_db`` is power per resolution
    bandwidth relative to the signal's total power.
    """

    freq_hz: np.ndarray
    density: np.ndarray
    psd_db: np.ndarray
    rbw_hz: float


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window, as ``scipy.signal.get_window("hann", n)``."""
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def welch_segment_len(fs: float, rbw_hz: float, n: int) -> int:
    """Power of two whose bin spacing is nearest ``rbw_hz``, at most ``n``.

    Every ratio above ``2n`` gives ``n``; capping it there avoids overflow."""
    return min(2 ** int(round(np.log2(min(fs / rbw_hz, 2 * n)))), n)


def pairwise_sum(rows: Callable[[slice], np.ndarray], n: int, row_len: int,
                 threads: int) -> np.ndarray:
    """Column sums of ``n`` rows, bit for bit as numpy sums each column
    when it lies along a contiguous axis (``np.sum``, ``np.mean``).

    ``rows(sl)`` returns rows ``sl`` as a (k, ``row_len``) array.  The rows
    split as numpy splits ``n`` values (``ofdm.pairwise_reduce``), down to
    leaves of at most 128.  A leaf sends value ``i`` below its last
    multiple of 8 to running accumulator ``i mod 8`` (the first 8 start
    them) and adds the 8 in a fixed tree; it adds its last ``n mod 8``
    values one at a time (to -0.0 in a leaf shorter than 8).  Each leaf is
    one task on ``threads`` worker threads and takes its rows in fixed
    chunks, carrying its accumulators across them, so only a chunk of rows
    exists per task.

    This copies numpy's private ``pairwise_sum`` (its umath loop helpers),
    checked against numpy 2.4.6; numpy does not promise that algorithm.
    After any numpy upgrade, ``test_metrics.py``'s
    ``test_pairwise_sum_matches_numpy_mean`` and
    ``test_matches_scipy_welch_bit_for_bit[400000-1000000.0]`` must pass.
    """
    def leaf(span: slice) -> np.ndarray:
        lo, m = span.start, span.stop - span.start
        m8 = m - m % 8
        acc = np.empty((8, row_len))
        rest = []
        for sl in stage_chunks(m, row_len):
            block = rows(slice(lo + sl.start, lo + sl.stop))
            i = sl.start
            while i < min(sl.stop, m8):
                j, k = i % 8, min(8 - i % 8, sl.stop - i)
                part = block[i - sl.start: i - sl.start + k]
                if i < 8:
                    acc[j: j + k] = part
                else:
                    acc[j: j + k] += part
                i += k
            rest.extend(block[max(m8 - sl.start, 0):].copy())
        total = ((((acc[0] + acc[1]) + (acc[2] + acc[3]))
                  + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) if m8
                 else np.full(row_len, -0.0))
        for row in rest:
            total += row
        return total

    return pairwise_reduce(leaf, n, threads, 128)


def psd_welch(signal: ComplexSignal, rbw_hz: float = 30e3, *,
              threads: int = 1, mean_power: float | None = None) -> PsdEstimate:
    """Hann-windowed, 50 %-overlap averaged periodogram.

    The segment length is the power of two whose bin spacing is nearest
    the requested resolution bandwidth.  This is Welch's estimate as
    ``scipy.signal.welch`` computes it (two-sided, density scaling, no
    detrending), bit for bit: the window is scaled by a sequential sum,
    and each frequency's segment powers are summed in numpy's pairwise
    order over segments (``pairwise_sum``), then divided by their count.
    Segment powers exist only one chunk of segments at a time, on
    ``threads`` worker threads; no (segments x frequencies) matrix is
    built.  ``psd_db`` is relative to ``mean_power``,
    ``signal_power(signal)`` unless the caller passes it.
    """
    x = signal.samples
    fs = signal.sample_rate_hz
    nperseg = welch_segment_len(fs, rbw_hz, x.size)
    hop = nperseg - nperseg // 2
    n_seg = (x.size - nperseg // 2) // hop
    win = _hann(nperseg)
    win = win * (1 / np.sqrt(sum(win * win) / (1 / fs)))
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::hop]

    def periodograms(sl: slice) -> np.ndarray:
        spec = np.fft.fft(segments[sl] * win)
        return spec.real ** 2 + spec.imag ** 2

    density = pairwise_sum(periodograms, n_seg, nperseg, threads) / n_seg
    freq = np.fft.fftshift(np.fft.fftfreq(nperseg, 1 / fs))
    density = np.fft.fftshift(density)
    total = (signal_power(signal, threads=threads) if mean_power is None
             else mean_power)
    rel = density * rbw_hz / max(total, 1e-300)
    psd_db = 10.0 * np.log10(np.maximum(rel, 1e-300))
    return PsdEstimate(freq_hz=freq, density=density, psd_db=psd_db,
                       rbw_hz=rbw_hz)


def _band_power(psd: PsdEstimate, lo: float, hi: float) -> float:
    mask = (psd.freq_hz >= lo) & (psd.freq_hz < hi)
    df = float(psd.freq_hz[1] - psd.freq_hz[0])
    return float(psd.density[mask].sum() * df)


def aclr(psd: PsdEstimate, channel_bw_hz: float,
         measurement_bw_hz: float) -> dict[str, float]:
    """Adjacent-channel leakage ratio at plus/minus one channel spacing.

    Integrates the spectrum over the measurement bandwidth centered on DC
    and on each adjacent-channel center; positive dB means the wanted
    channel is that much stronger than the neighbor.
    """
    half = measurement_bw_hz / 2
    main = _band_power(psd, -half, half)
    out = {}
    for name, off in (("lower", -channel_bw_hz), ("upper", channel_bw_hz)):
        adj = _band_power(psd, off - half, off + half)
        out[name] = float(10.0 * np.log10(main / max(adj, 1e-300)))
    return out


def load_mask(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read an emission mask CSV of (frequency offset Hz, limit dB/RBW).

    Offsets are magnitudes from the channel center; the mask is applied
    symmetrically.  Comment lines starting with ``#`` are skipped, and the
    first other row may be a header; a row of one field, a later row that
    is not numbers or a non-finite value is an error.
    """
    offs, limits = [], []
    with open(path, newline="") as fh:
        rows = (r for r in csv.reader(fh)
                if r and not r[0].lstrip().startswith("#"))
        for n, row in enumerate(rows):
            if len(row) < 2:
                raise ValueError(f"mask file {path!r} has a row of one field {row}")
            try:
                off, lim = float(row[0]), float(row[1])
            except ValueError:
                if n == 0:
                    continue
                raise ValueError(
                    f"mask file {path!r} has a row that is not numbers {row}") from None
            if not (np.isfinite(off) and np.isfinite(lim)):
                raise ValueError(f"mask file {path!r} has a non-finite row {row}")
            offs.append(off)
            limits.append(lim)
    if len(offs) < 2:
        raise ValueError(f"mask file {path!r} needs at least two points")
    order = np.argsort(offs)
    return np.asarray(offs)[order], np.asarray(limits)[order]


def mask_margin(psd: PsdEstimate, mask_path: str) -> float:
    """Worst-case clearance under the emission mask, in dB.

    Positive means every measured point in the mask's frequency span sits
    below its limit.
    """
    offs, limits = load_mask(mask_path)
    absf = np.abs(psd.freq_hz)
    in_span = (absf >= offs[0]) & (absf <= offs[-1])
    if not in_span.any():
        return float("inf")
    limit_here = np.interp(absf[in_span], offs, limits)
    return float(np.min(limit_here - psd.psd_db[in_span]))


@dataclass
class MetricsReport:
    """One scenario run's headline measurements, JSON-friendly."""

    papr_at_p_db: float
    ccdf_probability: float
    ccdf_window: int
    mse_db: list[float]
    aclr_db: dict[str, float]
    mask_margin_db: float | None
    iterations_histogram: list[int]

    def to_dict(self) -> dict:
        out = asdict(self)
        margin = self.mask_margin_db
        if margin is not None and not np.isfinite(margin):
            out["mask_margin_db"] = "inf" if margin > 0 else "-inf"
        return out


def check_settings(spec: ScenarioSpec, dims: DerivedDims) -> None:
    """Raise ScenarioError unless the Welch resolution is below the sample
    rate and its segment fits in the shortest stream, the rate holds both
    adjacent channels, and each ACLR band spans a Welch bin, misses the
    main band and ends below Nyquist.
    """
    m, fs, bd = spec.measure, dims.fs_oversampled_hz, dims.bwps[0]
    if m.psd_rbw_hz >= fs:
        raise ScenarioError(f"measure.psd_rbw_hz must be below {fs:g} Hz")
    n = bd.num_symbols * bd.stride_os
    seg = welch_segment_len(fs, m.psd_rbw_hz, 2 * n)  # capped at 2n to show seg > n
    if seg > n:
        raise ScenarioError(f"measure.psd_rbw_hz: {m.psd_rbw_hz:g} Hz needs a Welch "
                            f"segment longer than the {n}-sample stream")
    lo, cbw = fs / seg, spec.channel_bw_hz
    if fs - 2 * cbw < lo:  # no Welch bin fits beside both adjacent channels
        raise ScenarioError(f"oversampling: the rate must reach {2 * cbw + lo:g} Hz")
    # The lower bound gives every half-open ACLR band a Welch bin (aclr
    # relies on it); with the upper bound, at most fs/3, it makes the
    # segment at least 4 samples (psd_welch's Hann window relies on that).
    hi = min(cbw, fs - 2 * cbw)
    if not lo <= m.aclr_measurement_bw_hz <= hi:
        raise ScenarioError(f"measure.aclr_measurement_bw_hz must lie in [{lo:g}, "
                            f"{hi:g}] Hz for this channel and sample rate")
    if m.mask_file:
        try:
            load_mask(m.mask_file)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"measure.mask_file: {exc}") from exc


def measure_all(signal: ComplexSignal, spec: ScenarioSpec, dims: DerivedDims,
                grids: list[ResourceGrid],
                iterations: np.ndarray | None = None,
                artifacts: dict | None = None, *,
                threads: int = 1) -> MetricsReport:
    """Full measurement pass over one generated waveform.

    When ``artifacts`` is a dict, the intermediate CCDF curve and PSD
    estimate are stored in it under ``"ccdf"`` and ``"psd"``.  Welch runs
    first, then MSE, then the CCDF, so Welch's chunks of segment powers are
    freed before the per-sample ratios exist; the signal's mean power,
    which both Welch and the ratios use, is computed once.  The mean
    power, the Welch segments, the MSE demodulation and the per-sample
    ratios run on ``threads`` worker threads, one stage after the other;
    the report does not depend on it.
    """
    power = signal_power(signal, threads=threads)
    psd = psd_welch(signal, spec.measure.psd_rbw_hz, threads=threads,
                    mean_power=power)
    aclr_db = aclr(psd, spec.channel_bw_hz, spec.measure.aclr_measurement_bw_hz)
    margin = None
    if spec.measure.mask_file:
        margin = mask_margin(psd, spec.measure.mask_file)
    mse = mse_per_bwp(signal, dims, grids, threads=threads)
    curve = ccdf(papr_per_sample(signal, power, threads=threads))
    papr_db = papr_at_probability(curve, spec.measure.ccdf_probability)
    hist: list[int] = []
    if iterations is not None and np.size(iterations):
        hist = np.bincount(np.atleast_1d(np.asarray(iterations,
                                                    dtype=np.int64))).tolist()
    if artifacts is not None:
        artifacts["ccdf"] = curve
        artifacts["psd"] = psd
    return MetricsReport(papr_at_p_db=papr_db,
                         ccdf_probability=spec.measure.ccdf_probability,
                         ccdf_window=curve.window, mse_db=mse,
                         aclr_db=aclr_db, mask_margin_db=margin,
                         iterations_histogram=hist)
