"""Waveform measurements: PAPR statistics, per-subband MSE, PSD, ACLR, mask.

PAPR is taken per sample against the whole-signal mean power, and the
reported "PAPR at probability p" is read off the per-sample survival
curve.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .ofdm import (ComplexSignal, ResourceGrid, chunk_map, ofdm_demodulate,
                   stage_chunks)
from .scenario import DerivedDims, ScenarioError, ScenarioSpec


def papr_per_sample(signal: ComplexSignal) -> np.ndarray:
    """Instantaneous-to-mean power ratio for every sample (linear)."""
    p = np.abs(signal.samples)
    np.square(p, out=p)
    p /= p.mean()
    return p


@dataclass
class CcdfCurve:
    """Empirical survival curve of per-sample PAPR.

    ``thresholds_db`` ascends and ``probabilities`` is non-increasing;
    entry i is the fraction of samples whose PAPR exceeds threshold i.
    """

    thresholds_db: np.ndarray
    probabilities: np.ndarray
    sample_count: int
    # Samples pooled per curve point; ccdf.csv and report.json echo it.
    window = 1


def ccdf(papr_linear: np.ndarray) -> CcdfCurve:
    """Survival curve of a per-sample PAPR sequence."""
    # The sort's copy becomes the thresholds in place.
    thresholds_db = np.sort(np.asarray(papr_linear, dtype=np.float64))
    n = thresholds_db.size
    np.maximum(thresholds_db, 1e-300, out=thresholds_db)
    np.log10(thresholds_db, out=thresholds_db)
    thresholds_db *= 10.0
    probabilities = np.arange(n - 1.0, -1.0, -1.0)
    probabilities /= n
    return CcdfCurve(thresholds_db=thresholds_db, probabilities=probabilities,
                     sample_count=n)


def papr_at_probability(curve: CcdfCurve, p: float) -> float:
    """Smallest threshold whose exceedance probability is at most ``p``.

    Interpolates linearly in probability between the two bracketing curve
    points; saturates at the curve extremes.
    """
    probs = curve.probabilities
    th = curve.thresholds_db
    idx = int(np.searchsorted(-probs, -p, side="left"))
    if idx == 0:
        return float(th[0])
    if idx >= probs.size:
        return float(th[-1])
    p_hi, p_lo = probs[idx - 1], probs[idx]
    if p_hi == p_lo:
        return float(th[idx])
    frac = (p_hi - p) / (p_hi - p_lo)
    return float(th[idx - 1] + frac * (th[idx] - th[idx - 1]))


def mse_per_bwp(signal: ComplexSignal, dims: DerivedDims,
                grids: list[ResourceGrid], *,
                threads: int = 1) -> list[float]:
    """Demodulation error power per subband, in dB relative to signal.

    A single complex gain per subband is fitted by least squares before
    comparing, so flat scaling and rotation do not count as error.  The
    receiver timing is the middle of the cyclic prefix, which keeps the
    analysis window clear of symbol-edge shaping.  ``threads`` worker
    threads demodulate the symbols.
    """
    out = []
    for m, grid in enumerate(grids):
        rx = ofdm_demodulate(signal, dims, m,
                             timing_offset=-dims.bwps[m].l_cp_os // 2,
                             threads=threads)
        x = grid.values.reshape(-1)
        y = rx.values.reshape(-1)
        denom = np.vdot(x, x)
        g = np.vdot(x, y) / denom
        err = y - g * x
        ref_power = np.abs(g) ** 2 * denom.real
        mse = np.abs(err) ** 2
        out.append(float(10.0 * np.log10(max(mse.sum() / ref_power, 1e-300))))
    return out


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


def psd_welch(signal: ComplexSignal, rbw_hz: float = 30e3, *,
              threads: int = 1) -> PsdEstimate:
    """Hann-windowed, 50 %-overlap averaged periodogram.

    The segment length is the power of two whose bin spacing is nearest
    the requested resolution bandwidth.  This is Welch's estimate as
    ``scipy.signal.welch`` computes it (two-sided, density scaling, no
    detrending), bit for bit: the window is scaled by a sequential sum,
    and the segment powers are stored frequency-major and averaged along
    their contiguous rows, which numpy sums pairwise.  Segments are
    transformed in fixed chunks of rows on ``threads`` worker threads.
    """
    x = signal.samples
    fs = signal.sample_rate_hz
    nperseg = welch_segment_len(fs, rbw_hz, x.size)
    hop = nperseg - nperseg // 2
    n_seg = (x.size - nperseg // 2) // hop
    win = _hann(nperseg)
    win = win * (1 / np.sqrt(sum(win * win) / (1 / fs)))
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::hop]
    power = np.empty((nperseg, n_seg))

    def periodograms(sl: slice) -> None:
        spec = np.fft.fft(segments[sl] * win)
        power[:, sl] = (spec.real ** 2 + spec.imag ** 2).T

    def average(sl: slice) -> np.ndarray:
        return power[sl].mean(axis=1)

    with chunk_map(threads) as pmap:
        pmap(periodograms, stage_chunks(n_seg, nperseg))
        density = np.concatenate(pmap(average, stage_chunks(nperseg, n_seg)))
    del power
    freq = np.fft.fftshift(np.fft.fftfreq(nperseg, 1 / fs))
    density = np.fft.fftshift(density)
    total = float(np.mean(np.abs(x) ** 2))
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
    symmetrically.  Comment lines starting with ``#`` and a header row are
    both tolerated; a row of one field or a non-finite value is an error.
    """
    offs, limits = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) < 2:
                raise ValueError(f"mask file {path!r} has a row of one field {row}")
            try:
                off, lim = float(row[0]), float(row[1])
            except ValueError:
                continue
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
    rate and its segment fits in the shortest stream, and each ACLR band
    spans a Welch bin, misses the main band and ends below Nyquist.
    """
    m, fs, bd = spec.measure, dims.fs_oversampled_hz, dims.bwps[0]
    if m.psd_rbw_hz >= fs:
        raise ScenarioError(f"measure.psd_rbw_hz must be below {fs:g} Hz")
    n = bd.num_symbols * bd.stride_os
    seg = welch_segment_len(fs, m.psd_rbw_hz, 2 * n)  # capped at 2n to show seg > n
    if seg > n:
        raise ScenarioError(f"measure.psd_rbw_hz: {m.psd_rbw_hz:g} Hz needs a Welch "
                            f"segment longer than the {n}-sample stream")
    # The lower bound gives every half-open ACLR band a Welch bin (aclr
    # relies on it); with the upper bound, at most fs/3, it makes the
    # segment at least 4 samples (psd_welch's Hann window relies on that).
    lo = fs / seg
    hi = min(spec.channel_bw_hz, fs - 2 * spec.channel_bw_hz)
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
    estimate are stored in it under ``"ccdf"`` and ``"psd"``.  The MSE
    demodulation and the Welch segments run on ``threads`` worker
    threads, one stage after the other; the report does not depend on it.
    """
    curve = ccdf(papr_per_sample(signal))
    papr_db = papr_at_probability(curve, spec.measure.ccdf_probability)
    mse = mse_per_bwp(signal, dims, grids, threads=threads)
    psd = psd_welch(signal, spec.measure.psd_rbw_hz, threads=threads)
    aclr_db = aclr(psd, spec.channel_bw_hz, spec.measure.aclr_measurement_bw_hz)
    margin = None
    if spec.measure.mask_file:
        margin = mask_margin(psd, spec.measure.mask_file)
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
