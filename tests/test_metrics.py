"""Measurement layer: peak statistics, demodulation error, spectrum."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixnum import icef, metrics, ofdm
from mixnum.metrics import (CcdfCurve, PsdEstimate, aclr, ccdf, load_mask,
                            mask_margin, measure_all, mse_per_bwp,
                            papr_at_probability, papr_per_sample, psd_welch)
from mixnum.ofdm import ComplexSignal

from conftest import make_spec, rng, tiny_spec

FS = 122.88e6


def _sig(x, fs=FS):
    return ComplexSignal(samples=np.asarray(x, dtype=np.complex128),
                         sample_rate_hz=fs)


class TestPaprPerSample:
    def test_hand_vector(self):
        ratios = papr_per_sample(_sig([1.0, 1.0, 1.0, 3.0j]))
        assert np.array_equal(ratios, np.array([1.0, 1.0, 1.0, 9.0]) / 3.0)

    def test_constant_signal_is_all_ones(self):
        ratios = papr_per_sample(_sig(np.full(16, 2.0 - 1.0j)))
        assert (ratios == 1.0).all()

    def test_single_active_sample_out_of_n(self):
        x = np.zeros(8, dtype=np.complex128)
        x[5] = 0.5j
        ratios = papr_per_sample(_sig(x))
        assert ratios[5] == 8.0
        assert (np.delete(ratios, 5) == 0.0).all()

    @given(st.integers(0, 2**32 - 1))
    def test_mean_ratio_is_one(self, seed):
        g = rng(seed)
        x = g.standard_normal(256) + 1j * g.standard_normal(256)
        assert np.mean(papr_per_sample(_sig(x))) == pytest.approx(1.0, abs=1e-12)


class TestCcdf:
    def test_curve_shape_and_monotonicity(self):
        g = rng("curve")
        ratios = papr_per_sample(_sig(g.standard_normal(512)
                                      + 1j * g.standard_normal(512)))
        curve = ccdf(ratios)
        assert curve.sample_count == 512 and curve.window == 1
        assert (np.diff(curve.thresholds_db) >= 0).all()
        assert (np.diff(curve.probabilities) <= 0).all()
        assert curve.probabilities[0] == pytest.approx(511 / 512)
        assert curve.probabilities[-1] == 0.0

    def test_rare_peak_quantile(self):
        # 998 commonplace samples plus two peaks at exactly 8 dB: the
        # 1-in-1000 exceedance level must come out at the peak value.
        g = rng("quantile")
        ratios = np.concatenate([
            g.uniform(0.8, 1.2, size=998),
            [10.0 ** 0.8, 10.0 ** 0.8],
        ])
        curve = ccdf(ratios)
        level = papr_at_probability(curve, 1e-3)
        assert 7.9 <= level <= 8.1

    def test_quantile_saturates_at_curve_ends(self):
        curve = ccdf(np.array([1.0, 2.0, 4.0]))
        assert papr_at_probability(curve, 0.9) == curve.thresholds_db[0]
        assert papr_at_probability(curve, 1e-9) == pytest.approx(
            curve.thresholds_db[-1], abs=1e-6)

    def test_interpolates_between_bracketing_points(self):
        # Exceedance drops 0.75 -> 0.5 across the 0 dB -> ~3 dB step;
        # querying p=0.625 must land halfway between those thresholds.
        curve = ccdf(np.array([1.0, 2.0, 4.0, 8.0]))
        mid = papr_at_probability(curve, 0.625)
        lo, hi = curve.thresholds_db[0], curve.thresholds_db[1]
        assert mid == pytest.approx((lo + hi) / 2, abs=1e-12)


class TestPsdWelch:
    def test_bin_grid_tone(self):
        n = 1 << 17
        t = np.arange(n)
        f0 = 7.68e6  # exactly 256 resolution bins
        est = psd_welch(_sig(np.exp(2j * np.pi * f0 / FS * t)), 30e3)
        df = est.freq_hz[1] - est.freq_hz[0]
        assert df == pytest.approx(30e3, rel=1e-12)
        assert est.freq_hz[int(np.argmax(est.density))] == pytest.approx(f0)

    def test_power_closure(self):
        g = rng("closure")
        n = 1 << 17
        x = g.standard_normal(n) + 1j * g.standard_normal(n)
        est = psd_welch(_sig(x), 30e3)
        df = est.freq_hz[1] - est.freq_hz[0]
        integral = float(np.sum(est.density) * df)
        mean_power = float(np.mean(np.abs(x) ** 2))
        assert 10 * np.log10(integral / mean_power) == pytest.approx(0.0, abs=0.05)

    def test_white_noise_is_flat(self):
        g = rng("flat-noise")
        n = 1 << 18
        x = (g.standard_normal(n) + 1j * g.standard_normal(n)) / np.sqrt(2)
        est = psd_welch(_sig(x), 30e3)
        rel_db = 10 * np.log10(est.density / (1.0 / FS))
        assert np.max(np.abs(rel_db)) <= 3.0
        assert np.mean(np.abs(rel_db)) <= 0.5

    @pytest.mark.parametrize("n, rbw_hz", [
        (10001, 1e6),            # odd length, 128-sample segments
        (3001, 30e3),            # shorter than the 4096-sample segment
        (4096, 30e3),            # exactly one segment
        (4096 * 3 + 777, 30e3),  # not a multiple of the hop
    ])
    def test_matches_scipy_welch_bit_for_bit(self, n, rbw_hz):
        # scipy.signal.welch, the call psd_welch replaced, as the oracle.
        sp_signal = pytest.importorskip("scipy.signal")
        g = rng(f"welch oracle {n}")
        x = g.standard_normal(n) + 1j * g.standard_normal(n)
        nperseg = min(2 ** int(round(np.log2(FS / rbw_hz))), n)
        freq, density = sp_signal.welch(
            x, fs=FS, window="hann", nperseg=nperseg, noverlap=nperseg // 2,
            detrend=False, return_onesided=False, scaling="density")
        est = psd_welch(_sig(x), rbw_hz)
        assert est.freq_hz.tobytes() == np.fft.fftshift(freq).tobytes()
        assert est.density.tobytes() == np.fft.fftshift(density).tobytes()

    @pytest.mark.parametrize("chunk_samples", [1, 5000, 1 << 15])
    def test_threads_and_chunks_leave_the_estimate_unchanged(
            self, monkeypatch, chunk_samples):
        # 13 segments of 4096 samples: chunks of 1, 1 and 8 segments, and
        # of 4096, 384 and 2520 frequency rows for the average.
        g = rng("welch chunks")
        n = 4096 * 7 + 123
        x = g.standard_normal(n) + 1j * g.standard_normal(n)
        ref = psd_welch(_sig(x), 30e3)
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
        for threads in (1, 2, 3):
            est = psd_welch(_sig(x), 30e3, threads=threads)
            assert est.density.tobytes() == ref.density.tobytes()
            assert est.psd_db.tobytes() == ref.psd_db.tobytes()


class TestAclr:
    @staticmethod
    def _flat_psd(main=1.0, upper=1e-6, lower=2e-6):
        freq = np.arange(-2048, 2048) * 30e3
        den = np.full(freq.size, 1e-12)
        den[np.abs(freq) <= 9e6] = main
        den[np.abs(freq - 20e6) <= 9e6] = upper
        den[np.abs(freq + 20e6) <= 9e6] = lower
        return PsdEstimate(freq_hz=freq, density=den,
                           psd_db=10 * np.log10(den), rbw_hz=30e3)

    def test_constructed_ratios_are_exact(self):
        out = aclr(self._flat_psd(), 20e6, 18e6)
        assert out["upper"] == pytest.approx(60.0, abs=0.2)
        assert out["lower"] == pytest.approx(10 * np.log10(0.5e6), abs=0.2)

    def test_sides_map_to_frequency_signs(self):
        # The stronger neighbour sits at negative frequencies, so the
        # "lower" ratio must be the smaller of the two.
        out = aclr(self._flat_psd(upper=1e-6, lower=1e-4), 20e6, 18e6)
        assert out["lower"] < out["upper"]

    def test_symmetric_spectrum_gives_equal_sides(self):
        out = aclr(self._flat_psd(upper=5e-6, lower=5e-6), 20e6, 18e6)
        assert out["lower"] == pytest.approx(out["upper"], abs=1e-9)


class TestMse:
    def test_back_to_back_is_numerically_clean(self, tiny_dims, tiny_grids):
        sig = ofdm.ofdm_modulate(tiny_grids[0], tiny_dims)
        mse = mse_per_bwp(sig, tiny_dims, [tiny_grids[0]])
        assert mse[0] <= -200.0

    def test_invariant_under_global_complex_gain(self, tiny_dims, tiny_grids):
        sig = ofdm.ofdm_modulate(tiny_grids[0], tiny_dims)
        base = mse_per_bwp(sig, tiny_dims, [tiny_grids[0]])
        scaled = ComplexSignal(samples=sig.samples * (0.3 - 1.7j),
                               sample_rate_hz=sig.sample_rate_hz)
        rot = mse_per_bwp(scaled, tiny_dims, [tiny_grids[0]])
        # Both sit at the numerical noise floor; the fitted complex gain
        # absorbs the scaling so neither degrades.
        assert rot[0] <= -200.0 and base[0] <= -200.0

    def test_known_noise_level_is_reported(self, tiny_dims, tiny_grids):
        # Add -40 dB of white noise relative to the signal; the in-band
        # fraction seen by the receiver is predictable within a couple dB.
        g = rng("mse-noise")
        sig = ofdm.ofdm_modulate(tiny_grids[0], tiny_dims)
        p_sig = np.mean(np.abs(sig.samples) ** 2)
        noise = (g.standard_normal(sig.samples.size)
                 + 1j * g.standard_normal(sig.samples.size))
        noise *= np.sqrt(p_sig * 1e-4 / 2)
        noisy = ComplexSignal(samples=sig.samples + noise,
                              sample_rate_hz=sig.sample_rate_hz)
        mse = mse_per_bwp(noisy, tiny_dims, [tiny_grids[0]])
        # White noise splits evenly over the transform bins: the active
        # fraction is 624/8192, i.e. about 11 dB below the added total.
        expect = -40.0 + 10 * np.log10(624 / 8192)
        assert mse[0] == pytest.approx(expect, abs=2.0)

    @pytest.mark.parametrize("chunk_samples", [1, 20000, 1 << 18])
    def test_threads_and_chunks_leave_the_result_unchanged(
            self, monkeypatch, tiny_dims, tiny_grids, chunk_samples):
        # 8 and 32 symbols: one row per chunk, 2 and 9 rows (a remainder
        # in both), and a single chunk.
        spec = tiny_spec()
        sig = icef.run_none(spec, tiny_dims, tiny_grids)
        offsets = [-bd.l_cp_os // 2 for bd in tiny_dims.bwps]
        ref_rx = [ofdm.ofdm_demodulate(sig, tiny_dims, m, off).values.tobytes()
                  for m, off in enumerate(offsets)]
        ref = mse_per_bwp(sig, tiny_dims, tiny_grids)
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
        for threads in (1, 2, 3):
            for m, off in enumerate(offsets):
                rx = ofdm.ofdm_demodulate(sig, tiny_dims, m, off, threads=threads)
                assert rx.values.tobytes() == ref_rx[m]
            assert mse_per_bwp(sig, tiny_dims, tiny_grids, threads=threads) == ref


class TestMask:
    def _write_mask(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# frequency offset Hz, limit dB\n")
            fh.write("offset_hz,limit_db\n")
            for off, lim in rows:
                fh.write(f"{off},{lim}\n")

    def test_load_sorts_and_skips_headers(self, tmp_path):
        path = tmp_path / "mask.csv"
        self._write_mask(path, [(20e6, -30.0), (10e6, -20.0)])
        offs, lims = load_mask(str(path))
        assert np.array_equal(offs, [10e6, 20e6])
        assert np.array_equal(lims, [-20.0, -30.0])

    def test_too_few_points_rejected(self, tmp_path):
        path = tmp_path / "mask.csv"
        self._write_mask(path, [(10e6, -20.0)])
        with pytest.raises(ValueError):
            load_mask(str(path))

    @pytest.mark.parametrize("bad", [(15e6, "nan"), ("inf", -30.0)])
    def test_non_finite_rows_rejected(self, tmp_path, bad):
        path = tmp_path / "mask.csv"
        self._write_mask(path, [(10e6, -20.0), bad, (20e6, -30.0)])
        with pytest.raises(ValueError, match="non-finite"):
            load_mask(str(path))

    @staticmethod
    def _flat_estimate(level_db):
        freq = np.arange(-2048, 2048) * 30e3
        psd_db = np.full(freq.size, level_db)
        return PsdEstimate(freq_hz=freq, density=10 ** (psd_db / 10),
                           psd_db=psd_db, rbw_hz=30e3)

    def test_margin_against_flat_spectrum(self, tmp_path):
        path = tmp_path / "mask.csv"
        self._write_mask(path, [(10e6, -40.0), (30e6, -40.0)])
        margin = mask_margin(self._flat_estimate(-50.0), str(path))
        assert margin == pytest.approx(10.0, abs=1e-9)

    def test_exact_touch_is_zero_margin(self, tmp_path):
        path = tmp_path / "mask.csv"
        self._write_mask(path, [(10e6, -50.0), (30e6, -50.0)])
        margin = mask_margin(self._flat_estimate(-50.0), str(path))
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_mask_outside_measured_span_is_infinite(self, tmp_path):
        path = tmp_path / "mask.csv"
        self._write_mask(path, [(100e6, -40.0), (120e6, -40.0)])
        margin = mask_margin(self._flat_estimate(-50.0), str(path))
        assert margin == float("inf")


class TestMeasureAll:
    def test_populates_every_field(self, tiny_dims, tiny_grids):
        from mixnum import icef

        spec = tiny_spec()
        sig = icef.run_none(spec, tiny_dims, tiny_grids)
        artifacts: dict = {}
        report = measure_all(sig, spec, tiny_dims, tiny_grids,
                             iterations=np.array([0, 2, 2]),
                             artifacts=artifacts)
        assert np.isfinite(report.papr_at_p_db)
        assert report.ccdf_probability == spec.measure.ccdf_probability
        assert report.ccdf_window == 1
        assert len(report.mse_db) == 2
        assert set(report.aclr_db) == {"lower", "upper"}
        assert report.mask_margin_db is None
        assert report.iterations_histogram == [1, 0, 2]
        assert isinstance(artifacts["ccdf"], CcdfCurve)
        assert isinstance(artifacts["psd"], PsdEstimate)

    def test_report_serializes_infinities(self):
        report = metrics.MetricsReport(
            papr_at_p_db=5.0, ccdf_probability=1e-3, ccdf_window=1,
            mse_db=[-20.0], aclr_db={"lower": 50.0, "upper": 51.0},
            mask_margin_db=float("inf"), iterations_histogram=[])
        d = report.to_dict()
        assert d["mask_margin_db"] == "inf"
        assert d["mse_db"] == [-20.0]
        assert set(d) == {"papr_at_p_db", "ccdf_probability", "ccdf_window",
                          "mse_db", "aclr_db", "mask_margin_db",
                          "iterations_histogram"}
