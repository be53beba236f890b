"""Desk-scale acceptance bench: every headline requirement, one line each.

The bench fixture runs all five generation methods on the full default
scenario (512 base symbols, iteration budget 20, seed 1), measures each run
immediately, and keeps only the numbers, so the suite's memory stays
bounded.  Each criterion test prints one PASS/FAIL line with the measured
values and then asserts the stated tolerance literally.
"""

from __future__ import annotations

import filecmp
import json

import numpy as np
import pytest

from mixnum import cli, fc, fc_icef, metrics, ofdm, wola
from mixnum.scenario import (METHOD_E_ICEF_WOLA, METHOD_FC_F_OFDM,
                             METHOD_FC_ICEF, METHOD_I_ICEF, METHOD_NONE,
                             derive_dims)

from conftest import make_spec

ALL_METHODS = (METHOD_NONE, METHOD_I_ICEF, METHOD_E_ICEF_WOLA,
               METHOD_FC_F_OFDM, METHOD_FC_ICEF)
EXTRA_TARGETS = (6.0, 7.0, 8.0, 9.0)


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="module")
def bench():
    """All desk-scale runs, reduced to their measurements."""
    results: dict = {"at5": {}, "fc_targets": {}}
    for method in ALL_METHODS:
        spec = make_spec(method=method, papr_target_db=5.0)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed)
                 for m in range(dims.num_bwps)]
        info: dict = {"keep_spectra": True} if method == METHOD_FC_ICEF else {}
        sig, _, _ = cli.execute(spec, threads=1, info=info)
        report = metrics.measure_all(sig, spec, dims, grids,
                                     iterations=info.get("iterations"))
        entry = {
            "papr": report.papr_at_p_db,
            "mse": list(report.mse_db),
            "aclr": dict(report.aclr_db),
        }
        if method == METHOD_E_ICEF_WOLA:
            # Exact-confinement evidence, checked while the arrays exist:
            # the emitted stream is bit-identical to the WOLA synthesis of
            # the reported grids, and those grids place nothing outside
            # each subband's active rows when expanded to full spectra.
            rebuilt = wola.aggregate([
                wola.modulate_wola(g, dims, spec.wola_extension_factor)
                for g in info["grids"]
            ])
            entry["closure_exact"] = bool(
                np.array_equal(sig.samples, rebuilt.samples))
            off_active = 0.0
            for m, g in enumerate(info["grids"]):
                delta = ofdm.ResourceGrid(
                    bwp_index=m, values=g.values - grids[m].values)
                full = ofdm.grid_to_spectrum(delta, dims)
                bd = dims.bwps[m]
                mask = np.ones(bd.l_ofdm_os, dtype=bool)
                mask[np.mod(bd.active_base, bd.l_ofdm_os)] = False
                off_active = max(off_active, float(np.abs(full[mask, :]).max()))
            entry["off_active_max"] = off_active
        if method == METHOD_FC_ICEF:
            delta = info["v_f_proc"] - info["v_f_orig"]
            k_e = fc_icef.window_weights(info["windows"], delta.shape[0]) > 0
            entry["protected_delta_max"] = float(
                np.abs(delta[~k_e, :]).max())
            entry["shaped_delta_max"] = float(
                np.abs(delta[k_e, :]).max())
        results["at5"][method] = entry
        del sig, info
    for target in EXTRA_TARGETS:
        spec = make_spec(method=METHOD_FC_ICEF, papr_target_db=target)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed)
                 for m in range(dims.num_bwps)]
        info = {}
        sig, _, _ = cli.execute(spec, threads=1, info=info)
        report = metrics.measure_all(sig, spec, dims, grids,
                                     iterations=info.get("iterations"))
        results["fc_targets"][target] = {
            "papr": report.papr_at_p_db,
            "mse": list(report.mse_db),
        }
        del sig, info
    return results


class TestCriterion1TargetTracking:
    def test_target_5_lands_in_band(self, bench):
        papr = bench["at5"][METHOD_FC_ICEF]["papr"]
        ok = 5.0 <= papr <= 5.2
        _line("criterion 1 (target 5)", ok,
              f"papr@1e-3 = {papr:.3f} dB, required [5.0, 5.2]")
        assert ok

    @pytest.mark.parametrize("target", EXTRA_TARGETS)
    def test_higher_targets_tracked(self, bench, target):
        papr = bench["fc_targets"][target]["papr"]
        ok = abs(papr - target) <= 0.15
        _line(f"criterion 1 (target {target:g})", ok,
              f"papr@1e-3 = {papr:.3f} dB, required {target:g} +/- 0.15")
        assert ok


class TestCriterion2MethodOrdering:
    def test_ordering_and_gaps(self, bench):
        p_fc = bench["at5"][METHOD_FC_ICEF]["papr"]
        p_e = bench["at5"][METHOD_E_ICEF_WOLA]["papr"]
        p_i = bench["at5"][METHOD_I_ICEF]["papr"]
        ok = (p_fc < p_e < p_i) and (p_e - p_fc <= 0.4) and (p_i - p_fc >= 1.5)
        _line("criterion 2", ok,
              f"FC {p_fc:.3f} < E {p_e:.3f} < I {p_i:.3f} dB; "
              f"E-FC {p_e - p_fc:.3f} (<= 0.4), I-FC {p_i - p_fc:.3f} (>= 1.5)")
        assert p_fc < p_e < p_i
        assert p_e - p_fc <= 0.4
        assert p_i - p_fc >= 1.5


class TestCriterion3Mse:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_target_5_compliance(self, bench, method):
        mse0, mse1 = bench["at5"][method]["mse"]
        ok = mse0 < -15.0 and mse1 < -22.0
        _line(f"criterion 3 (target 5, {method})", ok,
              f"mse = ({mse0:.2f}, {mse1:.2f}) dB, "
              f"required (< -15, < -22)")
        assert mse0 < -15.0
        assert mse1 < -22.0

    def test_target_9_saturation(self, bench):
        mse0, mse1 = bench["fc_targets"][9.0]["mse"]
        ok = -42.0 <= mse0 <= -36.0 and -42.0 <= mse1 <= -36.0
        _line("criterion 3 (target 9)", ok,
              f"FC-ICEF mse = ({mse0:.2f}, {mse1:.2f}) dB, required in [-42, -36]")
        assert -42.0 <= mse0 <= -36.0
        assert -42.0 <= mse1 <= -36.0


class TestCriterion4Aclr:
    def test_clean_filtered_floor(self, bench):
        a = bench["at5"][METHOD_FC_F_OFDM]["aclr"]
        worst = min(a["lower"], a["upper"])
        ok = worst >= 75.0
        _line("criterion 4a", ok,
              f"clean FC-F-OFDM aclr = {a['lower']:.2f}/{a['upper']:.2f} dB, "
              f"required >= 75")
        assert ok

    def test_processing_degradation(self, bench):
        clean = bench["at5"][METHOD_FC_F_OFDM]["aclr"]
        proc = bench["at5"][METHOD_FC_ICEF]["aclr"]
        deg = max(clean["lower"] - proc["lower"], clean["upper"] - proc["upper"])
        ok = deg <= 4.0
        _line("criterion 4b", ok,
              f"FC-ICEF aclr {proc['lower']:.2f}/{proc['upper']:.2f} dB vs "
              f"clean {clean['lower']:.2f}/{clean['upper']:.2f} dB, "
              f"degradation {deg:.2f} dB, required <= 4")
        assert ok

    @pytest.mark.parametrize("method", (METHOD_NONE, METHOD_I_ICEF,
                                        METHOD_E_ICEF_WOLA))
    def test_wola_methods_exceed(self, bench, method):
        w = bench["at5"][method]["aclr"]
        f = bench["at5"][METHOD_FC_ICEF]["aclr"]
        w_worst = min(w["lower"], w["upper"])
        f_worst = min(f["lower"], f["upper"])
        ok = w_worst > f_worst
        _line(f"criterion 4c ({method})", ok,
              f"aclr {w['lower']:.2f}/{w['upper']:.2f} dB vs FC-ICEF "
              f"{f['lower']:.2f}/{f['upper']:.2f} dB, required worst-side greater")
        assert ok


class TestCriterion5ExactConfinement:
    def test_grid_domain_confinement(self, bench):
        entry = bench["at5"][METHOD_E_ICEF_WOLA]
        ok = entry["closure_exact"] and entry["off_active_max"] == 0.0
        _line("criterion 5 (grid domain)", ok,
              f"stream == synthesis of reported grids: {entry['closure_exact']}; "
              f"max |delta| off active subcarriers = {entry['off_active_max']:.1e}")
        assert entry["closure_exact"]
        assert entry["off_active_max"] == 0.0

    def test_block_spectrum_confinement(self, bench):
        entry = bench["at5"][METHOD_FC_ICEF]
        ok = entry["protected_delta_max"] == 0.0 and entry["shaped_delta_max"] > 0.0
        _line("criterion 5 (block spectra)", ok,
              f"max |delta| on protected bins = {entry['protected_delta_max']:.1e} "
              f"(exactly 0 required); on allocation bins = "
              f"{entry['shaped_delta_max']:.2e} (> 0 expected)")
        assert entry["protected_delta_max"] == 0.0
        assert entry["shaped_delta_max"] > 0.0


class TestCriterion6Oracles:
    def test_interpolation_oracle(self):
        from mixnum.scenario import FcDims

        l, interp = 32, 4
        fcd = FcDims(transform_len=l, interpolation=interp, step_len=l // 2,
                     transition_bins=0, bin_spacing_hz=15e3)
        t = np.arange(6 * l)
        x = (np.exp(2j * np.pi * 3 * t / l)
             + 0.25 * np.exp(-2j * np.pi * 7 * t / l))
        window = fc.FcWindow(center_bin=0, half=l // 2, gains=np.ones(l))
        mapped = fc.subband_forward(fc.segment(x, fcd), window, fcd, 0)
        spectra = np.zeros((mapped.shape[0], fcd.inverse_len), dtype=np.complex128)
        v_t = fc.combine(spectra, [mapped], [window])
        y = fc.ols_extract(v_t, fcd, interp * x.size)
        big = np.fft.fft(x)
        stuffed = np.zeros(x.size * interp, dtype=np.complex128)
        stuffed[: x.size // 2] = big[: x.size // 2]
        stuffed[-(x.size // 2):] = big[-(x.size // 2):]
        y_ref = np.fft.ifft(stuffed) * interp
        margin = fcd.keep_len
        err = float(np.max(np.abs(y - y_ref)[margin:-margin])
                    / np.max(np.abs(y_ref)))
        ok = err <= 1e-9
        _line("criterion 6 (interpolation oracle)", ok,
              f"all-pass chain vs direct interpolation: rel err {err:.2e} <= 1e-9")
        assert ok

    def test_same_numerology_interference_oracle(self):
        from mixnum.scenario import default_scenario_dict, scenario_from_dict

        raw = default_scenario_dict()
        raw.update(duration_symbols_base=4)
        raw["bwps"] = [
            {"scs_hz": 15e3, "num_prbs": 20, "modulation": "QPSK",
             "center_offset_hz": -4.0e6},
            {"scs_hz": 15e3, "num_prbs": 20, "modulation": "QPSK",
             "center_offset_hz": 4.0e6},
        ]
        spec = scenario_from_dict(raw)
        dims = derive_dims(spec)
        streams, scale = [], 0.0
        for m in range(2):
            grid = ofdm.generate_grid(dims, m, spec.seed)
            streams.append(ofdm.ofdm_modulate(grid, dims).samples)
            scale = max(scale, float(np.max(np.abs(grid.values))))
        worst = 0.0
        for m in (0, 1):
            other = ofdm.ComplexSignal(samples=streams[1 - m],
                                       sample_rate_hz=dims.fs_oversampled_hz)
            leak = ofdm.ofdm_demodulate(other, dims, m).values
            worst = max(worst, float(np.max(np.abs(leak))) / scale)
        ok = worst <= 1e-10
        _line("criterion 6 (interference oracle)", ok,
              f"same-numerology disjoint subbands: rel leak {worst:.2e} <= 1e-10")
        assert ok

    def test_transform_round_trip(self):
        g = np.random.Generator(np.random.Philox(key=np.array([2024, 6],
                                                              dtype=np.uint64)))
        x = g.standard_normal(4096) + 1j * g.standard_normal(4096)
        err = float(np.max(np.abs(ofdm.idft(ofdm.dft(x)) - x)))
        ok = err <= 1e-12
        _line("criterion 6 (transform round trip)", ok,
              f"max abs err {err:.2e} <= 1e-12")
        assert ok

    def test_ramp_complementarity_exact(self):
        ok = True
        for n in (2, 12, 100, 402):
            w = wola.rc_ramp(n)
            ok = ok and bool((w + w[::-1] == 1.0).all())
        _line("criterion 6 (ramp complementarity)", ok,
              "w[n-1-i] + w[i] == 1 bit-exact for n in {2, 12, 100, 402}")
        assert ok

    def test_papr_hand_oracle(self):
        ratios = metrics.papr_per_sample(ofdm.ComplexSignal(
            samples=np.array([1.0, 1.0, 1.0, 3.0j]), sample_rate_hz=1.0))
        expect = np.array([1.0, 1.0, 1.0, 9.0]) / 3.0
        ok = bool(np.array_equal(ratios, expect))
        _line("criterion 6 (peak-ratio hand oracle)", ok,
              f"4-sample vector -> {ratios.tolist()} exact")
        assert ok


class TestCriterion7Determinism:
    def test_thread_count_is_invisible_in_artifacts(self, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            rc = cli.main(["run", "--out", str(out),
                           "--set", "method=FC_ICEF",
                           "--threads", threads])
            assert rc == 0
            outs.append(out)
        same_ccdf = filecmp.cmp(outs[0] / "ccdf.csv", outs[1] / "ccdf.csv",
                                shallow=False)
        same_report = filecmp.cmp(outs[0] / "report.json",
                                  outs[1] / "report.json", shallow=False)
        ok = same_ccdf and same_report
        _line("criterion 7", ok,
              f"desk-scale --threads 1 vs 2: ccdf.csv identical {same_ccdf}, "
              f"report.json identical {same_report}")
        assert ok
