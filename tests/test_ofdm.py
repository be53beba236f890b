"""Transforms, QAM mapping, grid generation, and the CP-OFDM modem."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixnum import ofdm

from conftest import make_spec, rng, tiny_spec


class TestTransforms:
    def test_dft_of_unit_impulse_is_all_ones(self):
        x = np.zeros(16, dtype=np.complex128)
        x[0] = 1.0
        assert np.allclose(ofdm.dft(x), np.ones(16), atol=1e-14)

    def test_idft_of_all_ones_is_scaled_impulse(self):
        y = ofdm.idft(np.ones(16, dtype=np.complex128))
        expect = np.zeros(16, dtype=np.complex128)
        expect[0] = 1.0
        assert np.allclose(y, expect, atol=1e-14)

    def test_single_bin_becomes_unit_amplitude_tone(self):
        # The inverse transform carries the 1/L factor, so one unit-height
        # bin yields a complex tone of amplitude 1/L.
        l, k = 32, 5
        spec = np.zeros(l, dtype=np.complex128)
        spec[k] = 1.0
        t = np.arange(l)
        expect = np.exp(2j * np.pi * k * t / l) / l
        assert np.allclose(ofdm.idft(spec), expect, atol=1e-14)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 33, 128]))
    def test_round_trip_identity(self, seed, n):
        g = rng(seed)
        x = g.standard_normal(n) + 1j * g.standard_normal(n)
        assert np.max(np.abs(ofdm.idft(ofdm.dft(x)) - x)) <= 1e-12
        assert np.max(np.abs(ofdm.dft(ofdm.idft(x)) - x)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_energy_relation(self, seed):
        # Unnormalized forward transform: |X|^2 sums to L * |x|^2.
        g = rng(seed)
        x = g.standard_normal(64) + 1j * g.standard_normal(64)
        lhs = np.sum(np.abs(ofdm.dft(x)) ** 2)
        rhs = 64 * np.sum(np.abs(x) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_axis_argument_transforms_columns_independently(self):
        g = rng("axis")
        x = g.standard_normal((16, 3)) + 1j * g.standard_normal((16, 3))
        batched = ofdm.dft(x, axis=0)
        for c in range(3):
            assert np.allclose(batched[:, c], ofdm.dft(x[:, c]), atol=1e-12)


class TestBinRuns:
    @staticmethod
    def _scatter(first, count, n):
        # Positions k land on bins (first + k) mod n through the runs.
        out = np.full(n, -1)
        for pos, bins in ofdm.bin_runs(first, count, n):
            out[bins] = np.arange(count)[pos]
        return out

    def test_allocation_around_dc_wraps_into_two_runs(self):
        runs = ofdm.bin_runs(-3, 7, 16)
        assert runs == [(slice(0, 3), slice(13, 16)), (slice(3, 7), slice(0, 4))]
        ref = np.full(16, -1)
        ref[np.mod(-3 + np.arange(7), 16)] = np.arange(7)
        assert np.array_equal(self._scatter(-3, 7, 16), ref)

    @pytest.mark.parametrize("first, count", [(2, 5), (11, 5), (0, 16), (-16, 16)])
    def test_run_inside_the_bins_is_one_slice(self, first, count):
        runs = ofdm.bin_runs(first, count, 16)
        assert len(runs) == 1
        ref = np.full(16, -1)
        ref[np.mod(first + np.arange(count), 16)] = np.arange(count)
        assert np.array_equal(self._scatter(first, count, 16), ref)


class TestEvmLimits:
    def test_every_supported_modulation_has_its_limit(self):
        from mixnum.scenario import SUPPORTED_MODULATIONS

        expect = {"QPSK": 0.175, "16QAM": 0.125, "64QAM": 0.08,
                  "256QAM": 0.035}
        assert {m: ofdm.evm_limit(m) for m in SUPPORTED_MODULATIONS} == expect


class TestQamMapping:
    @pytest.mark.parametrize("modulation", ["QPSK", "16QAM", "64QAM", "256QAM"])
    def test_full_constellation_has_unit_mean_power(self, modulation):
        m = ofdm.bits_per_symbol(modulation)
        bits = np.array(
            [[(i >> (m - 1 - b)) & 1 for b in range(m)] for i in range(2**m)],
            dtype=np.uint8,
        ).reshape(-1)
        points = ofdm.qam_map(bits, modulation)
        assert points.size == 2**m
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("modulation", ["QPSK", "16QAM", "64QAM", "256QAM"])
    def test_mapping_is_a_bijection(self, modulation):
        m = ofdm.bits_per_symbol(modulation)
        bits = np.array(
            [[(i >> (m - 1 - b)) & 1 for b in range(m)] for i in range(2**m)],
            dtype=np.uint8,
        ).reshape(-1)
        points = ofdm.qam_map(bits, modulation)
        assert np.unique(np.round(points, 9)).size == 2**m

    @pytest.mark.parametrize("modulation", ["16QAM", "64QAM", "256QAM"])
    def test_gray_labelling_adjacent_points_differ_in_one_bit(self, modulation):
        m = ofdm.bits_per_symbol(modulation)
        bits = np.array(
            [[(i >> (m - 1 - b)) & 1 for b in range(m)] for i in range(2**m)],
            dtype=np.uint8,
        )
        points = ofdm.qam_map(bits.reshape(-1), modulation)
        label = {complex(np.round(p, 9)): i for i, p in enumerate(points)}
        axis = np.unique(np.round(points.real, 9))
        step = axis[1] - axis[0]
        for p, i in label.items():
            for d in (step, 1j * step):
                q = complex(np.round(p + d, 9))
                if q in label:
                    assert bin(i ^ label[q]).count("1") == 1

    def test_bits_per_symbol_values(self):
        assert [ofdm.bits_per_symbol(m) for m in ("QPSK", "16QAM", "64QAM", "256QAM")] == [2, 4, 6, 8]


class TestGridGeneration:
    def test_desk_scale_shapes(self, desk_dims):
        spec = make_spec(method="FC_ICEF")
        g0 = ofdm.generate_grid(desk_dims, 0, spec.seed)
        g1 = ofdm.generate_grid(desk_dims, 1, spec.seed)
        assert g0.values.shape == (624, 512)
        assert g1.values.shape == (132, 2048)
        assert g0.bwp_index == 0 and g1.bwp_index == 1

    def test_deterministic_in_seed_and_distinct_across_bwps(self, tiny_dims):
        spec = tiny_spec()
        a = ofdm.generate_grid(tiny_dims, 0, spec.seed)
        b = ofdm.generate_grid(tiny_dims, 0, spec.seed)
        assert np.array_equal(a.values, b.values)
        c = ofdm.generate_grid(tiny_dims, 0, spec.seed + 1)
        assert not np.array_equal(a.values, c.values)
        d = ofdm.generate_grid(tiny_dims, 1, spec.seed)
        assert a.values.shape != d.values.shape or not np.array_equal(a.values, d.values)

    def test_matches_a_per_symbol_reference(self, tiny_dims):
        # The symbol-per-column generator, kept as the bit-exact reference:
        # one generator and one mapping call per symbol, into a (K, S)
        # array.  The grid must stay C-ordered as well.
        for m, bd in enumerate(tiny_dims.bwps):
            k = bd.num_subcarriers
            nbits = ofdm.bits_per_symbol(bd.modulation)
            ref = np.empty((k, bd.num_symbols), dtype=np.complex128)
            for s in range(bd.num_symbols):
                key = np.array([7, (m << 32) | s], dtype=np.uint64)
                bits = np.random.Generator(np.random.Philox(key=key)).integers(
                    0, 2, size=k * nbits)
                ref[:, s] = ofdm.qam_map(bits, bd.modulation)
            grid = ofdm.generate_grid(tiny_dims, m, 7)
            assert grid.values.flags.c_contiguous
            assert grid.values.tobytes() == ref.tobytes()

    def test_values_live_on_the_declared_constellation(self, tiny_dims):
        spec = tiny_spec()
        for m, modulation in enumerate(("QPSK", "64QAM")):
            grid = ofdm.generate_grid(tiny_dims, m, spec.seed)
            nbits = ofdm.bits_per_symbol(modulation)
            bits = np.array(
                [[(i >> (nbits - 1 - b)) & 1 for b in range(nbits)] for i in range(2**nbits)],
                dtype=np.uint8,
            ).reshape(-1)
            constellation = np.unique(np.round(ofdm.qam_map(bits, modulation), 9))
            assert np.isin(np.round(grid.values.reshape(-1), 9), constellation).all()


class TestModem:
    @pytest.mark.parametrize("bwp_index", [0, 1])
    def test_round_trip_at_nominal_timing(self, tiny_dims, tiny_grids, bwp_index):
        sig = ofdm.ofdm_modulate(tiny_grids[bwp_index], tiny_dims)
        rec = ofdm.ofdm_demodulate(sig, tiny_dims, bwp_index)
        err = np.max(np.abs(rec.values - tiny_grids[bwp_index].values))
        assert err <= 1e-10

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_round_trip_with_timing_offset_inside_cp(self, seed, frac):
        spec = tiny_spec()
        from mixnum.scenario import derive_dims

        dims = derive_dims(spec)
        grid = ofdm.generate_grid(dims, 1, seed % 1000 + 1)
        offset = -int(round(frac * dims.bwps[1].l_cp_os))
        sig = ofdm.ofdm_modulate(grid, dims)
        rec = ofdm.ofdm_demodulate(sig, dims, 1, timing_offset=offset)
        assert np.max(np.abs(rec.values - grid.values)) <= 1e-9

    @pytest.mark.parametrize("offset_frac", [0.0, 0.5, 1.0])
    def test_windows_match_a_per_symbol_copy(self, tiny_dims, offset_frac):
        # Arbitrary samples with a trailing partial symbol: the receiver
        # takes, bit for bit, the L samples at symbol_start + l_cp + offset
        # and downconverts them by the carrier at those absolute indexes,
        # as the carrier's ramp over one window times its phase at the
        # window start.
        bd = tiny_dims.bwps[1]
        l, l_cp = bd.l_ofdm_os, bd.l_cp_os
        stride = l + l_cp
        offset = -int(round(offset_frac * l_cp))
        g = rng("receiver windows")
        n = bd.num_symbols * stride + stride // 2
        x = g.standard_normal(n) + 1j * g.standard_normal(n)
        ramp = ofdm.subband_carrier(bd, l, 0, l, conjugate=True)
        windows = np.empty((l, bd.num_symbols), dtype=np.complex128)
        for s in range(bd.num_symbols):
            start = s * stride + l_cp + offset
            phase = np.exp(-2j * np.pi * bd.center_scs * start / l)
            windows[:, s] = x[start: start + l] * ramp * phase
        ref = ofdm.dft(windows, axis=0)[np.mod(bd.active_base, l), :]
        if offset:
            ref = ref * np.exp(-2j * np.pi * bd.active_base * offset / l)[:, None]
        sig = ofdm.ComplexSignal(samples=x, sample_rate_hz=tiny_dims.fs_oversampled_hz)
        rec = ofdm.ofdm_demodulate(sig, tiny_dims, 1, offset)
        assert np.array_equal(rec.values, ref)

    @pytest.mark.parametrize("bwp_index", [0, 1])
    @pytest.mark.parametrize("at_baseband", [True, False])
    def test_stream_matches_a_per_column_reference(self, tiny_dims, tiny_grids,
                                                   bwp_index, at_baseband):
        # The symbol-per-column modem, kept as the bit-exact reference: an
        # (L, S) spectrum, IDFT down the columns, CP stacked on axis 0 and
        # the stream read column by column.  The carrier is the left operand
        # of the upconversion; for streams above 256 KiB, numpy's temporary
        # elision turns ``flat * subband_carrier(...)`` into exactly this.
        grid, bd = tiny_grids[bwp_index], tiny_dims.bwps[bwp_index]
        l, l_cp = bd.l_ofdm_os, bd.l_cp_os
        x_f = np.zeros((l, grid.num_symbols), dtype=np.complex128)
        x_f[np.mod(bd.active_base, l), :] = grid.values
        body = ofdm.idft(x_f, axis=0)
        ref = np.concatenate([body[l - l_cp:, :], body], axis=0).T.reshape(-1)
        if not at_baseband:
            ref = ofdm.subband_carrier(bd, l, 0, ref.size) * ref
        sig = ofdm.ofdm_modulate(grid, tiny_dims, at_baseband=at_baseband)
        assert np.array_equal(sig.samples, ref)

    def test_symbol_slice_takes_the_same_columns(self, tiny_dims, tiny_grids):
        grid = tiny_grids[1]
        full = ofdm.grid_to_spectrum(grid, tiny_dims)
        part = ofdm.grid_to_spectrum(grid, tiny_dims, symbols=slice(5, 12))
        assert part.shape == (full.shape[0], 7)
        assert np.array_equal(part, full[:, 5:12])

    def test_carrier_phase_is_continuous_across_symbols(self, tiny_dims):
        # A single center subcarrier must come out as one uninterrupted
        # complex tone at the subband center frequency, with no phase reset
        # at symbol boundaries and the cyclic prefix consistent with it.
        bd = tiny_dims.bwps[1]
        values = np.zeros((len(bd.active_base), bd.num_symbols), dtype=np.complex128)
        k0 = int(np.flatnonzero(bd.active_base == 0)[0])
        values[k0, :] = 1.0
        grid = ofdm.ResourceGrid(bwp_index=1, values=values)
        sig = ofdm.ofdm_modulate(grid, tiny_dims)
        n = np.arange(sig.samples.size)
        tone = np.exp(2j * np.pi * bd.center_scs * n / bd.l_ofdm_os) / bd.l_ofdm_os
        assert np.max(np.abs(sig.samples - tone)) <= 1e-12

    def test_mean_power_scales_with_occupancy(self, tiny_dims, tiny_grids):
        # Unit-power QAM on K of L bins, 1/L inverse scaling: body mean
        # power is K/L^2.
        bd = tiny_dims.bwps[0]
        sig = ofdm.ofdm_modulate(tiny_grids[0], tiny_dims)
        expect = len(bd.active_base) / bd.l_ofdm_os**2
        assert np.mean(np.abs(sig.samples) ** 2) == pytest.approx(expect, rel=0.1)

    def test_waveform_file_round_trip(self, tmp_path, tiny_dims, tiny_grids):
        sig = ofdm.ofdm_modulate(tiny_grids[0], tiny_dims)
        path = str(tmp_path / "wave.iq")
        ofdm.write_waveform(sig, path)
        with open(path + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        assert sidecar["sample_rate_hz"] == sig.sample_rate_hz
        assert sidecar["num_samples"] == sig.samples.size
        assert np.array_equal(np.fromfile(path, dtype="<c16"), sig.samples)
