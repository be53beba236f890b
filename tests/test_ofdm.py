"""Transforms, QAM mapping, grid generation, the CP-OFDM modem, and the
worker pool."""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixnum import cli, icef, metrics, ofdm, wola
from mixnum.scenario import derive_dims

from conftest import make_grids, make_spec, rng, tiny_spec

DESK_SAMPLES = 4_489_216


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
        assert g0.values.shape == (512, 624)
        assert g1.values.shape == (2048, 132)
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

    @staticmethod
    def _per_symbol_grid(dims, m, seed):
        # The symbol-per-row generator, kept as the bit-exact reference:
        # one fresh generator and one mapping call per symbol, into an
        # (S, K) array.
        bd = dims.bwps[m]
        k = bd.num_subcarriers
        nbits = ofdm.bits_per_symbol(bd.modulation)
        ref = np.empty((bd.num_symbols, k), dtype=np.complex128)
        for s in range(bd.num_symbols):
            key = np.array([seed, (m << 32) | s], dtype=np.uint64)
            bits = np.random.Generator(np.random.Philox(key=key)).integers(
                0, 2, size=k * nbits)
            ref[s] = ofdm.qam_map(bits, bd.modulation)
        return ref

    def test_matches_a_per_symbol_reference(self, tiny_dims):
        for m in range(tiny_dims.num_bwps):
            ref = self._per_symbol_grid(tiny_dims, m, 7)
            assert ofdm.generate_grid(tiny_dims, m, 7).values.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", [1, 2**63 + 5, 2**64 - 1])
    def test_one_generator_per_grid_restarts_each_symbol(self, tiny_dims, seed):
        # The grid's one generator, re-keyed per symbol with its counter,
        # buffer and uint32 carry zeroed, draws what a fresh generator per
        # symbol draws, up to the largest 64-bit seed.
        for m in range(tiny_dims.num_bwps):
            ref = self._per_symbol_grid(tiny_dims, m, seed)
            assert ofdm.generate_grid(tiny_dims, m, seed).values.tobytes() == ref.tobytes()

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
        # takes the L samples at symbol_start + l_cp + offset, mixes them
        # down sample by sample by the carrier at those absolute indexes
        # and transforms them.  The receiver instead reads shifted bins of
        # the raw window and applies one phase per row, so the two differ
        # by the rounding of an L-point transform: about eps * log2(L)
        # (2.4e-15) of the rms value.  1e-13 of the peak leaves margin for
        # that and is still far below a carrier whose phase is not
        # reduced in integers (2e-12 on these short streams).
        bd = tiny_dims.bwps[1]
        l, l_cp, c = bd.l_ofdm_os, bd.l_cp_os, bd.center_scs
        stride = l + l_cp
        offset = -int(round(offset_frac * l_cp))
        g = rng("receiver windows")
        n = bd.num_symbols * stride + stride // 2
        x = g.standard_normal(n) + 1j * g.standard_normal(n)
        windows = np.empty((bd.num_symbols, l), dtype=np.complex128)
        for s in range(bd.num_symbols):
            start = s * stride + l_cp + offset
            k = start + np.arange(l)
            windows[s] = x[start: start + l] * np.exp(-2j * np.pi * (c * k % l) / l)
        ref = ofdm.dft(windows)[:, np.mod(bd.active_base, l)]
        if offset:
            ref = ref * np.exp(-2j * np.pi * bd.active_base * offset / l)[None, :]
        sig = ofdm.ComplexSignal(samples=x, sample_rate_hz=tiny_dims.fs_oversampled_hz)
        rec = ofdm.ofdm_demodulate(sig, tiny_dims, 1, offset)
        assert np.max(np.abs(rec.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bwp_index", [0, 1])
    @pytest.mark.parametrize("at_baseband", [True, False])
    def test_stream_matches_a_symbol_row_reference(self, tiny_dims, tiny_grids,
                                                   bwp_index, at_baseband):
        # The baseband modem on (S, L) rows, kept as the bit-exact
        # reference: an (S, L) spectrum, IDFT along the rows, CP stacked
        # on axis 1 and the stream read row by row.  At the carrier, the
        # reference mixes that stream sample by sample by the carrier,
        # its phase reduced in integers; the modem shifts bins and applies
        # one phase per symbol instead, so the two agree to the rounding
        # of an L-point transform (see the window test above for the
        # 1e-13 of the peak).
        grid, bd = tiny_grids[bwp_index], tiny_dims.bwps[bwp_index]
        l, l_cp, c = bd.l_ofdm_os, bd.l_cp_os, bd.center_scs
        x_f = np.zeros((grid.num_symbols, l), dtype=np.complex128)
        x_f[:, np.mod(bd.active_base, l)] = grid.values
        body = ofdm.idft(x_f)
        ref = np.concatenate([body[:, l - l_cp:], body], axis=1).reshape(-1)
        sig = ofdm.ofdm_modulate(grid, tiny_dims, at_baseband=at_baseband)
        if at_baseband:
            assert np.array_equal(sig.samples, ref)
        else:
            n = np.arange(ref.size)
            ref = ref * np.exp(2j * np.pi * (c * n % l) / l)
            assert np.max(np.abs(sig.samples - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_symbol_slice_takes_the_same_rows(self, tiny_dims, tiny_grids):
        # A slice of symbols gets the same bodies, carrier phase included,
        # as the same rows of the whole grid.
        grid = tiny_grids[1]
        full = ofdm.symbol_bodies(grid, tiny_dims)
        part = ofdm.symbol_bodies(grid, tiny_dims, slice(5, 12))
        assert part.shape == (7, full.shape[1])
        assert np.array_equal(part, full[5:12])

    @pytest.mark.parametrize("oversampled, at_baseband",
                             [(True, False), (False, True)])
    def test_a_span_equals_the_same_samples_of_the_stream(
            self, tiny_dims, tiny_grids, oversampled, at_baseband):
        # A span makes only the symbols under it, carrier phase included,
        # and gets the same samples as the whole stream: inside one
        # symbol, across CP and symbol edges, from the start and past
        # the end (cut short there).
        opts = {"oversampled": oversampled, "at_baseband": at_baseband}
        for grid in tiny_grids:
            bd = tiny_dims.bwps[grid.bwp_index]
            l_cp, stride = ((bd.l_cp_os, bd.stride_os) if oversampled
                            else (bd.l_cp, bd.stride))
            whole = ofdm.ofdm_modulate(grid, tiny_dims, **opts).samples
            n = whole.size
            for a, b in ((0, 5), (3, stride - 1), (stride - 2, stride + l_cp + 1),
                         (2 * stride + 7, 5 * stride), (n - 9, n + 50)):
                got = ofdm.ofdm_span(grid, tiny_dims, a, b, **opts)
                assert got.tobytes() == whole[a:b].tobytes()

    @pytest.mark.parametrize("wola_factor", [None, 0.5])
    def test_symbols_congruent_modulo_l_are_bit_identical(self, wola_factor):
        # Every symbol carries the same payload row.  The carrier repeats
        # every l samples, so two symbols whose first body samples are
        # congruent modulo l must give the same samples bit for bit; a
        # carrier whose phase grows with the sample index does not.  For
        # the 60 kHz BWP, 128 strides of 2192 samples are 137 * 2048, so
        # symbols s and s + 128 qualify (33 base symbols give 132).
        from mixnum.scenario import derive_dims

        dims = derive_dims(make_spec(duration_symbols_base=33))
        bd = dims.bwps[1]
        stride, lag = bd.stride_os, 128
        assert lag * stride % bd.l_ofdm_os == 0
        row = ofdm.generate_grid(dims, 1, 3).values[0]
        grid = ofdm.ResourceGrid(1, np.tile(row, (bd.num_symbols, 1)))
        if wola_factor is None:
            x = ofdm.ofdm_modulate(grid, dims).samples
        else:
            x = wola.modulate_wola(grid, dims, wola_factor).samples
        # Inner symbols: WOLA's first symbol has no predecessor's tail and
        # its last none of a successor's head.
        for s in (1, 2, bd.num_symbols - lag - 2):
            a = x[s * stride: (s + 1) * stride]
            b = x[(s + lag) * stride: (s + lag + 1) * stride]
            assert a.tobytes() == b.tobytes()

    def test_carrier_phase_is_continuous_across_symbols(self, tiny_dims):
        # A single center subcarrier must come out as one uninterrupted
        # complex tone at the subband center frequency, with no phase reset
        # at symbol boundaries and the cyclic prefix consistent with it.
        bd = tiny_dims.bwps[1]
        values = np.zeros((bd.num_symbols, len(bd.active_base)), dtype=np.complex128)
        k0 = int(np.flatnonzero(bd.active_base == 0)[0])
        values[:, k0] = 1.0
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


class TestStageChunks:
    @given(st.integers(0, 5000), st.integers(1, 9000), st.integers(1, 2**14))
    def test_even_slices_tile_the_rows(self, n, row_len, chunk_samples):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
            chunks = ofdm.stage_chunks(n, row_len)
        size = max(1, chunk_samples // row_len)
        assert len(chunks) == min(n, 4 * math.ceil(math.ceil(n / size) / 4))
        assert [i for c in chunks for i in range(c.start, c.stop)] == list(range(n))
        sizes = [c.stop - c.start for c in chunks] or [0]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= size

    def test_the_clip_loops_split_evenly(self):
        # At the default chunk: 110 active 2048-sample symbols (I_ICEF's
        # 60 kHz subband at 9 dB, 256 base symbols) and 137 8192-sample
        # blocks (FC_ICEF at 5 dB, 64 base symbols).  One chunk and
        # 32/32/32/32/9 rows before the split was even.
        assert [c.stop - c.start for c in ofdm.stage_chunks(110, 2048)] == [27, 28, 27, 28]
        assert ({c.stop - c.start for c in ofdm.stage_chunks(137, 8192)}
                == {17, 18})
        assert len(ofdm.stage_chunks(137, 8192)) == 8


class TestPowerStats:
    @given(st.integers(1, 5000), st.integers(1, 2**12), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_match_numpy(self, n, chunk_samples, threads, seed):
        # Magnitudes over many decades, so a sum in another order shows in
        # the last bits; leaves of 128 samples up to 2^12.
        g = rng(seed)
        x = ((g.standard_normal(n) + 1j * g.standard_normal(n))
             * g.exponential(size=n) ** 4)
        p = np.abs(x) ** 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
            mean, peak = ofdm.power_stats(x, threads)
        assert np.float64(mean).tobytes() == np.mean(p).tobytes()
        assert np.float64(peak).tobytes() == np.max(p).tobytes()

    def test_match_numpy_at_desk_length(self, fast_switching):
        # 4 489 216 samples in 32 leaves of 140 288 at the default chunk.
        g = rng("power desk")
        x = g.standard_normal(DESK_SAMPLES) + 1j * g.standard_normal(DESK_SAMPLES)
        p = np.abs(x) ** 2
        for threads in (1, 3):
            mean, peak = ofdm.power_stats(x, threads)
            assert np.float64(mean).tobytes() == np.mean(p).tobytes()
            assert np.float64(peak).tobytes() == np.max(p).tobytes()


class TestPool:
    def test_one_pool_serves_every_run(self, monkeypatch):
        # 20 rounds of 2 BWPs, each round a WOLA composite and a
        # demodulation per BWP: every stage maps on the same pool.
        built = []

        class Counting(ofdm.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ofdm, "ThreadPoolExecutor", Counting)
        ofdm._pool.cache_clear()
        try:
            spec = make_spec(method="E_ICEF_WOLA", duration_symbols_base=16,
                             papr_target_db=5.0)
            dims = derive_dims(spec)
            grids = make_grids(spec, dims)
            for _ in range(2):
                icef.run_e_icef(spec, dims, grids, threads=2)
        finally:
            ofdm._pool.cache_clear()
        assert built == [{"max_workers": 2}]

    def test_no_task_maps_on_the_pool_it_runs_on(self, monkeypatch):
        # A pool task that called ``pmap`` with threads > 1 would wait on
        # its own pool; the guard fails such a call instead of waiting.
        pool = ofdm._pool
        calls = []

        def guarded(threads):
            worker = threading.current_thread().name
            assert not worker.startswith("ThreadPoolExecutor"), worker
            calls.append(threads)
            return pool(threads)

        monkeypatch.setattr(ofdm, "_pool", guarded)
        for method in ("NONE", "FC_F_OFDM", "I_ICEF", "E_ICEF_WOLA",
                       "FC_ICEF"):
            spec = tiny_spec(method=method)
            sig, dims, grids = cli.execute(spec, threads=2)
            metrics.measure_all(sig, spec, dims, grids, threads=2)
        assert calls and set(calls) == {2}

    def test_every_map_of_two_rows_gets_two_tasks(self, monkeypatch):
        # I_ICEF on 8 base symbols at 9 dB, in chunks of 2^15 samples: 4
        # rows of the 15 kHz subband and 16 of the 60 kHz one.  Each
        # round's active rows of a subband fit in one such chunk, so with
        # chunks filled in order every round ran as one task and left a
        # worker idle.
        pool = ofdm._pool
        maps = []

        class Recording:
            def __init__(self, threads):
                self.pool = pool(threads)

            def map(self, fn, chunks):
                chunks = list(chunks)
                maps.append([c.stop - c.start if isinstance(c, slice)
                             else len(c) for c in chunks])
                return self.pool.map(fn, chunks)

        monkeypatch.setattr(ofdm, "_pool", Recording)
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", 1 << 15)
        spec = tiny_spec(method="I_ICEF", papr_target_db=9.0)
        dims = derive_dims(spec)
        icef.run_i_icef(spec, dims, make_grids(spec, dims), threads=2)
        assert any(sum(rows) <= 16 for rows in maps)
        assert all(len(rows) >= 2 for rows in maps if sum(rows) >= 2), maps
