"""Weighted-overlap-add symbol shaping: windows, assembly, and recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixnum import ofdm, wola
from mixnum.scenario import derive_dims

from conftest import (THREE_BWPS, batch_assemble, make_grids, rng,
                      tiny_spec)


def _assemble(bodies, p, threads=1):
    out = np.zeros(len(bodies) * p.stride + p.l_ext // 2, dtype=np.complex128)
    wola.wola_add(out, bodies.__getitem__, len(bodies), p, threads=threads)
    return out


class TestRaisedCosineRamp:
    @pytest.mark.parametrize("n", [2, 12, 100, 402])
    def test_complementarity_is_bit_exact(self, n):
        w = wola.rc_ramp(n)
        assert (w + w[::-1] == 1.0).all()

    @pytest.mark.parametrize("n", [2, 12, 100, 402])
    def test_strictly_increasing_inside_open_unit_interval(self, n):
        w = wola.rc_ramp(n)
        assert (np.diff(w) > 0).all()
        assert w[0] > 0.0 and w[-1] < 1.0

    def test_half_sample_offset_values(self):
        # Sample points sit at (i + 1/2)/n, so the first value of a length-2
        # ramp is sin^2(pi/8).
        w = wola.rc_ramp(2)
        assert w[0] == pytest.approx(np.sin(np.pi / 8) ** 2, abs=1e-15)
        assert w[1] == pytest.approx(1 - np.sin(np.pi / 8) ** 2, abs=1e-15)


class TestWolaParams:
    def test_extension_lengths_for_both_numerologies(self, desk_dims):
        p0 = wola.WolaParams.from_dims(desk_dims.bwps[0], 0.7)
        p1 = wola.WolaParams.from_dims(desk_dims.bwps[1], 0.7)
        assert (p0.l_ofdm, p0.l_cp, p0.l_ext) == (8192, 576, 402)
        assert (p1.l_ofdm, p1.l_cp, p1.l_ext) == (2048, 144, 100)
        assert p0.window_len == 8768 + 402 == 9170
        assert p1.window_len == 2192 + 100 == 2292
        assert p0.stride == 8768 and p1.stride == 2192

    def test_zero_factor_degenerates_to_plain_cp(self, desk_dims):
        p = wola.WolaParams.from_dims(desk_dims.bwps[0], 0.0)
        assert p.l_ext == 0
        assert p.window_len == p.stride


class TestWindow:
    @pytest.mark.parametrize("l_ext", [0, 100, 402])
    def test_window_edges_are_complementary(self, l_ext):
        # Consecutive windows sit one stride apart, so this window's
        # down-ramp adds to the next window's up-ramp sample by sample;
        # their sum must be exactly one.
        p = wola.WolaParams(l_ofdm=8192, l_cp=576, l_ext=l_ext)
        w = wola.build_rc_window(p)
        assert w.size == p.window_len
        if l_ext:
            head = w[: p.l_ext]
            tail = w[w.size - p.l_ext :]
            assert (head + tail == 1.0).all()
        flat = w[p.l_ext : w.size - p.l_ext]
        assert (flat == 1.0).all()

    def test_shifted_copies_overlap_to_exactly_one(self):
        p = wola.WolaParams(l_ofdm=64, l_cp=16, l_ext=8)
        w = wola.build_rc_window(p)
        acc = np.zeros(p.stride * 4 + p.l_ext, dtype=np.float64)
        for s in range(4):
            acc[s * p.stride : s * p.stride + w.size] += w
        interior = acc[p.l_ext : 4 * p.stride]
        assert np.max(np.abs(interior - 1.0)) == 0.0


class TestSymbolShaping:
    def test_extension_copies_are_cyclic(self):
        p = wola.WolaParams(l_ofdm=32, l_cp=8, l_ext=4)
        g = rng("cyclic")
        body = g.standard_normal(32) + 1j * g.standard_normal(32)
        shaped = wola.wola_symbol(body, p)
        assert shaped.size == p.window_len
        w = wola.build_rc_window(p)
        # Head: half-extension + prefix taken from the body tail; tail: the
        # leading body samples again. All are windowed cyclic copies.
        ext = np.concatenate([body[-(p.l_cp + p.l_ext // 2) :], body, body[: p.l_ext // 2]])
        assert np.allclose(shaped, ext * w, atol=0, rtol=1e-15)

    def test_flat_region_passes_body_through_bit_exact(self):
        # Window samples in the flat top are exactly 1.0, so the body is
        # transmitted bit-identically there.
        p = wola.WolaParams(l_ofdm=32, l_cp=8, l_ext=4)
        g = rng("flat")
        body = g.standard_normal(32) + 1j * g.standard_normal(32)
        shaped = wola.wola_symbol(body, p)
        start = p.l_cp + p.l_ext // 2  # body sample 0 inside the shaped symbol
        flat_lo = max(p.l_ext - start, 0)
        flat_hi = 32 - max(start + 32 + p.l_ext // 2 - (p.window_len - p.l_ext), 0)
        assert np.array_equal(shaped[start + flat_lo : start + flat_hi], body[flat_lo:flat_hi])

    def test_assemble_length_and_placement(self):
        # Feed constant-one bodies; assembly must reproduce the summed
        # window profile with the leading half-extension dropped.
        p = wola.WolaParams(l_ofdm=32, l_cp=8, l_ext=4)
        bodies = np.ones((3, p.l_ofdm), dtype=np.complex128)
        out = _assemble(bodies, p)
        assert out.size == 3 * p.stride + p.l_ext // 2
        w = wola.build_rc_window(p)
        acc = np.zeros(3 * p.stride + p.l_ext, dtype=np.float64)
        for s in range(3):
            acc[s * p.stride : s * p.stride + p.window_len] += w
        assert np.allclose(out, acc[p.l_ext // 2 :], atol=1e-15)

    def test_assemble_matches_a_per_symbol_overlap_add(self, monkeypatch):
        # The symbol-per-column assembly, kept as the bit-exact reference:
        # one add per symbol into a zero buffer.  Bodies of negative zeros
        # check that every output sample is still ``0.0 + x``, for chunks
        # of 1 symbol, four chunks of 1, 1, 1 and 2 symbols, and any thread
        # count.
        p = wola.WolaParams(l_ofdm=32, l_cp=8, l_ext=4)
        g = rng("overlap-add")
        bodies = g.standard_normal((5, 32)) + 1j * g.standard_normal((5, 32))
        bodies[1] = complex(-0.0, -0.0)
        bodies[3, ::2] = complex(-0.0, -0.0)
        cols = bodies.T
        half = p.l_ext // 2
        ext = np.concatenate([cols[p.l_ofdm - p.l_cp - half:], cols, cols[:half]],
                             axis=0)
        windowed = ext * wola.build_rc_window(p)[:, None]
        buf = np.zeros(5 * p.stride + p.l_ext, dtype=np.complex128)
        for s in range(5):
            buf[s * p.stride: s * p.stride + p.window_len] += windowed[:, s]
        for chunk_samples in (1, 2 * p.window_len, 1 << 18):
            monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
            for threads in (1, 3):
                out = _assemble(bodies, p, threads)
                assert out.size == buf[half:].size
                assert out.tobytes() == buf[half:].tobytes()

    @given(st.integers(0, 2**32 - 1))
    def test_overlap_add_of_constant_symbols_is_flat(self, seed):
        g = rng(seed)
        p = wola.WolaParams(l_ofdm=64, l_cp=16, l_ext=2 * int(g.integers(1, 8)))
        c = complex(g.standard_normal() + 1j * g.standard_normal())
        bodies = np.full((5, p.l_ofdm), c, dtype=np.complex128)
        out = _assemble(bodies, p)
        interior = out[p.l_ext // 2 : 4 * p.stride]
        assert np.max(np.abs(interior - c)) <= 1e-14 * max(1.0, abs(c))


class TestModulateAndRecover:
    @pytest.mark.parametrize("bwp_index", [0, 1])
    def test_mid_prefix_receiver_recovers_the_grid(self, tiny_dims, tiny_grids, bwp_index):
        spec = tiny_spec()
        sig = wola.modulate_wola(tiny_grids[bwp_index], tiny_dims, spec.wola_extension_factor)
        off = -tiny_dims.bwps[bwp_index].l_cp_os // 2
        rec = ofdm.ofdm_demodulate(sig, tiny_dims, bwp_index, timing_offset=off)
        err = np.max(np.abs(rec.values - tiny_grids[bwp_index].values))
        assert err <= 1e-10

    def test_nominal_timing_catches_the_overlap_ramp(self, tiny_dims, tiny_grids):
        # The receiver window at offset 0 straddles the raised-cosine ramp
        # of the following symbol; recovery must be visibly degraded, which
        # is why all measurements use the mid-prefix timing.
        spec = tiny_spec()
        sig = wola.modulate_wola(tiny_grids[0], tiny_dims, spec.wola_extension_factor)
        rec = ofdm.ofdm_demodulate(sig, tiny_dims, 0, timing_offset=0)
        err = np.max(np.abs(rec.values - tiny_grids[0].values))
        assert err > 1e-3

    @pytest.mark.parametrize("chunk_samples",
                             [1, 7, 1000, 7000, 12345, 27510, 1 << 18])
    def test_threads_and_chunks_leave_the_stream_unchanged(
            self, monkeypatch, fast_switching, tiny_dims, tiny_grids,
            chunk_samples):
        # The whole-batch overlap-add of all bodies, kept as the bit-exact
        # reference: each body is the inverse transform of the allocation
        # at the carrier bins times the carrier's phase at its first body
        # sample, reduced in integers.  27510 samples are three 15 kHz
        # windows (8 symbols) or twelve 60 kHz ones (32), so the streams go
        # in four chunks that end mid-stream; 7000 samples split the 32
        # symbols into 12 chunks of 2 or 3; 1 and 7 samples give one symbol
        # per chunk.
        spec = tiny_spec()
        refs = []
        for g in tiny_grids:
            bd = tiny_dims.bwps[g.bwp_index]
            l, l_cp, c = bd.l_ofdm_os, bd.l_cp_os, bd.center_scs
            params = wola.WolaParams.from_dims(bd, spec.wola_extension_factor)
            x_f = np.zeros((g.num_symbols, l), dtype=np.complex128)
            x_f[:, np.mod(bd.active_base + c, l)] = g.values
            n0 = np.arange(g.num_symbols) * bd.stride_os + l_cp
            bodies = ofdm.idft(x_f) * np.exp(2j * np.pi * (c * n0 % l) / l)[:, None]
            refs.append(batch_assemble(bodies, params).tobytes())
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
        for threads in (1, 2, 3):
            for g, ref in zip(tiny_grids, refs):
                out = wola.modulate_composite([g], tiny_dims,
                                              spec.wola_extension_factor,
                                              threads=threads)
                assert out.samples.tobytes() == ref

    def test_zero_extension_matches_plain_cp_modulator(
            self, monkeypatch, fast_switching, tiny_dims, tiny_grids):
        # E_ICEF builds its plain-CP composite this way, so the equality is
        # exact: one BWP, and both BWPs' ``ofdm_modulate`` streams summed in
        # list order.  35000 samples allow 3 and 15 symbols a chunk, so the
        # 8 and 32 symbols go in four chunks of 2 and 8; 1 sample gives one
        # symbol per chunk.
        streams = [ofdm.ofdm_modulate(g, tiny_dims).samples for g in tiny_grids]
        cases = [(tiny_grids[:1], streams[0].tobytes()),
                 (tiny_grids, (streams[0] + streams[1]).tobytes())]
        for chunk_samples in (1, 35000, 1 << 18):
            monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
            for threads in (1, 2, 3):
                for grids, ref in cases:
                    out = wola.modulate_composite(grids, tiny_dims, 0.0,
                                                  threads=threads)
                    assert out.samples.tobytes() == ref


class TestAggregate:
    def test_zero_pads_to_the_longest_component(self):
        a = ofdm.ComplexSignal(samples=np.ones(10, dtype=np.complex128), sample_rate_hz=1.0)
        b = ofdm.ComplexSignal(samples=2 * np.ones(6, dtype=np.complex128), sample_rate_hz=1.0)
        out = wola.aggregate([a, b])
        assert out.samples.size == 10
        assert (out.samples[:6] == 3.0).all()
        assert (out.samples[6:] == 1.0).all()

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_composite_of_three_bwps_is_the_sum_of_their_streams(self, order):
        # Three terms do not commute in floating point, so the writer must
        # add them as ``aggregate`` does: the longest stream (15 kHz, the
        # widest WOLA tail) first, then the others in list order.
        spec = tiny_spec(bwps=THREE_BWPS)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        grids = [grids[m] for m in order]
        ext = spec.wola_extension_factor
        ref = wola.aggregate([wola.modulate_wola(g, dims, ext) for g in grids])
        out = wola.modulate_composite(grids, dims, ext)
        assert out.samples.tobytes() == ref.samples.tobytes()
