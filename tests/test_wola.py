"""Weighted-overlap-add symbol shaping: windows, assembly, and recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixnum import ofdm, wola

from conftest import rng, tiny_spec


def _batch_assemble(bodies, p):
    """Whole-batch overlap-add of a (S, L) body batch, the bit-exact reference.

    Every window's first ``stride`` samples are added into their own row of
    a zero buffer and the ``l_ext`` after them into the head of the next.
    """
    windowed = wola.wola_symbol(bodies, p)
    n_sym = bodies.shape[0]
    buf = np.zeros((n_sym + 1) * p.stride, dtype=np.complex128)
    rows = buf.reshape(n_sym + 1, p.stride)
    rows[:-1] += windowed[:, :p.stride]
    rows[1:, :p.l_ext] += windowed[:, p.stride:]
    return buf[p.l_ext // 2: n_sym * p.stride + p.l_ext]


def _assemble(bodies, p, threads=1):
    return wola.wola_assemble(bodies.__getitem__, len(bodies), p, threads=threads)


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
        # of 1, 2 and all symbols and any thread count.
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

    @pytest.mark.parametrize("chunk_samples", [1000, 12345, 27510, 1 << 18])
    def test_threads_and_chunks_leave_the_stream_unchanged(
            self, monkeypatch, fast_switching, tiny_dims, tiny_grids,
            chunk_samples):
        # The whole-batch overlap-add of all bodies and the whole-stream
        # carrier multiply, kept as the bit-exact reference.  27510 samples
        # are three 15 kHz windows (8 symbols) or twelve 60 kHz ones (32),
        # so chunks end mid-stream and leave a remainder.
        spec = tiny_spec()
        refs = []
        for g in tiny_grids:
            bd = tiny_dims.bwps[g.bwp_index]
            params = wola.WolaParams.from_dims(bd, spec.wola_extension_factor)
            bodies = ofdm.idft(ofdm.grid_to_spectrum(g, tiny_dims).T)
            flat = _batch_assemble(bodies, params)
            flat *= ofdm.subband_carrier(bd, bd.l_ofdm_os, 0, flat.size)
            refs.append(flat.tobytes())
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
        for threads in (1, 2, 3):
            for g, ref in zip(tiny_grids, refs):
                out = wola.modulate_wola(g, tiny_dims, spec.wola_extension_factor,
                                         threads=threads)
                assert out.samples.tobytes() == ref

    def test_zero_extension_matches_plain_cp_modulator(self, tiny_dims, tiny_grids):
        shaped = wola.modulate_wola(tiny_grids[0], tiny_dims, 0.0)
        plain = ofdm.ofdm_modulate(tiny_grids[0], tiny_dims)
        assert shaped.samples.size == plain.samples.size
        assert np.max(np.abs(shaped.samples - plain.samples)) <= 1e-15


class TestAggregate:
    def test_zero_pads_to_the_longest_component(self):
        a = ofdm.ComplexSignal(samples=np.ones(10, dtype=np.complex128), sample_rate_hz=1.0)
        b = ofdm.ComplexSignal(samples=2 * np.ones(6, dtype=np.complex128), sample_rate_hz=1.0)
        out = wola.aggregate([a, b])
        assert out.samples.size == 10
        assert (out.samples[:6] == 3.0).all()
        assert (out.samples[6:] == 1.0).all()
