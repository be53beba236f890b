"""Fast-convolution filter bank: windows, block geometry, translation."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from mixnum import fc, ofdm, wola
from mixnum.fc import (FcWindow, combine, design_window, ols_extract, segment,
                       subband_forward)
from mixnum.fc_icef import run_fc_icef
from mixnum.scenario import FcDims, derive_dims

from conftest import make_grids, make_spec, rng, tiny_spec, traced_peak


def _tiny_fcd(interp=4):
    l = 32
    return FcDims(transform_len=l, interpolation=interp, step_len=l // 2,
                  transition_bins=0, bin_spacing_hz=15e3)


def _all_pass_window(l, center=0):
    return FcWindow(center_bin=center, half=l // 2, gains=np.ones(l))


def _chain(x, window, fcd):
    """Segment, map and combine one subband; return its time blocks."""
    mapped = subband_forward(segment(x, fcd), window, fcd, 0)
    spectra = np.zeros((mapped.shape[0], fcd.inverse_len), dtype=np.complex128)
    return combine(spectra, [mapped], [window])


def _interp_reference(x, interp):
    """Zero-stuffed spectral interpolation of a stream by ``interp``."""
    big = np.fft.fft(x)
    stuffed = np.zeros(x.size * interp, dtype=np.complex128)
    half = x.size // 2
    stuffed[:half] = big[:half]
    stuffed[-half:] = big[-half:]
    return np.fft.ifft(stuffed) * interp


class TestDesignWindow:
    def test_desk_window_geometry(self, desk_dims):
        w0 = design_window(desk_dims.bwps[0], desk_dims.fc)
        w1 = design_window(desk_dims.bwps[1], desk_dims.fc)
        assert w0.center_bin == -332 and w1.center_bin == 332
        # The support is the passband plus 12 transition bins a side.
        # 15 kHz: one bin per subcarrier; 60 kHz: four bins per subcarrier.
        t = desk_dims.fc.transition_bins
        assert w0.gains.size == 648 == 624 + 2 * t
        assert w1.gains.size == 4 * 132 + 2 * t
        for w in (w0, w1):
            assert w.gains.size == 2 * w.half
            assert (w.gains[t:-t] == 1.0).all()

    def test_transition_ramps_are_complementary(self, desk_dims):
        w = design_window(desk_dims.bwps[0], desk_dims.fc)
        t = desk_dims.fc.transition_bins
        lo, hi = w.gains[:t], w.gains[-t:]
        assert np.array_equal(lo, wola.rc_ramp(t))
        assert np.array_equal(hi, lo[::-1])
        assert (lo + lo[::-1] == 1.0).all()
        assert (lo > 0).all() and (lo < 1).all()


class TestSegmentAndExtract:
    def test_segment_geometry(self):
        fcd = _tiny_fcd()
        x = np.arange(100, dtype=np.complex128)
        blocks = segment(x, fcd)
        n_blocks = -(-(100 + fcd.head_pad) // fcd.step_len)
        assert blocks.shape == (n_blocks, fcd.transform_len)
        assert blocks.flags.c_contiguous
        padded = np.zeros((n_blocks - 1) * fcd.step_len + fcd.transform_len,
                          dtype=np.complex128)
        padded[fcd.head_pad : fcd.head_pad + 100] = x
        for r in range(n_blocks):
            start = r * fcd.step_len
            assert np.array_equal(blocks[r],
                                  padded[start : start + fcd.transform_len])

    def test_segment_then_extract_is_bit_exact(self):
        # With half an overlap of head padding, the kept centers tile the
        # source exactly; no transforms involved, so equality is bitwise.
        # Without interpolation the inverse blocks are the forward blocks.
        fcd = _tiny_fcd(interp=1)
        g = rng("ols")
        x = g.standard_normal(173) + 1j * g.standard_normal(173)
        back = ols_extract(segment(x, fcd), fcd, x.size)
        assert np.array_equal(back, x)
        # A chunk of rows extracts its own stretch of the stream.
        rows = slice(3, 7)
        part = ols_extract(segment(x, fcd, rows), fcd, x.size, rows.start)
        assert np.array_equal(part, x[3 * fcd.step_len: 7 * fcd.step_len])


    @pytest.mark.parametrize("chunk_rows", [1, 5, 1000])
    def test_blocks_cut_from_symbol_rows_equal_the_stream_cut(self, monkeypatch,
                                                             chunk_rows):
        # The bank cuts each chunk's blocks from the symbols under it; the
        # reference is segment of the whole ofdm_modulate stream.  8 base
        # symbols give 18 blocks of 2048 samples every 1024: block 0 starts
        # in the head pad, the 60 kHz subband's 548-sample symbols meet in
        # every block and the 15 kHz subband's 2192-sample ones in most,
        # and block 17 runs past the stream's end.  The chunks are single
        # rows, four or five rows, and the four default chunks.
        spec = tiny_spec(method="FC_F_OFDM")
        dims = derive_dims(spec)
        fcd = dims.fc
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES",
                            chunk_rows * fcd.inverse_len)
        for g in make_grids(spec, dims):
            x = ofdm.ofdm_modulate(g, dims, oversampled=False,
                                   at_baseband=True).samples
            ref = segment(x, fcd)
            read = partial(ofdm.ofdm_span, g, dims, oversampled=False,
                           at_baseband=True)
            for sl in ofdm.stage_chunks(ref.shape[0], fcd.inverse_len):
                got = fc._cut(read, fcd, sl.start, sl.stop)
                assert got.tobytes() == ref[sl].tobytes()


class TestSubbandForward:
    def test_energy_relation_for_all_pass_window(self):
        fcd = _tiny_fcd()
        g = rng("parseval")
        x = g.standard_normal(96) + 1j * g.standard_normal(96)
        blocks = segment(x, fcd)
        v_t = _chain(x, _all_pass_window(fcd.transform_len), fcd)
        # Unity passband gain: each interpolated block carries interp times
        # the energy of its source block.
        e_in = np.sum(np.abs(blocks) ** 2, axis=1)
        e_out = np.sum(np.abs(v_t) ** 2, axis=1)
        assert np.allclose(e_out, fcd.interpolation * e_in, rtol=1e-12)

    def test_all_pass_chain_is_spectral_interpolation(self):
        fcd = _tiny_fcd()
        l = fcd.transform_len
        t = np.arange(6 * l)
        x = (np.exp(2j * np.pi * 3 * t / l)
             + 0.25 * np.exp(-2j * np.pi * 7 * t / l))
        y = ols_extract(_chain(x, _all_pass_window(l), fcd), fcd,
                        fcd.interpolation * x.size)
        y_ref = _interp_reference(x, fcd.interpolation)
        margin = fcd.keep_len
        err = np.max(np.abs(y - y_ref)[margin:-margin]) / np.max(np.abs(y_ref))
        assert err <= 1e-9

    def test_corrupted_window_breaks_reconstruction(self):
        fcd = _tiny_fcd()
        l = fcd.transform_len
        t = np.arange(6 * l)
        x = np.exp(2j * np.pi * 3 * t / l)
        bad = _all_pass_window(l)
        bad.gains[l // 2 + 3] = 1.05
        y = ols_extract(_chain(x, bad, fcd), fcd, fcd.interpolation * x.size)
        y_ref = _interp_reference(x, fcd.interpolation)
        margin = fcd.keep_len
        err = np.max(np.abs(y - y_ref)[margin:-margin]) / np.max(np.abs(y_ref))
        assert err > 1e-3

    @pytest.mark.parametrize("center", [37, -21])
    def test_bin_mapping_translates_with_continuous_phase(self, center):
        # A periodic two-tone block stream mapped at a nonzero center bin
        # must equal the interpolated input times one continuous complex
        # carrier whose phase is referenced to the padded stream origin —
        # any per-block phase discontinuity would show up as a seam error.
        fcd = _tiny_fcd()
        l, interp = fcd.transform_len, fcd.interpolation
        t = np.arange(6 * l)
        x = (np.exp(2j * np.pi * 3 * t / l)
             + 0.25 * np.exp(-2j * np.pi * 7 * t / l))
        y = ols_extract(_chain(x, _all_pass_window(l, center=center), fcd), fcd,
                        interp * x.size)
        n = np.arange(x.size * interp)
        carrier = np.exp(2j * np.pi * center * (n + interp * fcd.head_pad)
                         / (interp * l))
        y_ref = _interp_reference(x, interp) * carrier
        margin = fcd.keep_len
        err = np.max(np.abs(y - y_ref)[margin:-margin]) / np.max(np.abs(y_ref))
        assert err <= 1e-9

    def test_every_desk_rotation_is_exactly_one(self, desk_dims):
        # Both desk subbands advance a whole number of turns per block
        # (center_bin * step_len / L = -166 and +166), so every true rotation
        # is 1 + 0j.  The integer-reduced phase gives exactly that on every
        # block; a float phase center*step/L * r drifts with r.  Impulse
        # blocks under a unity window make the output the rotation times N/L.
        fcd = desk_dims.fc
        bd0 = desk_dims.bwps[0]
        n_blocks = fcd.num_blocks(bd0.num_symbols * bd0.stride)
        impulses = np.zeros((256, fcd.transform_len), dtype=np.complex128)
        impulses[:, 0] = 1.0
        for bd in desk_dims.bwps:
            w = design_window(bd, fcd)
            unity = FcWindow(center_bin=w.center_bin, half=w.half,
                             gains=np.ones(w.gains.size))
            for first in range(0, n_blocks, impulses.shape[0]):
                rows = impulses[: n_blocks - first]
                out = subband_forward(rows, unity, fcd, first)
                assert np.all(out == fcd.interpolation)

    def test_wrong_block_length_is_rejected(self):
        # The window gains do not broadcast against a short block.
        fcd = _tiny_fcd()
        short = segment(np.zeros(64), fcd)[:, :16]
        with pytest.raises(ValueError):
            subband_forward(short, _all_pass_window(fcd.transform_len), fcd, 0)


class TestFilteredComposite:
    def test_output_geometry_and_determinism(self):
        spec = tiny_spec(method="FC_F_OFDM")
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {}
        out = fc.run_fc_f_ofdm(spec, dims, grids, info=info)
        assert out.sample_rate_hz == dims.fs_oversampled_hz
        # Interpolated nominal-rate stream length: symbols times nominal
        # stride times the interpolation factor.
        nominal = dims.bwps[0].num_symbols * (dims.bwps[0].l_ofdm + dims.bwps[0].l_cp)
        assert out.samples.size == nominal * spec.oversampling
        assert info["iterations"] == 0
        assert len(info["windows"]) == 2
        again = fc.run_fc_f_ofdm(spec, dims, grids)
        assert np.array_equal(out.samples, again.samples)

    def test_subband_spectra_block_count(self):
        spec = tiny_spec(method="FC_F_OFDM")
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        v_f, v_t, windows = fc.fc_subband_spectra(dims, grids)
        fcd = dims.fc
        nominal = dims.bwps[0].num_symbols * (dims.bwps[0].l_ofdm + dims.bwps[0].l_cp)
        expect_blocks = -(-(nominal + fcd.head_pad) // fcd.step_len)
        assert v_f.shape == (expect_blocks, fcd.inverse_len)
        assert v_t.shape == v_f.shape
        assert np.array_equal(v_t, ofdm.idft(v_f))
        assert len(windows) == 2

    @staticmethod
    def _batch(dims, grids):
        """Whole-batch filter bank: every block of each subband at once,
        weighted by the full L-bin window (zeros off the support), one
        fancy-index scatter-add and one inverse transform."""
        fcd = dims.fc
        l, n = fcd.transform_len, fcd.inverse_len
        total = None
        for g, bd in zip(grids, dims.bwps):
            w = design_window(bd, fcd)
            weights = np.zeros(l)
            weights[l // 2 - w.half: l // 2 + w.half] = w.gains
            x = ofdm.ofdm_modulate(g, dims, oversampled=False,
                                   at_baseband=True).samples
            out = np.fft.fftshift(ofdm.dft(segment(x, fcd)), axes=1)
            out *= (weights * fcd.interpolation)[None, :]
            r = np.arange(out.shape[0])
            out *= np.exp(2j * np.pi * (w.center_bin * fcd.step_len * r % l)
                          / l)[:, None]
            if total is None:
                total = np.zeros((out.shape[0], n), dtype=np.complex128)
            total[:, np.mod(w.center_bin - l // 2 + np.arange(l), n)] += out
        return total, ofdm.idft(total)

    @pytest.mark.parametrize("rows", [1, 3, 1000])
    def test_threads_and_chunks_leave_the_batch_unchanged(self, monkeypatch,
                                                          fast_switching, rows):
        # The whole-batch bank, kept as the bit-exact reference, against
        # FC_ICEF's chunked synthesis with no clipping round: the 18 block
        # rows in chunks of 1, 2 or 3 and 4 or 5 rows.  The spectra FC_ICEF keeps on
        # K_E, expanded, must equal the full sum, +0.0 bits off K_E included.
        spec = tiny_spec(method="FC_ICEF", max_iterations=0)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        total, ref_t = self._batch(dims, grids)
        bd = dims.bwps[0]
        ref = ols_extract(ref_t, dims.fc, bd.num_symbols * bd.stride_os)
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", rows * dims.fc.inverse_len)
        for threads in (1, 2, 3):
            info: dict = {"keep_spectra": True}
            out = run_fc_icef(spec, dims, grids, info=info, threads=threads)
            assert info["v_f_orig"].tobytes() == total.tobytes()
            assert out.samples.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("chunk_samples", [1000, 5 * 8192, 1 << 18])
    def test_streamed_output_equals_the_batch_path(self, monkeypatch,
                                                   fast_switching, chunk_samples):
        # ols_extract of the whole-batch bank's time blocks, bit for bit;
        # the 18 block rows in chunks of 1 row, and in four chunks of 4 or 5
        # rows whether the cap is 5 or 32 rows.
        spec = tiny_spec(method="FC_F_OFDM")
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        _, ref_t = self._batch(dims, grids)
        bd = dims.bwps[0]
        ref = ols_extract(ref_t, dims.fc, bd.num_symbols * bd.stride_os)
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
        for threads in (1, 3):
            out = fc.run_fc_f_ofdm(spec, dims, grids, threads=threads)
            assert out.sample_rate_hz == dims.fs_oversampled_hz
            assert out.samples.tobytes() == ref.tobytes()

    def test_builds_no_nominal_rate_stream(self):
        # 64 base symbols, 561,152 samples, one thread: the output (1
        # signal size) and chunk temporaries.  The traced peak is 1.57
        # signal sizes; it was 2.07 while the bank built each subband's
        # whole nominal-rate stream (0.5 signal sizes together).
        spec = make_spec(method="FC_F_OFDM", duration_symbols_base=64)
        dims = derive_dims(spec)
        out, peak = traced_peak(fc.run_fc_f_ofdm, spec, dims,
                                make_grids(spec, dims))
        assert peak <= 1.8 * out.samples.nbytes

    def test_out_of_band_rejection(self):
        # The filtered composite must be strongly suppressed between and
        # outside the allocations.  The clear strip between the 15 kHz
        # allocation's upper edge and the 60 kHz allocation's lower
        # transition is only (-0.12, 0.84) MHz wide.
        from mixnum.metrics import psd_welch

        spec = tiny_spec(method="FC_F_OFDM")
        dims = derive_dims(spec)
        out = fc.run_fc_f_ofdm(spec, dims, make_grids(spec, dims))
        est = psd_welch(out, 30e3)
        peak = np.max(est.density)
        gap = (est.freq_hz >= 0.0) & (est.freq_hz <= 0.7e6)
        oob = np.abs(est.freq_hz) >= 11e6
        assert 10 * np.log10(np.max(est.density[gap]) / peak) < -60.0
        assert 10 * np.log10(np.max(est.density[oob]) / peak) < -90.0
