"""In-loop clip-and-filter inside the fast-convolution filter bank."""

from __future__ import annotations

import cProfile

import numpy as np
import pytest

from mixnum import fc, metrics, ofdm
from mixnum.fc_icef import run_fc_icef, window_weights
from mixnum.scenario import derive_dims

from conftest import clip_polar, make_grids, make_spec, tiny_spec, traced_peak


class TestWindowWeights:
    def test_each_window_lands_on_its_mapped_bins(self, desk_dims):
        # Same bin mapping as the filter bank's forward half: signed bin k
        # of the support goes to output bin (center + k) mod N.
        windows = [fc.design_window(bd, desk_dims.fc) for bd in desk_dims.bwps]
        n = desk_dims.fc.inverse_len
        w = window_weights(windows, n)
        for win in windows:
            k = np.arange(-win.half, win.half)
            assert np.array_equal(w[np.mod(win.center_bin + k, n)], win.gains)
        assert np.count_nonzero(w) == sum(win.gains.size for win in windows)


def _clean_blocks(spec, dims):
    """Unprocessed (B, N) time blocks and the slice overlap-save keeps of each."""
    _, v_t, _ = fc.fc_subband_spectra(dims, make_grids(spec, dims))
    discard = (dims.fc.inverse_len - dims.fc.keep_len) // 2
    return v_t, slice(discard, discard + dims.fc.keep_len)


def _block_row_loop(spec, dims, grids):
    """The loop on full (B, N) spectra and time blocks, in fixed chunks of
    64 active blocks, kept as the bit-exact reference: iterations, first
    and final ceilings, processed spectra and output samples.  Every block
    energy is a pairwise sum along the block's own contiguous row."""
    cur, _, windows = fc.fc_subband_spectra(dims, grids)
    n_blocks, n = cur.shape
    keep = dims.fc.keep_len
    kept = slice((n - keep) // 2, (n + keep) // 2)
    weights = window_weights(windows, n)
    h_idx = np.flatnonzero(weights)
    h_w = weights[None, h_idx]
    v_t = ofdm.idft(cur)
    peaks = np.max(np.abs(v_t) ** 2, axis=1)
    energies = np.sum(np.abs(v_t[:, kept]) ** 2, axis=1)
    iters = np.zeros(n_blocks, dtype=np.int64)
    tau = 10.0 ** (spec.papr_target_db / 10.0)
    stop = 10.0 ** (spec.stop_epsilon_db / 10.0)
    amp0 = amp = float(np.sqrt(energies.sum() / (keep * n_blocks) * tau))
    for _ in range(spec.max_iterations):
        amp = float(np.sqrt(energies.sum() / (keep * n_blocks) * tau))
        active = np.flatnonzero(peaks > amp ** 2 * stop)
        if active.size == 0:
            break
        iters[active] += 1
        for c in range(0, active.size, 64):
            rows = active[c: c + 64]
            blocks = v_t[rows]
            noise_f = ofdm.dft(clip_polar(blocks, amp) - blocks)[:, h_idx]
            cur[np.ix_(rows, h_idx)] += h_w * noise_f
            fresh = ofdm.idft(cur[rows])
            v_t[rows] = fresh
            peaks[rows] = np.max(np.abs(fresh) ** 2, axis=1)
            energies[rows] = np.sum(np.abs(fresh[:, kept]) ** 2, axis=1)
    bd = dims.bwps[0]
    samples = v_t[:, kept].reshape(-1)[: bd.num_symbols * bd.stride_os]
    return iters, amp0, amp, cur, samples


# A carrier whose 30 kHz window straddles DC, so K_E has three runs, one
# of them wrapping from bin N - 1 to bin 0.
_DC_BWPS = [
    {"scs_hz": 30000.0, "num_prbs": 24, "modulation": "16QAM",
     "center_offset_hz": 0.0},
    {"scs_hz": 15000.0, "num_prbs": 12, "modulation": "QPSK",
     "center_offset_hz": -7e6},
]


class TestCompactSpectra:
    """FC_ICEF keeps only the K_E bins of each block spectrum; that is
    lossless only because the filter bank writes nothing anywhere else."""

    @pytest.mark.parametrize("bwps", [None, _DC_BWPS], ids=["default", "dc"])
    def test_bank_sum_is_positive_zero_off_the_window_supports(self, bwps):
        extra = {} if bwps is None else {"bwps": bwps}
        spec = tiny_spec(method="FC_ICEF", **extra)
        dims = derive_dims(spec)
        v_f, _, windows = fc.fc_subband_spectra(dims, make_grids(spec, dims))
        off = window_weights(windows, v_f.shape[1]) == 0
        assert off.any() and not off.all()
        # All-zero bit patterns: +0.0 real and imaginary parts, no -0.0 and
        # no tiny values.
        assert not np.ascontiguousarray(v_f[:, off]).view(np.uint64).any()

    def test_holds_the_time_blocks_and_the_k_e_rows(self):
        # 64 base symbols, 561,152 samples, one thread.  The (B, N) time
        # blocks take 2 signal sizes (N is twice the kept length) and the
        # K_E rows 0.29 (1200 of 8192 bins); the rest is chunk
        # temporaries.  The traced peak is 3.05 signal sizes (3.56 with an
        # output copy beside the blocks, 4.66 while the subband streams
        # lived through the clip loop); full (B, N) spectra and a (B, N)
        # magnitude array made it 7.94.
        spec = make_spec(method="FC_ICEF", duration_symbols_base=64)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        out, peak = traced_peak(run_fc_icef, spec, dims, grids)
        assert peak <= 5.5 * out.samples.nbytes

    def test_releases_the_nominal_rate_streams(self):
        # 64 base symbols, one thread.  The traced peak is 3.05 signal
        # sizes (4.16 when the streams were first released).  With the
        # bank's nominal-rate subband streams (0.5 signal sizes) held
        # through the clip loop it was 4.66.
        spec = make_spec(method="FC_ICEF", duration_symbols_base=64)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        out, peak = traced_peak(run_fc_icef, spec, dims, grids)
        assert peak <= 4.4 * out.samples.nbytes

    @pytest.mark.parametrize("threads, bound", [(1, 3.3), (2, 4.0)])
    def test_hands_its_block_store_over_as_the_output(self, threads, bound):
        # 64 base symbols, 5 dB.  The blocks' kept samples move to the
        # front of the store, which becomes the output, so no output copy
        # exists beside the (B, N) blocks, and the clip tasks write only
        # the samples they clip, in the gathered rows.  The traced peak is
        # 3.05 signal sizes on one thread and 3.70 on two; with an output
        # copy and out-of-place clips it was 3.55 and 4.27.
        spec = make_spec(method="FC_ICEF", duration_symbols_base=64,
                         papr_target_db=5.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        out, peak = traced_peak(run_fc_icef, spec, dims, grids, threads=threads)
        assert peak <= bound * out.samples.nbytes

    def test_samples_own_exactly_the_stream(self):
        # The store shrinks to the stream, so the samples pin no discarded
        # block halves while they are measured and written.
        spec = tiny_spec(method="FC_ICEF")
        dims = derive_dims(spec)
        out = run_fc_icef(spec, dims, make_grids(spec, dims))
        bd = dims.bwps[0]
        assert out.samples.base is None and out.samples.flags.owndata
        assert out.samples.shape == (bd.num_symbols * bd.stride_os,)

    def test_runs_under_a_profiler(self):
        # An enabled profiler holds one more reference to the store, so
        # numpy refuses to resize it in place; the runner then copies the
        # stream out instead, with the same bytes.
        spec = tiny_spec(method="FC_ICEF")
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        plain = run_fc_icef(spec, dims, grids)
        out = cProfile.Profile().runcall(run_fc_icef, spec, dims, grids)
        assert out.samples.tobytes() == plain.samples.tobytes()
        assert out.samples.base is None and out.samples.flags.owndata


class TestBlockIterate:
    """FC_ICEF's block-wise clip-and-filter loop, driven through the runner."""

    def test_zero_budget_is_identity(self):
        spec = tiny_spec(method="FC_ICEF", max_iterations=0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {"keep_spectra": True}
        out = run_fc_icef(spec, dims, grids, info=info)
        assert (info["iterations"] == 0).all()
        assert np.array_equal(info["v_f_proc"], info["v_f_orig"])
        clean = fc.run_fc_f_ofdm(spec, dims, grids)
        assert np.array_equal(out.samples, clean.samples)

    def test_single_pass_matches_manual_clip_and_filter(self):
        # One round adds each active block's clipping noise, weighted by the
        # subband windows' gains, to its spectrum; a 0/1 mask on the
        # transition bins would not match.
        spec = tiny_spec(method="FC_ICEF", papr_target_db=8.0,
                         max_iterations=1)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {"keep_spectra": True}
        run_fc_icef(spec, dims, grids, info=info)
        v_f, proc = info["v_f_orig"], info["v_f_proc"]
        w = window_weights(info["windows"], v_f.shape[1])
        assert np.any((w > 0) & (w < 1))
        amp = info["threshold_amp"]
        v_t = ofdm.idft(v_f)
        active = (np.max(np.abs(v_t) ** 2, axis=1)
                  > amp ** 2 * 10 ** (spec.stop_epsilon_db / 10))
        assert active.any() and not active.all()
        assert np.array_equal(info["iterations"] == 1, active)
        k_e = w > 0
        noise = ofdm.dft(clip_polar(v_t, amp) - v_t)
        manual = v_f + w[None, :] * noise
        assert np.allclose(proc[np.ix_(active, k_e)],
                           manual[np.ix_(active, k_e)], rtol=1e-12, atol=0)
        assert np.array_equal(proc[:, ~k_e], v_f[:, ~k_e])
        assert np.array_equal(proc[~active], v_f[~active])

    def test_satisfied_peak_stops_immediately(self):
        # A target just above the highest block's peak-to-mean ratio leaves
        # every block alone; just below it, that block is clipped.
        spec = tiny_spec(method="FC_ICEF")
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        v_t, kept = _clean_blocks(spec, dims)
        peaks = np.max(np.abs(v_t) ** 2, axis=1)
        peak_db = 10 * np.log10(peaks.max() / np.mean(np.abs(v_t[:, kept]) ** 2))
        eps = spec.stop_epsilon_db
        above = tiny_spec(method="FC_ICEF", papr_target_db=peak_db - eps + 0.01)
        info: dict = {}
        out = run_fc_icef(above, dims, grids, info=info)
        assert (info["iterations"] == 0).all()
        clean = fc.run_fc_f_ofdm(above, dims, grids)
        assert np.array_equal(out.samples, clean.samples)
        below = tiny_spec(method="FC_ICEF", papr_target_db=peak_db - eps - 0.01)
        run_fc_icef(below, dims, grids, info=info)
        assert info["iterations"][np.argmax(peaks)] > 0

    def test_power_slice_references_the_kept_samples(self):
        # The shared ceiling tracks the mean power of the samples that
        # survive overlap-save, not of the whole blocks.
        spec = tiny_spec(method="FC_ICEF", papr_target_db=3.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {}
        run_fc_icef(spec, dims, grids, info=info)
        v_t, kept = _clean_blocks(spec, dims)
        amp = np.sqrt(np.mean(np.abs(v_t[:, kept]) ** 2) * 10 ** 0.3)
        whole = np.sqrt(np.mean(np.abs(v_t) ** 2) * 10 ** 0.3)
        assert info["threshold_amp"] == pytest.approx(amp, rel=1e-12)
        assert abs(whole / amp - 1) > 1e-3


class TestRunFcIcef:
    def test_deterministic(self):
        spec = tiny_spec(method="FC_ICEF", max_iterations=8)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        a = run_fc_icef(spec, dims, grids)
        b = run_fc_icef(spec, dims, grids)
        assert np.array_equal(a.samples, b.samples)

    def test_thread_count_does_not_change_a_single_sample(self):
        spec = tiny_spec(method="FC_ICEF", max_iterations=8)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        a = run_fc_icef(spec, dims, grids, threads=1)
        b = run_fc_icef(spec, dims, grids, threads=3)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("target", [5.0, 8.0])
    def test_threads_and_chunks_leave_the_output_unchanged(self, monkeypatch,
                                                          target):
        # 32 base symbols give 69 blocks, four default chunks of 17 or 18
        # rows in synthesis.  Stage chunks of at most 1 to 31 rows
        # reproduce the default run byte for byte at every thread count, in
        # synthesis (the first ceiling) and in the loop: one-row chunks,
        # and 2-row chunks mixed with lone rows, included.
        spec = tiny_spec(method="FC_ICEF", papr_target_db=target,
                         duration_symbols_base=32)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        ref_info: dict = {}
        ref = run_fc_icef(spec, dims, grids, info=ref_info)
        for rows in (1, 2, 5, 31):
            monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES",
                                rows * dims.fc.inverse_len)
            for threads in (1, 3):
                info: dict = {}
                out = run_fc_icef(spec, dims, grids, info=info, threads=threads)
                assert out.samples.tobytes() == ref.samples.tobytes()
                assert np.array_equal(info["iterations"], ref_info["iterations"])
                assert info["threshold_amp"] == ref_info["threshold_amp"]
                assert info["final_amp"] == ref_info["final_amp"]

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("target", [5.0, 8.0])
    def test_matches_the_block_row_loop(self, target, threads):
        spec = tiny_spec(method="FC_ICEF", papr_target_db=target)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        info: dict = {"keep_spectra": True}
        out = run_fc_icef(spec, dims, grids, info=info, threads=threads)
        iters, amp0, amp, cur, expect = _block_row_loop(spec, dims, grids)
        assert iters.max() > 1
        assert np.array_equal(info["iterations"], iters)
        assert info["threshold_amp"] == amp0
        assert info["final_amp"] == amp
        assert np.array_equal(info["v_f_proc"], cur)
        assert np.array_equal(out.samples, expect)

    def test_generous_target_reduces_to_the_clean_filtered_waveform(self):
        spec = tiny_spec(method="FC_ICEF", papr_target_db=40.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {}
        out = run_fc_icef(spec, dims, grids, info=info)
        clean = fc.run_fc_f_ofdm(spec, dims, grids)
        assert np.array_equal(out.samples, clean.samples)
        assert info["iterations"].max() == 0

    def test_noise_confined_to_allocation_bins(self):
        # The processed block spectra may differ from the clean ones only
        # on bins some subband window reaches (K_E); every other bin keeps
        # its original value bit-exactly.
        spec = tiny_spec(method="FC_ICEF", max_iterations=8)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {"keep_spectra": True}
        run_fc_icef(spec, dims, grids, info=info)
        delta = info["v_f_proc"] - info["v_f_orig"]
        k_e = window_weights(info["windows"], delta.shape[1]) > 0
        assert np.abs(delta[:, ~k_e]).max() == 0.0
        assert np.abs(delta[:, k_e]).max() > 0.0

    def test_clipping_keeps_the_clean_adjacent_channel_leakage(self):
        # The clipping noise passes through the subband windows, so the
        # processed ACLR stays within 4 dB of the clean filtered waveform
        # on each side.
        spec = tiny_spec(method="FC_ICEF", papr_target_db=5.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)

        def aclr(sig):
            psd = metrics.psd_welch(sig, spec.measure.psd_rbw_hz)
            return metrics.aclr(psd, spec.channel_bw_hz,
                                spec.measure.aclr_measurement_bw_hz)

        proc = aclr(run_fc_icef(spec, dims, grids))
        clean = aclr(fc.run_fc_f_ofdm(spec, dims, grids))
        for side in ("lower", "upper"):
            assert clean[side] - proc[side] <= 4.0

    def test_shared_ceiling_controls_every_block(self):
        # One ceiling is shared by all blocks each round; at convergence
        # every block's peak sits within the stop margin of it.
        spec = tiny_spec(method="FC_ICEF", papr_target_db=8.0,
                         max_iterations=20)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {"keep_spectra": True}
        run_fc_icef(spec, dims, grids, info=info)
        v_t = ofdm.idft(info["v_f_proc"])
        peaks = np.max(np.abs(v_t) ** 2, axis=1)
        margin = info["final_amp"] ** 2 * 10 ** 0.03
        assert np.mean(peaks <= margin) >= 0.9
        assert 0 < info["threshold_amp"]
        assert (info["iterations"] <= spec.max_iterations).all()

    def test_output_geometry_matches_the_clean_path(self):
        spec = tiny_spec(method="FC_ICEF")
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        out = run_fc_icef(spec, dims, grids)
        clean = fc.run_fc_f_ofdm(spec, dims, grids)
        assert out.samples.size == clean.samples.size
        assert out.sample_rate_hz == clean.sample_rate_hz
