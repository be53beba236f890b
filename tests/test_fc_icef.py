"""In-loop clip-and-filter inside the fast-convolution filter bank."""

from __future__ import annotations

import numpy as np
import pytest

from mixnum import fc, fc_icef, metrics, ofdm
from mixnum.fc_icef import run_fc_icef, window_weights
from mixnum.icef import clip_polar
from mixnum.scenario import derive_dims

from conftest import make_grids, tiny_spec


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
        w = window_weights(info["windows"], v_f.shape[0])
        assert np.any((w > 0) & (w < 1))
        amp = info["threshold_amp"]
        v_t = ofdm.idft(v_f, axis=0)
        active = (np.max(np.abs(v_t) ** 2, axis=0)
                  > amp ** 2 * 10 ** (spec.stop_epsilon_db / 10))
        assert active.any() and not active.all()
        assert np.array_equal(info["iterations"] == 1, active)
        k_e = w > 0
        noise = ofdm.dft(clip_polar(v_t, amp) - v_t, axis=0)
        manual = v_f + w[:, None] * noise
        assert np.allclose(proc[np.ix_(k_e, active)],
                           manual[np.ix_(k_e, active)], rtol=1e-12, atol=0)
        assert np.array_equal(proc[~k_e, :], v_f[~k_e, :])
        assert np.array_equal(proc[:, ~active], v_f[:, ~active])

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
        # 32 base symbols give 69 blocks, two default chunks in the first
        # round.  Chunks of 1 to 31 rows, a lone last row included, reproduce
        # the default run byte for byte at every thread count.
        spec = tiny_spec(method="FC_ICEF", papr_target_db=target,
                         duration_symbols_base=32)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        ref_info: dict = {}
        ref = run_fc_icef(spec, dims, grids, info=ref_info)
        for rows in (1, 2, 5, 31):
            monkeypatch.setattr(fc_icef, "_CHUNK_ROWS", rows)
            for threads in (1, 3):
                info: dict = {}
                out = run_fc_icef(spec, dims, grids, info=info, threads=threads)
                assert out.samples.tobytes() == ref.samples.tobytes()
                assert np.array_equal(info["iterations"], ref_info["iterations"])
                assert info["final_amp"] == ref_info["final_amp"]

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("target", [5.0, 8.0])
    def test_matches_the_block_per_column_loop(self, target, threads):
        # The loop on (N, B) spectra and time blocks, kept as the bit-exact
        # reference.  Its sums run in memory order: the initial energies add
        # one element at a time down the columns of a C-ordered slice, the
        # in-loop energies pairwise along each column of the transform's
        # column-contiguous output.
        spec = tiny_spec(method="FC_ICEF", papr_target_db=target)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        info: dict = {"keep_spectra": True}
        out = run_fc_icef(spec, dims, grids, info=info, threads=threads)
        v_f, _, windows = fc.fc_subband_spectra(dims, grids)
        cur = np.ascontiguousarray(v_f.T)
        n, n_blocks = cur.shape
        keep = dims.fc.keep_len
        kept = slice((n - keep) // 2, (n + keep) // 2)
        weights = window_weights(windows, n)
        h_idx = np.flatnonzero(weights)
        h_w = weights[h_idx, None]
        v_t = ofdm.idft(cur, axis=0)
        peaks = np.max(np.abs(v_t) ** 2, axis=0)
        energies = np.sum(np.abs(v_t[kept, :]) ** 2, axis=0)
        iters = np.zeros(n_blocks, dtype=np.int64)
        tau = 10.0 ** (target / 10.0)
        stop = 10.0 ** (spec.stop_epsilon_db / 10.0)
        for _ in range(spec.max_iterations):
            amp = float(np.sqrt(energies.sum() / (keep * n_blocks) * tau))
            active = np.flatnonzero(peaks > amp ** 2 * stop)
            if active.size == 0:
                break
            iters[active] += 1
            for c in range(0, active.size, 64):
                cols = active[c: c + 64]
                blocks = v_t[:, cols]
                noise_f = ofdm.dft(clip_polar(blocks, amp) - blocks,
                                   axis=0)[h_idx, :]
                cur[np.ix_(h_idx, cols)] += h_w * noise_f
                fresh = ofdm.idft(cur[:, cols], axis=0)
                v_t[:, cols] = fresh
                peaks[cols] = np.max(np.abs(fresh) ** 2, axis=0)
                energies[cols] = np.sum(np.abs(fresh[kept, :]) ** 2, axis=0)
        assert iters.max() > 1
        assert np.array_equal(info["iterations"], iters)
        assert info["final_amp"] == amp
        assert np.array_equal(info["v_f_proc"], cur)
        bd = dims.bwps[0]
        expect = v_t[kept, :].T.reshape(-1)[: bd.num_symbols * bd.stride_os]
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
        k_e = window_weights(info["windows"], delta.shape[0]) > 0
        assert np.abs(delta[~k_e, :]).max() == 0.0
        assert np.abs(delta[k_e, :]).max() > 0.0

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
        v_t = ofdm.idft(info["v_f_proc"], axis=0)
        peaks = np.max(np.abs(v_t) ** 2, axis=0)
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
