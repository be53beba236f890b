"""Polar clipping, interference observation, and the two grid-domain
reduction pipelines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixnum import icef, ofdm, wola
from mixnum.scenario import derive_dims, scenario_from_dict

from conftest import (batch_assemble, clip_polar, make_grids, make_spec, rng,
                      tiny_spec, traced_peak)


def _spec_dict(**top):
    from mixnum.scenario import default_scenario_dict

    d = default_scenario_dict()
    d.update(top)
    return d


def _clipped(x, amp, noise=False):
    """``icef.clip_in_place`` on a copy of ``x``."""
    y = x.copy()
    icef.clip_in_place(y, np.abs(y), amp, noise=noise)
    return y


class TestClipPolar:
    """``icef.clip_in_place``, the one per-sample operation the three clip
    loops share."""

    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 3.0))
    def test_magnitude_capped_and_phase_preserved(self, seed, amp):
        g = rng(seed)
        x = g.standard_normal(128) + 1j * g.standard_normal(128)
        y = _clipped(x, amp)
        assert np.max(np.abs(y)) <= amp * (1 + 1e-12)
        clipped = np.abs(x) > amp
        # Clipped samples land exactly on the ceiling, along the original ray.
        assert np.allclose(np.abs(y[clipped]), amp, rtol=1e-12)
        inner = y * np.conj(x)
        assert (inner.real >= 0).all()
        assert np.max(np.abs(inner.imag)) <= 1e-9 * np.max(np.abs(x)) ** 2
        # The noise form writes the change at the clipped samples only.
        noise = _clipped(x, amp, noise=True)
        assert np.array_equal(noise[clipped], y[clipped] - x[clipped])
        assert not noise[~clipped].view(np.uint64).any()

    @given(st.integers(0, 2**32 - 1))
    def test_samples_at_or_below_the_ceiling_pass_bit_exact(self, seed):
        g = rng(seed)
        x = g.standard_normal(128) + 1j * g.standard_normal(128)
        amp = float(np.median(np.abs(x)))
        y = _clipped(x, amp)
        keep = np.abs(x) <= amp
        assert np.array_equal(y[keep], x[keep])

    def test_broadcasts_one_ceiling_per_column(self):
        g = rng("columns")
        x = g.standard_normal((64, 3)) + 1j * g.standard_normal((64, 3))
        amps = np.array([0.4, 0.9, 2.0])
        for noise in (False, True):
            y = _clipped(x, amps[None, :], noise)
            for c in range(3):
                assert np.array_equal(y[:, c], _clipped(x[:, c], amps[c], noise))

    def test_zero_input_stays_zero(self):
        for noise in (False, True):
            y = _clipped(np.zeros(4, dtype=np.complex128), 1.0, noise)
            assert not y.view(np.uint64).any()

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["scalar", "per_row", "at_magnitude"]))
    def test_equals_the_out_of_place_form_bit_for_bit(self, seed, ceiling):
        # The loops' old form, clip_polar(x) and clip_polar(x) - x on every
        # sample, against the in-place one: per-row ceilings, ceilings equal
        # to some samples' magnitudes (those pass unclipped) and an all-zero
        # row.
        g = rng(seed)
        x = g.standard_normal((6, 64)) + 1j * g.standard_normal((6, 64))
        x[2] = 0
        mag = np.abs(x)
        amp = {"scalar": float(np.median(mag)),
               "per_row": np.quantile(mag, 0.7, axis=1)[:, None] + 0.1,
               "at_magnitude": np.where(g.random(x.shape) < 0.5, mag, 0.5) + (mag == 0),
               }[ceiling]
        ref = clip_polar(x, amp)
        assert _clipped(x, amp).tobytes() == ref.tobytes()
        assert _clipped(x, amp, noise=True).tobytes() == (ref - x).tobytes()


class TestIcefSymbol:
    """I_ICEF's per-symbol clip-and-filter loop, driven through the runner."""

    def _run(self, dims, grids=None, **overrides):
        spec = tiny_spec(method="I_ICEF", **overrides)
        if grids is None:
            grids = make_grids(spec, dims)
        info: dict = {}
        out = icef.run_i_icef(spec, dims, grids, info=info)
        return out, info, grids

    def test_zero_budget_returns_the_input(self, tiny_dims):
        out, info, grids = self._run(tiny_dims, max_iterations=0,
                                     papr_target_db=5.0)
        assert (info["iterations"] == 0).all()
        for ref, got in zip(grids, info["grids"]):
            assert np.array_equal(got.values, ref.values)
        none = icef.run_none(tiny_spec(), tiny_dims, grids)
        assert np.array_equal(out.samples, none.samples)

    def test_generous_target_triggers_no_iteration(self, tiny_dims):
        _, info, grids = self._run(tiny_dims, max_iterations=10,
                                   papr_target_db=40.0)
        assert (info["iterations"] == 0).all()
        for ref, got in zip(grids, info["grids"]):
            assert np.array_equal(got.values, ref.values)

    def test_iteration_budget_is_respected_and_peak_reduced(self, tiny_dims):
        _, info, grids = self._run(tiny_dims, max_iterations=6,
                                   papr_target_db=4.0)
        iters = info["iterations"]
        assert (iters <= 6).all() and iters.max() > 0

        def papr(grid):
            t = ofdm.idft(ofdm.grid_to_spectrum(grid, tiny_dims))
            p = np.abs(t) ** 2
            return np.max(p, axis=1) / np.mean(p, axis=1)

        before = np.concatenate([papr(g) for g in grids])
        after = np.concatenate([papr(g) for g in info["grids"]])
        clipped = iters > 0
        assert (after[clipped] < before[clipped]).all()
        assert np.array_equal(after[~clipped], before[~clipped])

    @given(st.integers(0, 2**32 - 1))
    def test_covariant_under_complex_scaling(self, tiny_dims, seed):
        g = rng(seed)
        grids = []
        for m, bd in enumerate(tiny_dims.bwps):
            shape = (bd.num_symbols, bd.num_subcarriers)
            grids.append(ofdm.ResourceGrid(
                bwp_index=m,
                values=g.standard_normal(shape) + 1j * g.standard_normal(shape)))
        gain = complex(g.standard_normal() + 1j * g.standard_normal())
        if abs(gain) < 1e-3:
            gain = 1.0 + 1.0j
        scaled = [ofdm.ResourceGrid(bwp_index=r.bwp_index, values=gain * r.values)
                  for r in grids]
        _, info_a, _ = self._run(tiny_dims, grids, max_iterations=4,
                                 papr_target_db=4.0)
        _, info_b, _ = self._run(tiny_dims, scaled, max_iterations=4,
                                 papr_target_db=4.0)
        assert np.array_equal(info_a["iterations"], info_b["iterations"])
        for a, b in zip(info_a["grids"], info_b["grids"]):
            assert np.allclose(b.values, gain * a.values, rtol=1e-10,
                               atol=1e-12 * abs(gain))


def _interference(streams, m, dims):
    """Other subbands' summed stream seen through BWP ``m``'s receiver."""
    others = np.sum([x for i, x in enumerate(streams) if i != m], axis=0)
    sig = ofdm.ComplexSignal(samples=others, sample_rate_hz=dims.fs_oversampled_hz)
    return ofdm.ofdm_demodulate(sig, dims, m).values


class TestComputeIni:
    """The interference term E_ICEF cancels: the other subbands' stream
    observed through a subband's CP-stripped DFT window."""

    def test_equal_numerology_disjoint_subbands_are_orthogonal(self):
        # Two 15 kHz allocations on a common grid: whole subcarriers of one
        # fall on exact bin positions of the other's CP-stripped window, so
        # the observed interference on the victim's own bins is zero.
        raw = _spec_dict(duration_symbols_base=4)
        raw["bwps"] = [
            {"scs_hz": 15e3, "num_prbs": 20, "modulation": "QPSK",
             "center_offset_hz": -4.0e6},
            {"scs_hz": 15e3, "num_prbs": 20, "modulation": "QPSK",
             "center_offset_hz": 4.0e6},
        ]
        spec = scenario_from_dict(raw)
        dims = derive_dims(spec)
        streams = []
        scale = 0.0
        for m in range(2):
            grid = ofdm.generate_grid(dims, m, spec.seed)
            streams.append(ofdm.ofdm_modulate(grid, dims).samples)
            scale = max(scale, float(np.max(np.abs(grid.values))))
        for m in (0, 1):
            leak = _interference(streams, m, dims)
            assert leak.shape == (4, dims.bwps[m].num_subcarriers)
            assert np.max(np.abs(leak)) <= 1e-10 * scale

    def test_mixed_numerology_subbands_do_interfere(self, tiny_dims):
        spec = tiny_spec()
        streams = []
        for m in range(2):
            grid = ofdm.generate_grid(tiny_dims, m, spec.seed)
            streams.append(ofdm.ofdm_modulate(grid, tiny_dims).samples)
        leak = _interference(streams, 0, tiny_dims)[0]
        assert np.max(np.abs(leak)) > 1e-4


class TestRunIndependent:
    def test_deterministic_and_closed_over_reported_grids(self):
        spec = tiny_spec(method="I_ICEF")
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {}
        out = icef.run_i_icef(spec, dims, grids, info=info)
        again = icef.run_i_icef(spec, dims, grids)
        assert np.array_equal(out.samples, again.samples)
        # The emitted stream is exactly the WOLA synthesis of the grids the
        # run reports: all clipping noise lives on active subcarriers.
        rebuilt = wola.aggregate([
            wola.modulate_wola(g, dims, spec.wola_extension_factor)
            for g in info["grids"]
        ])
        assert np.array_equal(out.samples, rebuilt.samples)

    def test_iteration_counts_per_symbol(self):
        spec = tiny_spec(method="I_ICEF")
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {}
        icef.run_i_icef(spec, dims, grids, info=info)
        iters = info["iterations"]
        assert iters.size == dims.bwps[0].num_symbols + dims.bwps[1].num_symbols
        assert (iters >= 0).all() and (iters <= spec.max_iterations).all()
        assert iters.max() > 0

    def test_noise_stays_within_the_evm_budget(self):
        # Each symbol's accumulated clipping noise is capped at its
        # modulation's EVM limit relative to that symbol's payload power.
        spec = tiny_spec(method="I_ICEF")
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        info: dict = {}
        icef.run_i_icef(spec, dims, grids, info=info)
        worst = []
        for m, out in enumerate(info["grids"]):
            ref = grids[m].values
            ratio = (np.sum(np.abs(out.values - ref) ** 2, axis=1)
                     / np.sum(np.abs(ref) ** 2, axis=1))
            worst.append(ratio.max() / ofdm.evm_limit(dims.bwps[m].modulation) ** 2)
        assert max(worst) <= 1 + 1e-9
        # The 64-QAM budget binds at this target: some symbol sits on it.
        assert dims.bwps[1].modulation == "64QAM"
        assert worst[1] >= 1 - 1e-9

    def test_matches_the_symbol_row_loop(self):
        # The loop on (S, L) spectra and bodies over all active symbols at
        # once, kept as the bit-exact reference.  Every per-symbol sum is
        # pairwise along the symbol's own contiguous row.
        spec = tiny_spec(method="I_ICEF")
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        info: dict = {}
        icef.run_i_icef(spec, dims, grids, info=info)
        tau = 10.0 ** (spec.papr_target_db / 10.0)
        stop = 10.0 ** (spec.stop_epsilon_db / 10.0)
        all_iters = []
        for m, grid in enumerate(grids):
            bd = dims.bwps[m]
            bins = np.mod(bd.active_base, bd.l_ofdm_os)
            vals_orig = grid.values
            vals_cur = vals_orig.copy()
            budget = (ofdm.evm_limit(bd.modulation) ** 2
                      * np.sum(np.abs(vals_orig) ** 2, axis=1))
            spec_full = np.zeros((bd.num_symbols, bd.l_ofdm_os), dtype=np.complex128)
            spec_full[:, bins] = vals_orig
            bodies = ofdm.idft(spec_full)
            iters = np.zeros(bd.num_symbols, dtype=np.int64)
            amps = np.sqrt(np.mean(np.abs(bodies) ** 2, axis=1) * tau)
            peaks = np.max(np.abs(bodies) ** 2, axis=1)
            active = np.flatnonzero(peaks > amps ** 2 * stop)
            for _ in range(spec.max_iterations):
                if active.size == 0:
                    break
                iters[active] += 1
                clipped_f = ofdm.dft(clip_polar(bodies[active], amps[active, None]))
                noise = clipped_f[:, bins] - vals_orig[active]
                noise_pow = np.sum(np.abs(noise) ** 2, axis=1)
                noise *= np.sqrt(np.minimum(
                    1.0, budget[active] / np.maximum(noise_pow, 1e-300)))[:, None]
                vals_cur[active] = vals_orig[active] + noise
                spec_full[active[:, None], bins[None, :]] = vals_cur[active]
                bodies[active] = ofdm.idft(spec_full[active])
                amps[active] = np.sqrt(
                    np.mean(np.abs(bodies[active]) ** 2, axis=1) * tau)
                peaks = np.max(np.abs(bodies[active]) ** 2, axis=1)
                active = active[peaks > amps[active] ** 2 * stop]
            all_iters.append(iters)
            assert np.array_equal(info["grids"][m].values, vals_cur)
        assert np.array_equal(info["iterations"], np.concatenate(all_iters))
        assert info["iterations"].max() == spec.max_iterations

    @pytest.mark.parametrize("chunk_samples",
                             [2048, 1 << 13, 3 * 2048, 31 * 2048])
    def test_threads_and_chunks_leave_the_output_unchanged(self, monkeypatch,
                                                          fast_switching,
                                                          chunk_samples):
        # Chunks of at most 1 to 31 symbols (one row of 2048 or 8192
        # samples at least) reproduce the default run byte for byte at every thread
        # count.  At seed 2 a 64-QAM symbol sits on its EVM budget, so its
        # noise power sets its output.
        spec = tiny_spec(method="I_ICEF", seed=2)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        ref_info: dict = {}
        ref = icef.run_i_icef(spec, dims, grids, info=ref_info)
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
        for threads in (1, 2, 3):
            info: dict = {}
            out = icef.run_i_icef(spec, dims, grids, info=info, threads=threads)
            assert out.samples.tobytes() == ref.samples.tobytes()
            assert np.array_equal(info["iterations"], ref_info["iterations"])
            for got, want in zip(info["grids"], ref_info["grids"]):
                assert got.values.tobytes() == want.values.tobytes()

    def test_frees_the_symbol_bodies_before_synthesis(self):
        # 64 base symbols at 5 dB, one thread.  No body outlives its round
        # task, so the traced peak, 1.67 output sizes, is run_none's
        # synthesis; with the last subband's (S, L) bodies held through
        # run_none it was 4.51.
        spec = make_spec(method="I_ICEF", duration_symbols_base=64,
                         papr_target_db=5.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        out, peak = traced_peak(icef.run_i_icef, spec, dims, grids)
        assert peak <= 4.0 * out.samples.nbytes

    def test_first_pass_holds_one_body_array(self):
        # 64 base symbols at 9 dB, one thread.  The first round makes and
        # tests one stage chunk's bodies per task, and the traced peak,
        # 1.65 output sizes, is run_none's synthesis.  A first pass that
        # transformed all the zero-padded spectra at once and squared every
        # body made it 2.07.
        spec = make_spec(method="I_ICEF", duration_symbols_base=64,
                         papr_target_db=9.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        out, peak = traced_peak(icef.run_i_icef, spec, dims, grids)
        assert peak <= 1.85 * out.samples.nbytes

    def test_rounds_keep_no_bodies_between_them(self):
        # 64 base symbols at 5 dB, one thread: every symbol runs all 20
        # rounds.  Each round task makes its rows' bodies from their grid
        # values, so the traced peak is 1.67 output sizes.  Keeping an
        # (S, L) body array across rounds and gathering its active rows
        # every round made it 2.02.
        spec = make_spec(method="I_ICEF", duration_symbols_base=64,
                         papr_target_db=5.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        out, peak = traced_peak(icef.run_i_icef, spec, dims, grids)
        assert peak <= 1.8 * out.samples.nbytes

    def test_reduces_the_aggregate_peak(self):
        spec = tiny_spec(method="I_ICEF", max_iterations=8)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        base = icef.run_none(spec, dims, grids)
        out = icef.run_i_icef(spec, dims, grids)

        def papr_db(sig):
            p = np.abs(sig.samples) ** 2
            return 10 * np.log10(np.max(p) / np.mean(p))

        assert papr_db(out) < papr_db(base) - 0.5


class TestRunAggregate:
    def test_closure_and_trace_invariant(self):
        spec = tiny_spec(method="E_ICEF_WOLA")
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        info: dict = {}
        out = icef.run_e_icef(spec, dims, grids, info=info)
        rebuilt = wola.aggregate([
            wola.modulate_wola(g, dims, spec.wola_extension_factor)
            for g in info["grids"]
        ])
        assert np.array_equal(out.samples, rebuilt.samples)
        trace = info["peak_trace_db"]
        assert len(trace) == info["iterations"] + 1
        # After the first pass the running aggregate peak never rebounds by
        # more than 1 dB above its post-first-pass value.
        for later in trace[1:]:
            assert later <= trace[1] + 1.0
        assert trace[-1] < trace[0]

    def test_thread_count_leaves_the_output_unchanged(self, monkeypatch,
                                                      fast_switching):
        # Synthesis and observation both run in chunks of symbols, and the
        # statistics and the clip in chunks of samples: chunks of at most 1
        # to 31 symbols (one row of 2048 or 8192 samples at least)
        # reproduce the default run byte for byte at every thread count.
        spec = tiny_spec(method="E_ICEF_WOLA")
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]

        def run(threads):
            info: dict = {}
            out = icef.run_e_icef(spec, dims, grids, info=info, threads=threads)
            return (out.samples.tobytes(), info["iterations"],
                    info["peak_trace_db"],
                    [g.values.tobytes() for g in info["grids"]])

        ref = run(1)
        assert ref[1] == spec.max_iterations
        for chunk_samples in (2048, 1 << 13, 3 * 2048, 31 * 2048):
            monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
            for threads in (1, 2, 3):
                assert run(threads) == ref

    def test_holds_no_full_length_carrier(self):
        # 64 base symbols at 5 dB, one thread.  The traced peak is 1.73
        # output sizes; with one full-length carrier cached per subband
        # and multiplied into each resynthesized stream it was 6.57.
        spec = make_spec(method="E_ICEF_WOLA", duration_symbols_base=64,
                         papr_target_db=5.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        out, peak = traced_peak(icef.run_e_icef, spec, dims, grids)
        assert peak <= 5.0 * out.samples.nbytes

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rebuilds_the_composite_in_one_buffer(self, threads):
        # 64 base symbols at 5 dB.  The traced peak is 1.73 output sizes on
        # one thread and 2.23 on two: the composite, which the clip
        # overwrites with its noise, and chunk temporaries.  With a second
        # buffer for the noise it was 2.60 and 2.97; with a full-length
        # magnitude and power too, 3.21 on both.  With
        # one full-length ``ofdm_modulate`` stream per subband, built on
        # their own pool and then summed, it was 4.16 on one thread and
        # 5.13 on two.
        spec = make_spec(method="E_ICEF_WOLA", duration_symbols_base=64,
                         papr_target_db=5.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        out, peak = traced_peak(icef.run_e_icef, spec, dims, grids,
                                threads=threads)
        assert peak <= 3.6 * out.samples.nbytes

    @pytest.mark.parametrize("threads", [1, 2])
    def test_clips_the_composite_in_place(self, monkeypatch, threads):
        # 64 base symbols at 5 dB, chunks of 2^14 samples.  The traced peak
        # is 1.35 output sizes on one thread and 1.39 on two: the composite,
        # overwritten by its clipping noise, and chunk temporaries.  With
        # the noise in a second full-length buffer it was 2.26 and 2.32.
        spec = make_spec(method="E_ICEF_WOLA", duration_symbols_base=64,
                         papr_target_db=5.0)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", 2**14)
        out, peak = traced_peak(icef.run_e_icef, spec, dims, grids,
                                threads=threads)
        assert peak <= 1.6 * out.samples.nbytes

    @staticmethod
    def _one_round(seed=1, cancel_ini=True):
        spec = tiny_spec(method="E_ICEF_WOLA", max_iterations=1, seed=seed)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        info: dict = {}
        icef.run_e_icef(spec, dims, grids, info=info, cancel_ini=cancel_ini)
        assert info["iterations"] == 1

        def observe(x, m):
            sig = ofdm.ComplexSignal(samples=x, sample_rate_hz=dims.fs_oversampled_hz)
            return ofdm.ofdm_demodulate(sig, dims, m).values

        streams = [ofdm.ofdm_modulate(g, dims).samples for g in grids]
        composite = np.sum(streams, axis=0)
        target_lin = 10.0 ** (spec.papr_target_db / 10.0)
        a = float(np.sqrt(np.mean(np.abs(composite) ** 2) * target_lin))
        return dims, grids, info, observe, streams, composite, clip_polar(composite, a)

    @pytest.mark.parametrize("cancel_ini", [True, False])
    def test_one_round_matches_a_hand_built_round(self, cancel_ini):
        # One round on upconverted ``ofdm_modulate`` streams, kept as the
        # bit-exact reference for the runner's synthesis and its single
        # observation per subband: of the clipping noise, or under the
        # ablation of the clipped composite itself.
        dims, grids, info, observe, _, composite, clipped = self._one_round(
            cancel_ini=cancel_ini)
        values = [g.values + observe(clipped - composite, m) if cancel_ini
                  else observe(clipped, m) for m, g in enumerate(grids)]
        for m in range(2):
            assert np.array_equal(info["grids"][m].values, values[m])
        after = np.abs(np.sum([ofdm.ofdm_modulate(ofdm.ResourceGrid(m, v), dims).samples
                               for m, v in enumerate(values)], axis=0)) ** 2
        assert info["peak_trace_db"][1] == 10.0 * np.log10(
            float(np.max(after) / np.mean(after)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_round_agrees_with_explicit_cancellation(self, seed):
        # The clipped composite observed minus the payload and minus the
        # other subbands' interference observed on its own: the same linear
        # map, computed with three observations instead of one.  Only the
        # rounding differs, measured at 1.8e-12 of the peak grid value
        # over seeds 1-8.
        _, grids, info, observe, streams, composite, clipped = self._one_round(seed)
        for m, g in enumerate(grids):
            ini = observe(composite - streams[m], m)
            explicit = g.values + (observe(clipped, m) - g.values - ini)
            err = np.max(np.abs(info["grids"][m].values - explicit))
            assert err <= 1e-11 * np.max(np.abs(explicit))
            assert np.max(np.abs(explicit - g.values)) > 1e3 * err

    def test_single_subband_needs_no_cancellation(self):
        raw = _spec_dict(duration_symbols_base=8, max_iterations=4,
                         method="E_ICEF_WOLA")
        raw["bwps"] = [raw["bwps"][0]]
        spec = scenario_from_dict(raw)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, 0, spec.seed)]
        with_term = icef.run_e_icef(spec, dims, grids)
        without = icef.run_e_icef(spec, dims, grids, cancel_ini=False)
        assert np.array_equal(with_term.samples, without.samples)

    def test_cancellation_improves_recovered_fidelity(self):
        # Ablation: disabling the interference estimate folds the other
        # numerology's energy into the grids as if it were clipping noise,
        # visibly degrading both subbands' recovered error.
        from mixnum.metrics import mse_per_bwp

        spec = make_spec(method="E_ICEF_WOLA", duration_symbols_base=32,
                         max_iterations=8)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        with_term = icef.run_e_icef(spec, dims, grids)
        without = icef.run_e_icef(spec, dims, grids, cancel_ini=False)
        mse_with = mse_per_bwp(with_term, dims, grids)
        mse_without = mse_per_bwp(without, dims, grids)
        for m in range(2):
            assert mse_with[m] < mse_without[m] - 2.0


class TestRunNone:
    def test_equals_wola_synthesis_of_the_references(self, tiny_dims, tiny_grids):
        spec = tiny_spec()
        out = icef.run_none(spec, tiny_dims, tiny_grids)
        rebuilt = wola.aggregate([
            wola.modulate_wola(g, tiny_dims, spec.wola_extension_factor)
            for g in tiny_grids
        ])
        assert np.array_equal(out.samples, rebuilt.samples)

    @pytest.mark.parametrize("chunk_samples", [1, 35000, 1 << 18])
    @pytest.mark.parametrize("swapped", [False, True])
    def test_one_buffer_equals_the_sum_of_streams(self, monkeypatch,
                                                  fast_switching, swapped,
                                                  chunk_samples):
        # The reference shares no code with the chunked writer: each BWP's
        # bodies overlap-added in one batch, then the streams summed into
        # one zero buffer, longest first.  35000 samples allow 3 and 15
        # symbols a chunk, so the 8 and 32 symbols go in four chunks of 2
        # and 8; 1 sample gives one symbol per chunk.  With the BWPs
        # swapped the 15 kHz BWP, whose stream is longer by
        # (402 - 100) / 2 samples, is second in the list but added first.
        raw = _spec_dict(duration_symbols_base=8)
        if swapped:
            raw["bwps"] = raw["bwps"][::-1]
        spec = scenario_from_dict(raw)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        streams = []
        for g in grids:
            p = wola.WolaParams.from_dims(dims.bwps[g.bwp_index],
                                          spec.wola_extension_factor)
            streams.append(batch_assemble(ofdm.symbol_bodies(g, dims), p))
        assert (len(streams[1]) > len(streams[0])) == swapped
        ref = np.zeros(max(map(len, streams)), dtype=np.complex128)
        for s in sorted(streams, key=len, reverse=True):
            ref[:len(s)] += s
        ref = ref.tobytes()
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", chunk_samples)
        for threads in (1, 2, 3):
            out = icef.run_none(spec, dims, grids, threads=threads)
            assert out.samples.tobytes() == ref

    def test_holds_one_full_length_stream(self, monkeypatch):
        # 64 base symbols, one thread, chunks of 1 and of 6 or 7 symbols.  The
        # traced peak is 1.16 output sizes: the composite and one chunk.
        # With every BWP's stream built in full and then summed it was 2.18.
        spec = make_spec(method="NONE", duration_symbols_base=64)
        dims = derive_dims(spec)
        grids = make_grids(spec, dims)
        monkeypatch.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", 2**14)
        out, peak = traced_peak(icef.run_none, spec, dims, grids)
        assert peak <= 1.3 * out.samples.nbytes

    def test_reports_zero_iterations(self, tiny_dims, tiny_grids):
        info: dict = {}
        icef.run_none(tiny_spec(), tiny_dims, tiny_grids, info=info)
        assert info["iterations"] == 0
