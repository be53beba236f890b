"""Polar clipping, interference observation, and the two grid-domain
reduction pipelines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixnum import icef, ofdm, wola
from mixnum.icef import clip_polar
from mixnum.scenario import derive_dims, scenario_from_dict

from conftest import make_grids, make_spec, rng, tiny_spec


def _spec_dict(**top):
    from mixnum.scenario import default_scenario_dict

    d = default_scenario_dict()
    d.update(top)
    return d


class TestClipPolar:
    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 3.0))
    def test_magnitude_capped_and_phase_preserved(self, seed, amp):
        g = rng(seed)
        x = g.standard_normal(128) + 1j * g.standard_normal(128)
        y = clip_polar(x, amp)
        assert np.max(np.abs(y)) <= amp * (1 + 1e-12)
        clipped = np.abs(x) > amp
        # Clipped samples land exactly on the ceiling, along the original ray.
        assert np.allclose(np.abs(y[clipped]), amp, rtol=1e-12)
        inner = y * np.conj(x)
        assert (inner.real >= 0).all()
        assert np.max(np.abs(inner.imag)) <= 1e-9 * np.max(np.abs(x)) ** 2

    @given(st.integers(0, 2**32 - 1))
    def test_samples_at_or_below_the_ceiling_pass_bit_exact(self, seed):
        g = rng(seed)
        x = g.standard_normal(128) + 1j * g.standard_normal(128)
        amp = float(np.median(np.abs(x)))
        y = clip_polar(x, amp)
        keep = np.abs(x) <= amp
        assert np.array_equal(y[keep], x[keep])

    def test_broadcasts_one_ceiling_per_column(self):
        g = rng("columns")
        x = g.standard_normal((64, 3)) + 1j * g.standard_normal((64, 3))
        amps = np.array([0.4, 0.9, 2.0])
        y = clip_polar(x, amps[None, :])
        for c in range(3):
            assert np.array_equal(y[:, c], clip_polar(x[:, c], amps[c]))

    def test_zero_input_stays_zero(self):
        assert (clip_polar(np.zeros(4, dtype=np.complex128), 1.0) == 0).all()


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
            t = ofdm.idft(ofdm.grid_to_spectrum(grid, tiny_dims), axis=0)
            p = np.abs(t) ** 2
            return np.max(p, axis=0) / np.mean(p, axis=0)

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
            shape = (bd.num_subcarriers, bd.num_symbols)
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
            assert leak.shape == (dims.bwps[m].num_subcarriers, 4)
            assert np.max(np.abs(leak)) <= 1e-10 * scale

    def test_mixed_numerology_subbands_do_interfere(self, tiny_dims):
        spec = tiny_spec()
        streams = []
        for m in range(2):
            grid = ofdm.generate_grid(tiny_dims, m, spec.seed)
            streams.append(ofdm.ofdm_modulate(grid, tiny_dims).samples)
        leak = _interference(streams, 0, tiny_dims)[:, 0]
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
            ratio = (np.sum(np.abs(out.values - ref) ** 2, axis=0)
                     / np.sum(np.abs(ref) ** 2, axis=0))
            worst.append(ratio.max() / ofdm.evm_limit(dims.bwps[m].modulation) ** 2)
        assert max(worst) <= 1 + 1e-9
        # The 64-QAM budget binds at this target: some symbol sits on it.
        assert dims.bwps[1].modulation == "64QAM"
        assert worst[1] >= 1 - 1e-9

    def test_matches_the_symbol_per_column_loop(self):
        # The loop on (L, S) spectra and bodies, kept as the bit-exact
        # reference.  Its sums run in memory order: the initial mean power
        # and the noise power add one element at a time down the columns
        # of C-ordered arrays, the in-loop mean pairwise along each
        # gathered (Fortran-ordered) column.
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
            rows = np.mod(bd.active_base, bd.l_ofdm_os)
            vals_orig = grid.values
            vals_cur = vals_orig.copy()
            budget = (ofdm.evm_limit(bd.modulation) ** 2
                      * np.sum(np.abs(vals_orig) ** 2, axis=0))
            spec_full = np.zeros((bd.l_ofdm_os, bd.num_symbols), dtype=np.complex128)
            spec_full[rows, :] = vals_orig
            bodies = ofdm.idft(spec_full, axis=0)
            iters = np.zeros(bd.num_symbols, dtype=np.int64)
            amps = np.sqrt(np.mean(np.abs(bodies) ** 2, axis=0) * tau)
            peaks = np.max(np.abs(bodies) ** 2, axis=0)
            active = np.flatnonzero(peaks > amps ** 2 * stop)
            for _ in range(spec.max_iterations):
                if active.size == 0:
                    break
                iters[active] += 1
                clipped_f = ofdm.dft(
                    clip_polar(bodies[:, active], amps[None, active]), axis=0)
                noise = clipped_f[rows, :] - vals_orig[:, active]
                noise_pow = np.sum(np.abs(noise) ** 2, axis=0)
                noise *= np.sqrt(np.minimum(
                    1.0, budget[active] / np.maximum(noise_pow, 1e-300)))
                vals_cur[:, active] = vals_orig[:, active] + noise
                spec_full[rows[:, None], active[None, :]] = vals_cur[:, active]
                bodies[:, active] = ofdm.idft(spec_full[:, active], axis=0)
                amps[active] = np.sqrt(
                    np.mean(np.abs(bodies[:, active]) ** 2, axis=0) * tau)
                peaks = np.max(np.abs(bodies[:, active]) ** 2, axis=0)
                active = active[peaks > amps[active] ** 2 * stop]
            all_iters.append(iters)
            assert np.array_equal(info["grids"][m].values, vals_cur)
        assert np.array_equal(info["iterations"], np.concatenate(all_iters))
        assert info["iterations"].max() == spec.max_iterations

    @pytest.mark.parametrize("chunk_samples", [1 << 13, 3 * 2048, 31 * 2048])
    def test_threads_and_chunks_leave_the_output_unchanged(self, monkeypatch,
                                                          chunk_samples):
        # Chunks of 2 to 31 symbols reproduce the default run byte for byte
        # at every thread count.  31 rows leave one 64-QAM symbol over; at
        # seed 2 that symbol sits on its EVM budget, so its noise power,
        # which numpy would sum pairwise in a lone row, sets its output.
        spec = tiny_spec(method="I_ICEF", seed=2)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        ref_info: dict = {}
        ref = icef.run_i_icef(spec, dims, grids, info=ref_info)
        monkeypatch.setattr(icef, "_CHUNK_SAMPLES", chunk_samples)
        for threads in (1, 2, 3):
            info: dict = {}
            out = icef.run_i_icef(spec, dims, grids, info=info, threads=threads)
            assert out.samples.tobytes() == ref.samples.tobytes()
            assert np.array_equal(info["iterations"], ref_info["iterations"])
            for got, want in zip(info["grids"], ref_info["grids"]):
                assert got.values.tobytes() == want.values.tobytes()

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

    def test_thread_count_leaves_the_output_unchanged(self):
        spec = tiny_spec(method="E_ICEF_WOLA")
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        runs = []
        for threads in (1, 2, 3):
            info: dict = {}
            out = icef.run_e_icef(spec, dims, grids, info=info, threads=threads)
            runs.append((out.samples.tobytes(), info["iterations"],
                         [g.values.tobytes() for g in info["grids"]]))
        assert runs[0][1] == spec.max_iterations
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @staticmethod
    def _one_round(seed=1):
        spec = tiny_spec(method="E_ICEF_WOLA", max_iterations=1, seed=seed)
        dims = derive_dims(spec)
        grids = [ofdm.generate_grid(dims, m, spec.seed) for m in range(2)]
        info: dict = {}
        icef.run_e_icef(spec, dims, grids, info=info)
        assert info["iterations"] == 1

        def observe(x, m):
            sig = ofdm.ComplexSignal(samples=x, sample_rate_hz=dims.fs_oversampled_hz)
            return ofdm.ofdm_demodulate(sig, dims, m).values

        streams = [ofdm.ofdm_modulate(g, dims).samples for g in grids]
        composite = np.sum(streams, axis=0)
        target_lin = 10.0 ** (spec.papr_target_db / 10.0)
        a = float(np.sqrt(np.mean(np.abs(composite) ** 2) * target_lin))
        return dims, grids, info, observe, streams, composite, clip_polar(composite, a)

    def test_one_round_matches_a_hand_built_round(self):
        # One round on upconverted ``ofdm_modulate`` streams, kept as the
        # bit-exact reference for the runner's cached-carrier synthesis and
        # its single observation of the clipping noise per subband.
        dims, grids, info, observe, _, composite, clipped = self._one_round()
        values = [g.values + observe(clipped - composite, m)
                  for m, g in enumerate(grids)]
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

    def test_reports_zero_iterations(self, tiny_dims, tiny_grids):
        info: dict = {}
        icef.run_none(tiny_spec(), tiny_dims, tiny_grids, info=info)
        assert info["iterations"] == 0
