"""Scenario validation and derived-geometry arithmetic.

Frozen numbers are hand-derived from the built-in two-numerology carrier:
20 MHz channel, 15 kHz/52 PRB QPSK at -4.98 MHz, 60 kHz/11 PRB 64-QAM at
+4.98 MHz, transform 2048, oversampling 4.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_spec
from mixnum import cli, fc, metrics, wola
from mixnum.scenario import (FC_METHODS, METHODS, REFERENCE_SCS_HZ,
                             SUPPORTED_SCS_HZ, ScenarioError,
                             default_scenario_dict, derive_dims,
                             scenario_from_dict, snap_center_hz)


class TestDerivedGeometry:
    def test_sampling_rates(self, desk_dims):
        assert desk_dims.fs_nominal_hz == 30.72e6
        assert desk_dims.fs_oversampled_hz == 122.88e6

    def test_low_scs_bwp_dimensions(self, desk_dims):
        bd = desk_dims.bwps[0]
        assert (bd.l_ofdm, bd.l_cp) == (2048, 144)
        assert (bd.l_ofdm_os, bd.l_cp_os) == (8192, 576)
        assert bd.stride_os == 8768
        assert bd.num_symbols == 512
        assert len(bd.active_base) == 52 * 12 == 624
        assert bd.center_scs == -332
        assert bd.center_scs * bd.scs_hz == -4.98e6

    def test_high_scs_bwp_dimensions(self, desk_dims):
        bd = desk_dims.bwps[1]
        assert (bd.l_ofdm, bd.l_cp) == (512, 36)
        assert (bd.l_ofdm_os, bd.l_cp_os) == (2048, 144)
        assert bd.stride_os == 2192
        # symbol count scales with subcarrier spacing: equal time spans
        assert bd.num_symbols == 2048
        assert len(bd.active_base) == 11 * 12 == 132
        assert bd.center_scs == 83
        assert bd.center_scs * bd.scs_hz == 4.98e6

    def test_equal_time_span(self, desk_dims):
        spans = [bd.num_symbols * bd.stride_os for bd in desk_dims.bwps]
        assert spans[0] == spans[1] == 512 * 8768

    def test_active_bins_symmetric_around_center(self, desk_dims):
        for bd in desk_dims.bwps:
            k = len(bd.active_base)
            assert np.array_equal(bd.active_base,
                                  np.arange(-k // 2, k // 2))

    def test_block_filter_geometry(self, desk_dims):
        fcd = desk_dims.fc
        assert fcd.transform_len == 2048
        assert fcd.inverse_len == 8192
        assert fcd.interpolation == 4
        assert fcd.step_len == 1024
        assert fcd.keep_len == 4096
        assert fcd.head_pad == 512
        assert fcd.bin_spacing_hz == 15e3
        assert fcd.transition_bins == 12

    @pytest.mark.parametrize("overrides", [
        {"nominal_transform": 4096}, {"fc": {"bin_spacing_hz": 7500.0}}])
    def test_fc_inverse_transform_follows_the_output_rate(self, overrides):
        # Forward size from the bin spacing, inverse size from the rate.
        fcd = derive_dims(make_spec(method="FC_F_OFDM", **overrides)).fc
        assert (fcd.transform_len, fcd.inverse_len) == (4096, 16384)
        assert fcd.interpolation == 4

    def test_no_block_geometry_outside_filtered_methods(self):
        dims = derive_dims(make_spec(method="NONE"))
        assert dims.fc is None

    def test_derivation_is_deterministic(self):
        a = derive_dims(make_spec(method="FC_ICEF"))
        b = derive_dims(make_spec(method="FC_ICEF"))
        for x, y in zip(a.bwps, b.bwps):
            assert np.array_equal(x.active_base, y.active_base)
        assert a.fc == b.fc


class TestValidation:
    def test_rejects_unknown_fields(self):
        raw = default_scenario_dict()
        raw["no_such_field"] = 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    def test_rejects_missing_channel(self):
        raw = default_scenario_dict()
        del raw["channel_bw_hz"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    def test_rejects_overlapping_bwps(self):
        raw = default_scenario_dict()
        raw["bwps"][1]["center_offset_hz"] = -4.98e6
        with pytest.raises(ScenarioError):
            derive_dims(scenario_from_dict(raw))

    def test_rejects_overlapping_bands_with_disjoint_centers(self):
        # 15 kHz x 24 at 0 Hz spans [-187.5, 172.5] kHz and 60 kHz x 12 at
        # 540 kHz spans [150, 870] kHz: 22.5 kHz of overlap, although no
        # subcarrier centre of one lies on the other's.
        raw = default_scenario_dict()
        raw["bwps"] = [
            {"scs_hz": 15e3, "num_prbs": 2, "modulation": "QPSK",
             "center_offset_hz": 0.0},
            {"scs_hz": 60e3, "num_prbs": 1, "modulation": "64QAM",
             "center_offset_hz": 540e3}]
        with pytest.raises(ScenarioError, match=r"^bwps\[1\]"):
            derive_dims(scenario_from_dict(raw))
        # A 15 kHz x 12 band at 270 kHz starts at 172.5 kHz: bands may touch.
        raw["bwps"][1].update(scs_hz=15e3, center_offset_hz=270e3)
        derive_dims(scenario_from_dict(raw))

    def test_rejects_bwp_wider_than_channel(self):
        raw = default_scenario_dict()
        raw["bwps"][0]["num_prbs"] = 200
        with pytest.raises(ScenarioError):
            derive_dims(scenario_from_dict(raw))

    def test_rejects_bwp_hanging_over_channel_edge(self):
        raw = default_scenario_dict()
        raw["bwps"][1]["center_offset_hz"] = 9.9e6
        with pytest.raises(ScenarioError):
            derive_dims(scenario_from_dict(raw))

    def test_rejects_unsupported_spacing(self):
        raw = default_scenario_dict()
        raw["bwps"][1]["scs_hz"] = 45e3
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    def test_rejects_unknown_modulation(self):
        raw = default_scenario_dict()
        raw["bwps"][0]["modulation"] = "8PSK"
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    def test_rejects_bad_iteration_budget(self):
        with pytest.raises(ScenarioError):
            make_spec(max_iterations=-1)

    def test_rejects_bad_stop_margin(self):
        with pytest.raises(ScenarioError):
            make_spec(stop_epsilon_db=0.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ScenarioError):
            make_spec(method="MAGIC")

    def test_rejects_non_power_of_two_block_transform(self):
        raw = default_scenario_dict()
        raw["method"] = "FC_ICEF"
        raw["fc"] = {"bin_spacing_hz": 10e3}  # a 3072-point block
        with pytest.raises(ScenarioError, match="^fc.bin_spacing_hz"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("assignment, path", [
        ("measure=5", "measure"),
        ("fc=[]", "fc"),
        ("bwps=5", "bwps"),
        ("bwps.0=5", "bwps[0]"),
        ("papr_target_db=null", "papr_target_db"),
        ("channel_bw_hz=null", "channel_bw_hz"),
        ("seed=abc", "seed"),
        ("seed=true", "seed"),
        ("seed=2.9", "seed"),
        ("bwps.0.num_prbs=52.7", "bwps[0].num_prbs"),
        ("fc.n_nomm=4096", "fc.n_nomm"),
        ("fc.n_nom=2048", "fc.n_nom"),
        ("fc.transition_shape=\"raised_cosine\"", "fc.transition_shape"),
        ("bwps.0.extra=1", "bwps[0].extra"),
        ("measure.psd_rbw=1", "measure.psd_rbw"),
        ("measure.mask_file=5", "measure.mask_file"),
    ])
    def test_malformed_value_names_its_path(self, assignment, path):
        raw = default_scenario_dict()
        cli.apply_override(raw, assignment)
        with pytest.raises(ScenarioError, match="^" + re.escape(path) + "[ :]"):
            scenario_from_dict(raw)

    def test_whole_number_is_echoed_as_a_float(self):
        spec = make_spec(papr_target_db=5)
        assert json.dumps(spec.to_dict()["papr_target_db"]) == "5.0"

    def test_integral_float_is_accepted_for_an_int_field(self):
        spec = make_spec(seed=1e3)
        assert spec.seed == 1000 and type(spec.seed) is int

    def test_default_scenario_digest(self):
        # Pins the canonical echo: a builder change that moves a default, a
        # cast or a key shows up here.
        spec = scenario_from_dict(default_scenario_dict())
        assert cli.scenario_digest(spec) == (
            "547bd52ffdc10b663c9981dec0d695ecf0a8d2ca361a5ccf9e88bc9d44f73480")


class TestSnapAndRoundTrip:
    def test_snap_keeps_representable_centers(self):
        assert snap_center_hz(4.98e6, [15e3, 60e3]) == 4.98e6
        assert snap_center_hz(-4.98e6, [15e3, 60e3]) == -4.98e6

    def test_snap_moves_to_common_grid(self):
        snapped = snap_center_hz(4.987e6, [15e3, 60e3])
        assert snapped % 60e3 == 0
        assert abs(snapped - 4.987e6) <= 30e3

    def test_dict_round_trip_preserves_geometry(self):
        spec = make_spec(method="FC_ICEF", papr_target_db=6.5)
        again = scenario_from_dict(spec.to_dict())
        assert again.papr_target_db == 6.5
        a, b = derive_dims(spec), derive_dims(again)
        assert a.fc == b.fc
        for x, y in zip(a.bwps, b.bwps):
            assert x.stride_os == y.stride_os
            assert x.center_scs == y.center_scs
            assert np.array_equal(x.active_base, y.active_base)


@st.composite
def _derived(draw):
    """A random scenario that ``derive_dims`` and ``check_settings`` accept,
    with its dims.

    BWPs are packed up from near the lower channel edge, each a few half
    reference subcarriers from the band below it before snapping, so many
    draws put two bands within a subcarrier of each other.  Allocations up
    to a share of the channel and wide transitions reach the FC window's
    overflow rule.  The ACLR bandwidth spans six octaves below the channel,
    and the Welch resolution a few octaves around it, across the rule that
    a band holds a Welch bin.
    """
    ch = draw(st.sampled_from([5e6, 10e6, 20e6]))
    n = draw(st.integers(1, 3))
    edge = ch * (draw(st.floats(0.0, 0.1)) - 0.5)
    bwps = []
    for _ in range(n):
        scs = draw(st.sampled_from(SUPPORTED_SCS_HZ))
        prbs = draw(st.integers(1, max(1, int(ch / n / (12 * scs)))))
        half = 6 * prbs * scs
        center = edge + half + draw(st.integers(-1, 8)) * REFERENCE_SCS_HZ / 2
        bwps.append({"scs_hz": scs, "modulation": "QPSK", "num_prbs": prbs,
                     "center_offset_hz": center})
        edge = center + half
    nominal = draw(st.sampled_from([x for x in (512, 1024, 2048, 4096)
                                    if x * REFERENCE_SCS_HZ >= ch]))
    aclr_bw = ch / 2 ** draw(st.floats(0.0, 6.0))
    raw = {
        "channel_bw_hz": ch, "bwps": bwps,
        "nominal_transform": nominal,
        "oversampling": draw(st.integers(1, 4)),
        "duration_symbols_base": draw(st.integers(1, 3)),
        "method": draw(st.sampled_from(METHODS + FC_METHODS)),
        "wola_extension_factor": draw(st.floats(0.0, 1.0)),
        "fc": {"bin_spacing_hz": draw(st.sampled_from([3750.0, 7500.0, 15e3, 30e3])),
               "overlap_factor": draw(st.sampled_from([0.25, 0.5, 0.75])),
               "transition_bins": draw(st.integers(0, 400))},
        "measure": {"psd_rbw_hz": aclr_bw * 2 ** draw(st.floats(-4.0, 1.0)),
                    "aclr_measurement_bw_hz": aclr_bw},
    }
    try:
        spec = scenario_from_dict(raw)
        dims = derive_dims(spec)
        metrics.check_settings(spec, dims)
        return spec, dims
    except ScenarioError:
        assume(False)


def _band_hz(bd):
    """A BWP's band: half a subcarrier beyond its first and last centre."""
    first = bd.center_scs + int(bd.active_base[0])
    last = bd.center_scs + int(bd.active_base[-1])
    return (first - 0.5) * bd.scs_hz, (last + 0.5) * bd.scs_hz


class TestGateGuarantees:
    """What the synthesis and measurement stages rely on without checking
    it themselves, for any scenario that ``derive_dims`` and
    ``metrics.check_settings`` accept."""

    @settings(max_examples=200)
    @given(_derived())
    def test_derived_geometry_fits_every_stage(self, case):
        spec, dims = case
        for bd, b in zip(dims.bwps, spec.bwps):
            # The snapped center lies on the BWP grid.
            assert bd.center_scs * bd.scs_hz == snap_center_hz(
                b.center_offset_hz, [x.scs_hz for x in spec.bwps])
            # ofdm.bin_runs: every allocation fits its transform.
            for l in (bd.l_ofdm, bd.l_ofdm_os):
                assert -(l // 2) <= bd.active_base[0] and bd.active_base[-1] < l // 2
                assert bd.num_subcarriers <= l
            p = wola.WolaParams.from_dims(bd, spec.wola_extension_factor)
            assert p.l_ext % 2 == 0 and 0 <= p.l_ext <= p.l_cp
        # No two bands overlap; they may touch.
        bands = sorted(_band_hz(bd) for bd in dims.bwps)
        assert all(hi <= lo for (_, hi), (lo, _) in zip(bands, bands[1:]))
        # fc.combine: every subband stream cuts into the same block rows.
        assert len({bd.num_symbols * bd.stride for bd in dims.bwps}) == 1
        # metrics.psd_welch: the segment is a Hann window of at least 2
        # samples that fits the shortest stream (every output is at least
        # this long, so it is the segment psd_welch takes).
        fs, m = dims.fs_oversampled_hz, spec.measure
        shortest = min(bd.num_symbols * bd.stride_os for bd in dims.bwps)
        seg = metrics.welch_segment_len(fs, m.psd_rbw_hz, 2 * shortest)
        assert 2 <= seg <= shortest
        # metrics.aclr: every half-open band holds a Welch bin.
        freq = np.fft.fftshift(np.fft.fftfreq(seg, 1 / fs))
        half = m.aclr_measurement_bw_hz / 2
        for off in (0.0, -spec.channel_bw_hz, spec.channel_bw_hz):
            assert ((freq >= off - half) & (freq < off + half)).any()
        fcd = dims.fc
        if fcd is None:
            return
        # fc.ols_extract: the discarded part splits into equal halves.
        assert (fcd.inverse_len - fcd.keep_len) % 2 == 0
        assert fcd.inverse_len == spec.oversampling * fcd.transform_len
        for bd in dims.bwps:
            # fc.subband_forward: the support fits the forward transform,
            # and every gain is nonzero, so the support is K_E.
            w = fc.design_window(bd, fcd)
            assert w.gains.size == 2 * w.half
            assert w.half <= fcd.transform_len // 2
            assert (w.gains != 0.0).all()
            assert w.center_bin * fcd.bin_spacing_hz == bd.center_scs * bd.scs_hz
            # fc.combine and fc_icef.window_weights: bin_runs fits the support.
            assert w.gains.size <= fcd.inverse_len
