"""Deterministic property battery behind ``mixnum selftest``.

Small, fast instances of the load-bearing invariants: transform round
trips, window complementarity, constellation scaling, modulation
round-trip fidelity, flat windowed overlap, per-block energy
conservation, all-pass reconstruction of the filter bank (plus a
deliberately corrupted window as a negative control), exact clipping
noise confinement, and repeat-run/thread-count determinism.
"""

from __future__ import annotations

import numpy as np

from . import fc_icef, metrics, ofdm, wola
from .cli import execute
from .fc import FcWindow, combine, ols_extract, segment, subband_forward
from .ofdm import dft, idft
from .scenario import (METHOD_E_ICEF_WOLA, METHOD_FC_ICEF, METHOD_I_ICEF,
                       FcDims, default_scenario_dict, derive_dims,
                       scenario_from_dict)


def _tiny_spec(**overrides):
    raw = default_scenario_dict()
    raw.update({"duration_symbols_base": 8, "max_iterations": 5})
    raw.update(overrides)
    return scenario_from_dict(raw)


def _rng(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([99, tag],
                                                             dtype=np.uint64)))


def check_transform_round_trip() -> None:
    rng = _rng(1)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    err = float(np.max(np.abs(idft(dft(x)) - x)))
    assert err <= 1e-12, f"transform round-trip error {err:g}"


def check_rc_ramp_complementarity() -> None:
    for n in (1, 2, 5, 12, 100, 401):
        w = wola.rc_ramp(n)
        assert np.all((w >= 0) & (w <= 1)), f"ramp length {n} leaves [0, 1]"
        assert np.all(w + w[::-1] == 1.0), f"ramp length {n} not complementary"
        assert np.all(np.diff(w) > 0) or n == 1, f"ramp length {n} not rising"


def check_qam_unit_power() -> None:
    for modulation in ("QPSK", "16QAM", "64QAM", "256QAM"):
        b = ofdm.bits_per_symbol(modulation)
        patterns = ((np.arange(1 << b)[:, None]
                     >> np.arange(b - 1, -1, -1)[None, :]) & 1)
        points = ofdm.qam_map(patterns.reshape(-1).astype(np.int64), modulation)
        power = float(np.mean(np.abs(points) ** 2))
        assert abs(power - 1.0) < 1e-12, f"{modulation} mean power {power:g}"
        assert len(set(np.round(points, 9).tolist())) == 1 << b, \
            f"{modulation} constellation points not distinct"


def check_ofdm_back_to_back() -> None:
    spec = _tiny_spec()
    dims = derive_dims(spec)
    grid = ofdm.generate_grid(dims, 0, spec.seed)
    sig = ofdm.ofdm_modulate(grid, dims)
    mse = metrics.mse_per_bwp(sig, dims, [grid])[0]
    assert mse <= -200.0, f"single-subband round trip at {mse:.1f} dB"


def check_wola_flat_overlap() -> None:
    spec = _tiny_spec()
    bd = derive_dims(spec).bwps[0]
    params = wola.WolaParams.from_dims(bd, spec.wola_extension_factor)
    bodies = np.ones((4, bd.l_ofdm_os), dtype=np.complex128)
    out = np.zeros(len(bodies) * params.stride + params.l_ext // 2,
                   dtype=np.complex128)
    wola.wola_add(out, bodies.__getitem__, len(bodies), params)
    interior = out[params.l_ext: -params.l_ext]
    assert np.all(interior == 1.0), "windowed overlap of a constant is not flat"


def check_block_parseval() -> None:
    rng = _rng(2)
    n = 64
    v_f = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    v_t = idft(v_f, axis=0)
    lhs = np.sum(np.abs(v_t) ** 2, axis=0)
    rhs = np.sum(np.abs(v_f) ** 2, axis=0) / n
    err = float(np.max(np.abs(lhs - rhs) / rhs))
    assert err <= 1e-12, f"per-block energy mismatch {err:g}"


def _all_pass_recon_error(corrupt: bool) -> float:
    """Relative error of the bank as a pure interpolator on periodic input."""
    l, interp = 32, 4
    fcd = FcDims(transform_len=l, interpolation=interp, step_len=l // 2,
                 transition_bins=0, bin_spacing_hz=15e3)
    t = np.arange(3 * l)
    x = (np.exp(2j * np.pi * 3 * t / l)
         + 0.25 * np.exp(-2j * np.pi * 7 * t / l))
    gains = np.ones(l)
    if corrupt:
        gains[l // 2 + 3] = 1.6  # boost the bin carrying the first tone
    window = FcWindow(center_bin=0, half=l // 2, gains=gains)
    mapped = subband_forward(segment(x, fcd), window, fcd, 0)
    spectra = np.zeros((mapped.shape[0], fcd.inverse_len), dtype=np.complex128)
    y = ols_extract(combine(spectra, [mapped], [window]), fcd, interp * x.size)

    big = np.fft.fft(x)
    stuffed = np.zeros(x.size * interp, dtype=np.complex128)
    half = x.size // 2
    stuffed[:half] = big[:half]
    stuffed[-half:] = big[-half:]
    y_ref = np.fft.ifft(stuffed) * interp
    # Head/tail zero padding breaks block periodicity, so judge the
    # interpolation on interior samples: skip one kept region per edge.
    margin = fcd.keep_len
    err = np.abs(y - y_ref)[margin: -margin]
    return float(np.max(err) / np.max(np.abs(y_ref)))


def check_fc_all_pass_reconstruction() -> None:
    err = _all_pass_recon_error(corrupt=False)
    assert err <= 1e-9, f"all-pass chain deviates from interpolation by {err:g}"


def check_fc_corrupted_window_detected() -> None:
    err = _all_pass_recon_error(corrupt=True)
    assert err > 1e-6, \
        f"corrupted window went undetected (error only {err:g})"


def check_aggregate_noise_confinement() -> None:
    spec = _tiny_spec(method=METHOD_E_ICEF_WOLA, papr_target_db=4.0)
    info: dict = {}
    _, dims, refs = execute(spec, info=info)
    assert info["iterations"] >= 1, "aggressive target caused no iterations"
    changed = False
    for m, out in enumerate(info["grids"]):
        d_spec = (ofdm.grid_to_spectrum(out, dims)
                  - ofdm.grid_to_spectrum(refs[m], dims))
        bins = np.mod(dims.bwps[m].active_base, dims.bwps[m].l_ofdm_os)
        off = np.setdiff1d(np.arange(dims.bwps[m].l_ofdm_os), bins)
        assert np.all(d_spec[:, off] == 0), \
            f"subband {m} leaked clipping noise outside its allocation"
        changed = changed or bool(np.any(d_spec != 0))
    assert changed, "no grid was modified despite iterations"


def check_fc_noise_confinement() -> None:
    spec = _tiny_spec(method=METHOD_FC_ICEF, papr_target_db=4.0)
    info: dict = {"keep_spectra": True}
    execute(spec, info=info)
    delta = info["v_f_proc"] - info["v_f_orig"]
    off = fc_icef.window_weights(info["windows"], delta.shape[1]) == 0.0
    assert np.any(delta != 0), "aggressive target left every block untouched"
    assert np.all(delta[:, off] == 0), \
        "clipping noise leaked outside the allocation/transition bins"


def check_repeat_run_determinism() -> None:
    for method in (METHOD_I_ICEF, METHOD_E_ICEF_WOLA, METHOD_FC_ICEF):
        spec = _tiny_spec(method=method, papr_target_db=4.0)
        a = execute(spec, threads=1)[0].samples
        b = execute(spec, threads=1)[0].samples
        c = execute(spec, threads=3)[0].samples
        assert np.array_equal(a, b), f"repeat {method} runs differ"
        assert np.array_equal(a, c), f"thread count changed the {method} output"
