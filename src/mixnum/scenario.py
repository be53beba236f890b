"""Scenario configuration: validate and derive simulation dimensions.

A scenario describes a single carrier split into one or more bandwidth parts
(BWPs), each with its own subcarrier spacing, allocation size, modulation and
center-frequency offset.  All frequency fields carry a ``_hz`` suffix and all
power-like fields a ``_db`` suffix.  ``derive_dims`` turns a validated scenario
into the concrete transform sizes, CP lengths, symbol counts and subcarrier
index maps used by every other module.

The dataclasses are the scenario's only field table: ``scenario_from_dict``
builds them from JSON by walking their fields, and ``ScenarioSpec.to_dict``
echoes them back.
"""

# No ``from __future__ import annotations``: ``scenario_from_dict`` reads
# the field types of the dataclasses below as objects.
import math
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

# Reference subcarrier spacing anchoring the common frequency grid.  Centers
# are bookkept in bins of this spacing regardless of per-BWP numerology.
REFERENCE_SCS_HZ = 15e3

SUPPORTED_SCS_HZ = (15e3, 30e3, 60e3, 120e3)
SUPPORTED_MODULATIONS = ("QPSK", "16QAM", "64QAM", "256QAM")

METHOD_NONE = "NONE"
METHOD_I_ICEF = "I_ICEF"
METHOD_E_ICEF_WOLA = "E_ICEF_WOLA"
METHOD_FC_F_OFDM = "FC_F_OFDM"
METHOD_FC_ICEF = "FC_ICEF"
METHODS = (
    METHOD_NONE,
    METHOD_I_ICEF,
    METHOD_E_ICEF_WOLA,
    METHOD_FC_F_OFDM,
    METHOD_FC_ICEF,
)

# Methods whose waveform is built through the fast-convolution filter bank.
FC_METHODS = (METHOD_FC_F_OFDM, METHOD_FC_ICEF)

# CP length of the reference 2048-point transform (normal CP, constant for
# every symbol; no extended first symbol).
_CP_SAMPLES_PER_2048 = 144

# Largest complex array a scenario may imply, in samples (2**27 complex128
# samples are 2 GiB): a BWP's oversampled transform, the oversampled
# stream and, for the FC methods, the (blocks x inverse length) batch.
# The desk scenario needs 8192, 4.49 M and 8.99 M.
MAX_ARRAY_SAMPLES = 1 << 27


class ScenarioError(ValueError):
    """Raised for malformed or physically inconsistent scenario input."""


@dataclass
class BwpSpec:
    """One bandwidth part of the carrier."""

    scs_hz: float
    num_prbs: int
    modulation: str
    center_offset_hz: float

    @property
    def num_subcarriers(self) -> int:
        return 12 * self.num_prbs


@dataclass
class FcConfig:
    """Fast-convolution filter-bank parameters."""

    bin_spacing_hz: float = 15e3
    overlap_factor: float = 0.5
    transition_bins: int = 12


@dataclass
class MeasureConfig:
    """Measurement-suite settings."""

    psd_rbw_hz: float = 30e3
    aclr_measurement_bw_hz: float = 18e6
    ccdf_probability: float = 1e-3
    mask_file: str | None = None


@dataclass
class ScenarioSpec:
    """Validated top-level scenario."""

    channel_bw_hz: float
    bwps: list[BwpSpec]
    nominal_transform: int = 2048
    oversampling: int = 4
    duration_symbols_base: int = 512
    papr_target_db: float = 5.0
    max_iterations: int = 20
    stop_epsilon_db: float = 0.01
    method: str = METHOD_NONE
    seed: int = 1
    wola_extension_factor: float = 0.7
    fc: FcConfig = field(default_factory=FcConfig)
    measure: MeasureConfig = field(default_factory=MeasureConfig)

    def to_dict(self) -> dict:
        """Canonical plain-dict form (used for digests and report echoes)."""
        return asdict(self)


@dataclass
class BwpDims:
    """Derived per-BWP dimensions.

    ``l_ofdm``/``l_cp`` are at the nominal rate, ``l_ofdm_os``/``l_cp_os`` at
    the oversampled rate.  ``active_base`` holds the signed subcarrier indices
    of the allocation centered on DC in the BWP's own grid; ``center_scs`` is
    the snapped center in the same units.
    """

    scs_hz: float
    modulation: str
    l_ofdm: int
    l_cp: int
    l_ofdm_os: int
    l_cp_os: int
    num_symbols: int
    center_scs: int
    active_base: np.ndarray

    @property
    def stride(self) -> int:
        return self.l_ofdm + self.l_cp

    @property
    def stride_os(self) -> int:
        return self.l_ofdm_os + self.l_cp_os

    @property
    def num_subcarriers(self) -> int:
        return int(self.active_base.size)


@dataclass
class FcDims:
    """Derived fast-convolution block geometry (shared by all subbands)."""

    transform_len: int      # forward transform size per block
    interpolation: int      # inverse over forward transform size
    step_len: int           # hop between block starts, at the nominal rate
    transition_bins: int
    bin_spacing_hz: float

    @property
    def inverse_len(self) -> int:  # inverse transform size per block
        return self.interpolation * self.transform_len

    @property
    def keep_len(self) -> int:  # output samples kept per block (overlap-save)
        return self.interpolation * self.step_len

    @property
    def keep_slice(self) -> slice:  # the kept samples of each inverse block
        discard = (self.inverse_len - self.keep_len) // 2
        return slice(discard, discard + self.keep_len)

    @property
    def head_pad(self) -> int:  # zeros before the first block: half the overlap
        return (self.transform_len - self.step_len) // 2

    def num_blocks(self, source_len: int) -> int:
        """Blocks that cover ``source_len`` samples after the head pad."""
        return -(-(source_len + self.head_pad) // self.step_len)


@dataclass
class DerivedDims:
    """All concrete sizes derived from a scenario."""

    fs_nominal_hz: float
    fs_oversampled_hz: float
    bwps: list[BwpDims]
    fc: FcDims | None

    @property
    def num_bwps(self) -> int:
        return len(self.bwps)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _require_db(value: float, name: str) -> None:
    """A finite dB value whose linear ratio ``10**(value/10)`` is a float."""
    try:
        ok = math.isfinite(value) and math.isfinite(10.0 ** (value / 10.0))
    except OverflowError:
        ok = False
    _require(ok, f"{name} must be finite with a representable linear ratio")


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def default_scenario_dict() -> dict:
    """Built-in two-numerology 20 MHz mixed carrier.

    A 15 kHz QPSK allocation in the lower half of the channel next to a
    60 kHz 64-QAM allocation in the upper half; every other field takes
    the scenario defaults.  Used when no scenario file is supplied and by
    the self-test battery.
    """
    return {
        "channel_bw_hz": 20e6,
        "bwps": [
            {"scs_hz": 15e3, "num_prbs": 52, "modulation": "QPSK",
             "center_offset_hz": -4.98e6},
            {"scs_hz": 60e3, "num_prbs": 11, "modulation": "64QAM",
             "center_offset_hz": 4.98e6},
        ],
    }


def scenario_from_dict(raw: dict) -> ScenarioSpec:
    """Build a validated ScenarioSpec from a plain dict, filling defaults."""
    spec = _build(ScenarioSpec, raw, "")
    validate_scenario(spec)
    return spec


def _build(cls, raw, where: str):
    """Dataclass ``cls`` from the JSON object at dotted path ``where``.

    An absent key takes the field's default; a key that is not a field,
    a missing required field and a value of the wrong JSON type are
    ScenarioErrors that name the dotted path (``bwps[0].num_prbs``).
    """
    _require(isinstance(raw, dict), f"{where or 'scenario root'} must be a JSON object")
    pre = f"{where}." if where else ""
    table = fields(cls)
    unknown = sorted(set(raw) - {f.name for f in table})
    if unknown:
        raise ScenarioError(f"{pre}{unknown[0]}: unknown {where or 'scenario'} "
                            f"fields {unknown}")
    kwargs = {}
    for f in table:
        if f.name in raw:
            kwargs[f.name] = _cast(f.type, raw[f.name], pre + f.name)
        else:
            _require(f.default is not MISSING or f.default_factory is not MISSING,
                     f"{pre}{f.name} is required")
    return cls(**kwargs)


def _cast(tp, value, where: str):
    """One JSON value as a field of type ``tp``.

    ``tp`` is a dataclass, a list of one, ``str``, ``str | None``, ``int``
    (integers and integral floats) or ``float`` (any finite number).  A
    boolean is not a number.
    """
    if is_dataclass(tp):
        return _build(tp, value, where)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is list:
        _require(isinstance(value, list), f"{where} must be a JSON array")
        return [_cast(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if args:  # ``str | None``
        if value is None:
            return None
        tp = args[0]
    if tp is str:
        _require(isinstance(value, str),
                 f"{where} must be a string{' or null' if args else ''}")
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is int:
        _require(number and (isinstance(value, int) or value.is_integer()),
                 f"{where} must be an integer")
        return int(value)
    _require(number and abs(value) <= sys.float_info.max,
             f"{where} must be a finite number")
    return float(value)


def validate_scenario(spec: ScenarioSpec) -> None:
    """Raise ScenarioError on any constraint violation."""
    _require(spec.method in METHODS, f"method: unknown method {spec.method!r}")
    _require(len(spec.bwps) >= 1, "bwps: at least one BWP is required")
    _require(spec.channel_bw_hz > 0, "channel_bw_hz must be positive")
    _require(_is_pow2(spec.nominal_transform), "nominal_transform must be a power of two")
    _require(spec.oversampling >= 1, "oversampling must be >= 1")
    _require(spec.duration_symbols_base >= 1, "duration_symbols_base must be >= 1")
    _require(spec.papr_target_db > 0, "papr_target_db must be positive")
    _require_db(spec.papr_target_db, "papr_target_db")
    _require(spec.max_iterations >= 0, "max_iterations must be >= 0")
    _require(spec.stop_epsilon_db > 0, "stop_epsilon_db must be positive")
    _require_db(spec.stop_epsilon_db, "stop_epsilon_db")
    _require(0.0 <= spec.wola_extension_factor <= 1.0,
             "wola_extension_factor must lie in [0, 1]")
    _require(0 <= spec.seed < 2 ** 64, "seed must lie in [0, 2**64)")

    fs_nominal = spec.nominal_transform * REFERENCE_SCS_HZ
    _require(spec.channel_bw_hz <= fs_nominal,
             f"channel_bw_hz exceeds the nominal sampling rate {fs_nominal:g} Hz")

    for i, b in enumerate(spec.bwps):
        _require(b.scs_hz in SUPPORTED_SCS_HZ,
                 f"bwps[{i}]: unsupported scs_hz {b.scs_hz}")
        _require(b.num_prbs >= 1, f"bwps[{i}]: num_prbs must be >= 1")
        _require(b.modulation in SUPPORTED_MODULATIONS,
                 f"bwps[{i}]: unsupported modulation {b.modulation!r}")
        ratio = fs_nominal / b.scs_hz
        _require(abs(ratio - round(ratio)) < 1e-9 and _is_pow2(int(round(ratio))),
                 f"bwps[{i}]: scs_hz incompatible with nominal transform")

    if spec.method in FC_METHODS:
        fc = spec.fc
        _require(0.0 < fc.overlap_factor < 1.0, "fc.overlap_factor must lie in (0, 1)")
        _require(fc.transition_bins >= 0, "fc.transition_bins must be >= 0")
        lm = fs_nominal / fc.bin_spacing_hz if fc.bin_spacing_hz > 0 else math.inf
        _require(math.isfinite(lm),
                 "fc.bin_spacing_hz must be positive, with a finite nominal rate ratio")
        _require(abs(lm - round(lm)) < 1e-9 and _is_pow2(int(round(lm))),
                 "fc.bin_spacing_hz must divide the nominal rate into a power of two")

    _require(spec.measure.psd_rbw_hz > 0, "measure.psd_rbw_hz must be positive")
    _require(spec.measure.aclr_measurement_bw_hz > 0,
             "measure.aclr_measurement_bw_hz must be positive")
    _require(0 < spec.measure.ccdf_probability < 1,
             "measure.ccdf_probability must lie in (0, 1)")


def snap_center_hz(center_hz: float, scs_list: list[float]) -> float:
    """Snap a center offset to the nearest common multiple of all spacings.

    The snap grid is the least common multiple of the configured subcarrier
    spacings, so every snapped center lands on an exact bin of every BWP's
    grid (and of the reference grid, whose spacing divides all of them).
    """
    grid = 1
    for scs in scs_list:
        grid = math.lcm(grid, int(round(scs)))
    return round(center_hz / grid) * grid


def derive_dims(spec: ScenarioSpec) -> DerivedDims:
    """Compute every concrete dimension needed to build and measure waveforms.

    Pure, deterministic arithmetic, and the one check of the derived
    geometry that later stages rely on: raises ScenarioError when it does
    not close (BWP out of channel, overlapping allocations, FC window
    overflow) or is too large for memory.
    """
    validate_scenario(spec)
    n_ov = spec.oversampling
    fs_nominal = spec.nominal_transform * REFERENCE_SCS_HZ
    fs_os = n_ov * fs_nominal
    scs_list = [b.scs_hz for b in spec.bwps]
    scs_min = min(scs_list)

    bwp_dims: list[BwpDims] = []
    for i, b in enumerate(spec.bwps):
        l_ofdm = int(round(fs_nominal / b.scs_hz))
        l_cp = int(round(_CP_SAMPLES_PER_2048 * l_ofdm / 2048))
        center = snap_center_hz(b.center_offset_hz, scs_list)
        occupied = b.num_subcarriers * b.scs_hz
        # The channel fits the nominal rate, so this fits the transform too.
        _require(occupied / 2 + abs(center) <= spec.channel_bw_hz / 2 + 1e-6,
                 f"bwps[{i}] does not fit inside the channel after snapping "
                 f"(center {center/1e6:.3f} MHz)")
        # Whole ratios: the snapped center is a multiple of every spacing,
        # and the spacings are 15 kHz times 1, 2, 4 or 8.
        center_scs = int(round(center / b.scs_hz))
        num_symbols = spec.duration_symbols_base * int(b.scs_hz // scs_min)
        # Sized from integers before any per-subcarrier array is built.
        _require(n_ov * l_ofdm <= MAX_ARRAY_SAMPLES,
                 f"bwps[{i}]: the oversampled transform needs {n_ov * l_ofdm} "
                 f"samples, above the limit of {MAX_ARRAY_SAMPLES}")
        stream = num_symbols * n_ov * (l_ofdm + l_cp)
        _require(stream <= MAX_ARRAY_SAMPLES,
                 f"duration_symbols_base: the oversampled stream needs {stream} "
                 f"samples, above the limit of {MAX_ARRAY_SAMPLES}")
        k = b.num_subcarriers
        active_base = np.arange(-(k // 2), k - k // 2, dtype=np.int64)
        bwp_dims.append(BwpDims(
            scs_hz=b.scs_hz,
            modulation=b.modulation,
            l_ofdm=l_ofdm,
            l_cp=l_cp,
            l_ofdm_os=n_ov * l_ofdm,
            l_cp_os=n_ov * l_cp,
            num_symbols=num_symbols,
            center_scs=center_scs,
            active_base=active_base,
        ))

    # All BWPs must span exactly the same duration in samples.
    span = bwp_dims[0].num_symbols * bwp_dims[0].stride_os
    for i, d in enumerate(bwp_dims):
        _require(d.num_symbols * d.stride_os == span,
                 f"bwps[{i}]: its symbol stream covers {d.num_symbols * d.stride_os} "
                 f"samples, bwps[0]'s covers {span}")

    # Bands [(first - 1/2) scs, (last + 1/2) scs] may touch but not overlap;
    # in half reference subcarriers their edges are integers.
    bands = []
    for i, d in enumerate(bwp_dims):
        step = int(round(d.scs_hz / REFERENCE_SCS_HZ))
        first = d.center_scs + int(d.active_base[0])
        last = d.center_scs + int(d.active_base[-1])
        bands.append(((2 * first - 1) * step, (2 * last + 1) * step, i))
    bands.sort()
    for (_, hi, j), (lo, _, i) in zip(bands, bands[1:]):
        _require(hi <= lo, f"bwps[{i}]: its band overlaps bwps[{j}]'s")

    fc_dims = None
    if spec.method in FC_METHODS:
        fc = spec.fc
        l_fc = int(round(fs_nominal / fc.bin_spacing_hz))
        overlap = fc.overlap_factor * l_fc
        _require(abs(overlap - round(overlap)) < 1e-9 and int(round(overlap)) % 2 == 0,
                 "fc.overlap_factor must give an even whole-sample overlap")
        overlap = int(round(overlap))
        step = l_fc - overlap
        for i, d in enumerate(bwp_dims):
            step_bins = d.scs_hz / fc.bin_spacing_hz
            _require(abs(step_bins - round(step_bins)) < 1e-9,
                     f"bwps[{i}]: scs not a multiple of the fc bin spacing")
            step_bins = int(round(step_bins))
            half = d.num_subcarriers // 2 * step_bins
            _require(half + fc.transition_bins <= l_fc // 2,
                     f"bwps[{i}]: passband plus transition overflows the fc transform")
        fc_dims = FcDims(transform_len=l_fc, interpolation=n_ov, step_len=step,
                         transition_bins=fc.transition_bins,
                         bin_spacing_hz=fc.bin_spacing_hz)
        # Every BWP covers the same samples (checked above): BWP 0 sizes them.
        d = bwp_dims[0]
        batch = fc_dims.num_blocks(d.num_symbols * d.stride) * fc_dims.inverse_len
        _require(batch <= MAX_ARRAY_SAMPLES,
                 f"fc: the block batch needs {batch} samples, "
                 f"above the limit of {MAX_ARRAY_SAMPLES}")

    return DerivedDims(
        fs_nominal_hz=fs_nominal,
        fs_oversampled_hz=fs_os,
        bwps=bwp_dims,
        fc=fc_dims,
    )
