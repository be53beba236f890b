"""Experiment runner: generate a waveform, measure it, emit result files.

Subcommands:

* ``run``     — one scenario end-to-end; writes ``ccdf.csv``, ``psd.csv``
  and ``report.json`` (plus an optional raw waveform dump).
* ``sweep``   — a (method x PAPR-target) grid; writes ``sweep.csv``.
* ``selftest`` — fast deterministic property battery, including a
  deliberately corrupted filter window as a negative control.

All output files are byte-stable for a fixed scenario: no timestamps or
timing figures are written (wall time goes to stdout only), and thread
count does not influence any numerical result.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fc, fc_icef, icef, metrics, ofdm
from .scenario import (METHOD_E_ICEF_WOLA, METHOD_FC_F_OFDM, METHOD_FC_ICEF,
                       METHOD_I_ICEF, METHOD_NONE, METHODS, ScenarioError,
                       default_scenario_dict, derive_dims, scenario_from_dict)

SCHEMA_CCDF = "mixnum-ccdf-1"
SCHEMA_PSD = "mixnum-psd-1"
SCHEMA_SWEEP = "mixnum-sweep-1"
SCHEMA_REPORT = "mixnum-report-1"


def scenario_digest(spec) -> str:
    """Stable hash of the canonical scenario (seed included)."""
    canon = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one ``dotted.path=value`` override to a raw scenario dict.

    Values are parsed as JSON when possible (numbers, booleans, null,
    quoted strings) and fall back to plain strings; numeric path parts
    index into lists (``bwps.1.num_prbs=24``).
    """
    key, sep, value = assignment.partition("=")
    if not sep or not key:
        raise ScenarioError(f"override {assignment!r} is not of the form key=value")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key.split(".")
    try:
        for part in parts[:-1]:
            if isinstance(node, list):
                node = node[int(part)]
            else:
                node = node.setdefault(part, {})
        leaf = parts[-1]
        if isinstance(node, list):
            node[int(leaf)] = parsed
        else:
            node[leaf] = parsed
    except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
        raise ScenarioError(f"cannot apply override {assignment!r}: {exc}") from exc


def load_raw_scenario(path: str | None, overrides: list[str]) -> dict:
    """Raw scenario dict from a file (or the built-in default) + overrides."""
    if path is None:
        raw = default_scenario_dict()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"--scenario {path}: {exc}") from exc
    for assignment in overrides:
        apply_override(raw, assignment)
    return raw


RUNNERS = {
    METHOD_NONE: icef.run_none,
    METHOD_I_ICEF: icef.run_i_icef,
    METHOD_E_ICEF_WOLA: icef.run_e_icef,
    METHOD_FC_F_OFDM: fc.run_fc_f_ofdm,
    METHOD_FC_ICEF: fc_icef.run_fc_icef,
}


def execute(spec, threads: int = 1, info: dict | None = None):
    """Run the scenario's method; returns (signal, dims, grids)."""
    dims = derive_dims(spec)
    grids = [ofdm.generate_grid(dims, m, spec.seed)
             for m in range(dims.num_bwps)]
    sig = RUNNERS[spec.method](spec, dims, grids, info=info, threads=threads)
    return sig, dims, grids


def _execute_and_measure(spec, threads: int, artifacts: dict | None = None):
    """``execute`` then ``metrics.measure_all``: (signal, report, wall s)."""
    t0 = time.perf_counter()
    info: dict = {}
    sig, dims, grids = execute(spec, threads=threads, info=info)
    report = metrics.measure_all(sig, spec, dims, grids,
                                 iterations=info.get("iterations"),
                                 artifacts=artifacts, threads=threads)
    return sig, report, time.perf_counter() - t0


def _ccdf_row_subset(n: int, per_decade: int = 200) -> np.ndarray:
    """Deterministic log-spaced row picks for the CCDF artifact.

    The full order-statistic curve has one row per sample; the CSV keeps
    rows whose exceedance probabilities are evenly spaced in log scale
    (plus the exact extremes), which preserves the plot and the tail
    readout while keeping the file small.
    """
    if n <= 2 * per_decade:
        return np.arange(n)
    decades = np.log10(n)
    grid = np.unique(np.round(
        n * 10.0 ** -np.linspace(0.0, decades, int(decades * per_decade))
    ).astype(np.int64))
    rows = n - np.clip(grid, 1, n)
    return np.unique(np.concatenate([rows, [0, n - 1]]))


def _write_ccdf_csv(path: Path, curve: metrics.CcdfCurve) -> None:
    rows = _ccdf_row_subset(curve.sample_count)
    lines = [f"# schema={SCHEMA_CCDF} window={curve.window} "
             f"samples={curve.sample_count}", "papr_db,probability"]
    lines += [f"{t!r},{p!r}" for t, p in
              zip(curve.thresholds_db_at(rows).tolist(),
                  curve.probabilities_at(rows).tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_psd_csv(path: Path, psd: metrics.PsdEstimate) -> None:
    lines = [f"# schema={SCHEMA_PSD} rbw_hz={psd.rbw_hz!r}", "freq_hz,db"]
    lines += [f"{f!r},{d!r}" for f, d in
              zip(psd.freq_hz.tolist(), psd.psd_db.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _require_threads(threads: int) -> None:
    if threads < 1:
        raise ScenarioError(f"--threads must be at least 1, got {threads}")


def cmd_run(args: argparse.Namespace) -> int:
    _require_threads(args.threads)
    raw = load_raw_scenario(args.scenario, args.set or [])
    spec = scenario_from_dict(raw)
    # Bad geometry, sizes or measurement settings fail before --out exists.
    metrics.check_settings(spec, derive_dims(spec))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    artifacts: dict = {}
    sig, report, wall = _execute_and_measure(spec, args.threads, artifacts)

    _write_ccdf_csv(out_dir / "ccdf.csv", artifacts["ccdf"])
    _write_psd_csv(out_dir / "psd.csv", artifacts["psd"])
    payload = {
        "schema": SCHEMA_REPORT,
        "digest": scenario_digest(spec),
        "method": spec.method,
        "papr_target_db": spec.papr_target_db,
        "scenario": spec.to_dict(),
        "metrics": report.to_dict(),
    }
    (out_dir / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    if args.dump_waveform:
        ofdm.write_waveform(sig, str(out_dir / "waveform.c128"))

    print(f"method={spec.method} target={spec.papr_target_db:g} dB "
          f"papr@{report.ccdf_probability:g}={report.papr_at_p_db:.2f} dB "
          f"mse={['%.1f' % v for v in report.mse_db]} dB "
          f"aclr={report.aclr_db['lower']:.1f}/{report.aclr_db['upper']:.1f} dB "
          f"wall={wall:.1f}s -> {out_dir}")
    return 0


def _parse_targets(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise ScenarioError(f"--targets {text!r} is not a list of numbers") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    _require_threads(args.threads)
    targets = _parse_targets(args.targets)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not targets or not methods:
        raise ScenarioError("--methods and --targets must not be empty")
    for m in methods:
        if m not in METHODS:
            raise ScenarioError(f"unknown method {m!r} in --methods")
    base = load_raw_scenario(args.scenario, args.set or [])
    specs = []
    for method in methods:
        for target in targets:
            raw = copy.deepcopy(base)
            raw["method"] = method
            raw["papr_target_db"] = target
            specs.append(scenario_from_dict(raw))
            metrics.check_settings(specs[-1], derive_dims(specs[-1]))
    # Every spec has the base scenario's BWPs.
    header = (["method", "papr_target_db", "papr_at_p_db"]
              + [f"mse_db_{i}" for i in range(len(specs[0].bwps))]
              + ["aclr_lower_db", "aclr_upper_db"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for spec in specs:
        _, report, wall = _execute_and_measure(spec, args.threads)
        rows.append([spec.method, repr(spec.papr_target_db),
                     repr(report.papr_at_p_db)]
                    + [repr(v) for v in report.mse_db]
                    + [repr(report.aclr_db["lower"]),
                       repr(report.aclr_db["upper"])])
        print(f"sweep {spec.method} target={spec.papr_target_db:g} -> "
              f"papr={report.papr_at_p_db:.2f} dB wall={wall:.1f}s")
    lines = [f"# schema={SCHEMA_SWEEP}", ",".join(header)]
    lines += [",".join(r) for r in rows]
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest

    failures = 0
    # Every ``selftest.check_*`` in definition order; it passes by returning.
    for name, check in vars(selftest).items():
        if not name.startswith("check_"):
            continue
        name = name.removeprefix("check_")
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - report, keep testing
            failures += 1
            print(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} self-test check(s) failed")
        return 1
    print("all self-test checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixnum",
        description="Mixed-numerology waveform simulator and PAPR test bench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", default=None,
                       help="scenario JSON file (built-in default when omitted)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario field (dotted path)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for the clip loops, WOLA and "
                            "filter-bank synthesis, the MSE demodulation and "
                            "the Welch segments (outputs do not depend on it)")

    p_run = sub.add_parser("run", help="run one scenario and measure it")
    common(p_run)
    p_run.add_argument("--dump-waveform", action="store_true",
                       help="also write the raw waveform samples")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a method x target grid")
    common(p_sweep)
    p_sweep.add_argument("--targets", default="5,6,7,8,9",
                         help="comma-separated PAPR targets in dB")
    p_sweep.add_argument(
        "--methods",
        default=f"{METHOD_I_ICEF},{METHOD_E_ICEF_WOLA},{METHOD_FC_ICEF}",
        help="comma-separated method names")
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the property battery")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
