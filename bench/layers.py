"""Traced ``mixnum run``: the same calls as the CLI, one span per layer.

``traced_run`` re-drives ``cli.cmd_run`` from outside the package: it
parses the scenario, then calls what ``cli.execute`` and
``metrics.measure_all`` call, in their order, and writes the artifacts
with the CLI's own writers.  ``run.py`` checks that the artifacts are
byte-identical to an untraced run's, so the traced path cannot drift from
the user path unnoticed.

After each run, a few probes re-run single layers outside the run's span
tree so that a runner's own clip time can be separated from the synthesis
or analysis it does internally, and so FC_ICEF's thread scaling shows.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mixnum import cli, fc, fc_icef, icef, metrics, ofdm, scenario, wola

# Per-layer metrics reported by ``--trace 1``, with their units.
PER_LAYER_UNITS = {
    "scenario.parse_s": "s",
    "scenario.derive_s": "s",
    "ofdm.grid_s": "s",
    "ofdm.grid_symbols": "count",
    "wola.synth_s": "s",
    "fc.analysis_s": "s",
    "fc.synth_s": "s",
    "icef.i_s": "s",
    "icef.i_clip_s": "s",
    "icef.i_symbol_rounds": "count",
    "icef.i_converged_frac": "ratio",
    "icef.i_us_per_round": "us",
    "icef.i_fft_mpoints": "Mpoint",
    "icef.i_peak_mb": "MB",
    "icef.e_s": "s",
    "icef.e_clip_s": "s",
    "icef.e_rounds": "count",
    "icef.e_fft_mpoints": "Mpoint",
    "icef.e_peak_mb": "MB",
    "fc_icef.s": "s",
    "fc_icef.clip_s": "s",
    "fc_icef.block_rounds": "count",
    "fc_icef.converged_frac": "ratio",
    "fc_icef.us_per_round": "us",
    "fc_icef.fft_mpoints": "Mpoint",
    "fc_icef.speedup_t2": "ratio",
    "fc_icef.peak_mb": "MB",
    "metrics.ccdf_s": "s",
    "metrics.mse_s": "s",
    "metrics.psd_s": "s",
    "cli.execute_s": "s",
    "cli.measure_s": "s",
    "cli.write_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.residual_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Span name of each method's runner call inside ``cli.execute``.
RUNNER_SPANS = {
    scenario.METHOD_NONE: "wola.synth",  # run_none is WOLA synthesis only
    scenario.METHOD_FC_F_OFDM: "fc.synth",
    scenario.METHOD_I_ICEF: "icef.i",
    scenario.METHOD_E_ICEF_WOLA: "icef.e",
    scenario.METHOD_FC_ICEF: "fc_icef",
}
CLIP_METHODS = (scenario.METHOD_I_ICEF, scenario.METHOD_E_ICEF_WOLA,
                scenario.METHOD_FC_ICEF)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans of one benchmark invocation, written out at its end.

    Spans nest on a single stack, so the children of a span never overlap
    and the time they cover is the sum of their durations.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, run_id: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), float("nan"), parent, run_id)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def totals(self, run_id: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            if s.run_id == run_id:
                out[s.name] = out.get(s.name, 0.0) + s.seconds
        return out

    def residual(self, run_id: str) -> float:
        """Self time of the spans that have children: time no layer claims."""
        parents = {s.parent for s in self.spans
                   if s.run_id == run_id and s.parent is not None}
        own = self.self_times()
        return sum(own[i] for i in parents)

    def write(self, path: Path) -> None:
        own = self.self_times()
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run_id": s.run_id, "self_s": own[i]}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


@dataclass
class RunFacts:
    """What a traced run leaves for the per-layer metrics."""

    run_id: str
    spec: scenario.ScenarioSpec
    dims: scenario.DerivedDims
    info: dict
    peak_bytes: int = 0
    artifact_bytes: int = 0
    totals: dict[str, float] = field(default_factory=dict)
    residual_s: float = 0.0


def _execute(tr: Tracer, run_id: str, spec, threads: int, info: dict):
    """``cli.execute`` with a span around each layer call."""
    with tr.span("scenario.derive", run_id):
        dims = scenario.derive_dims(spec)
    with tr.span("ofdm.grid", run_id):
        grids = [ofdm.generate_grid(dims, m, spec.seed)
                 for m in range(dims.num_bwps)]
    runner = {
        scenario.METHOD_NONE: icef.run_none,
        scenario.METHOD_I_ICEF: icef.run_i_icef,
        scenario.METHOD_E_ICEF_WOLA: icef.run_e_icef,
        scenario.METHOD_FC_F_OFDM: fc.run_fc_f_ofdm,
    }.get(spec.method)
    peak = 0
    if spec.method in CLIP_METHODS:
        tracemalloc.start()
    try:
        with tr.span(RUNNER_SPANS[spec.method], run_id):
            if spec.method == scenario.METHOD_FC_ICEF:
                sig = fc_icef.run_fc_icef(spec, dims, grids, info=info,
                                          threads=threads)
            else:
                sig = runner(spec, dims, grids, info=info)
        if tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sig, dims, grids, peak


def _measure(tr: Tracer, run_id: str, sig, spec, dims, grids, iterations):
    """``metrics.measure_all`` with a span around each metric."""
    with tr.span("metrics.ccdf", run_id):
        curve = metrics.ccdf(metrics.papr_per_sample(sig))
        papr_db = metrics.papr_at_probability(curve, spec.measure.ccdf_probability)
    with tr.span("metrics.mse", run_id):
        mse = metrics.mse_per_bwp(sig, dims, grids)
    with tr.span("metrics.psd", run_id):
        psd = metrics.psd_welch(sig, spec.measure.psd_rbw_hz)
        aclr_db = metrics.aclr(psd, spec.channel_bw_hz,
                               spec.measure.aclr_measurement_bw_hz)
        margin = (metrics.mask_margin(psd, spec.measure.mask_file)
                  if spec.measure.mask_file else None)
    hist: list[int] = []
    if iterations is not None and np.size(iterations):
        hist = np.bincount(np.atleast_1d(np.asarray(iterations,
                                                    dtype=np.int64))).tolist()
    report = metrics.MetricsReport(
        papr_at_p_db=papr_db, ccdf_probability=spec.measure.ccdf_probability,
        ccdf_window=curve.window, mse_db=mse, aclr_db=aclr_db,
        mask_margin_db=margin, iterations_histogram=hist)
    return report, curve, psd


def _write(out_dir: Path, spec, report, curve, psd, sig) -> None:
    """The artifacts ``cli.cmd_run`` writes, with its own writers."""
    cli._write_ccdf_csv(out_dir / "ccdf.csv", curve)
    cli._write_psd_csv(out_dir / "psd.csv", psd)
    payload = {
        "schema": cli.SCHEMA_REPORT,
        "digest": cli.scenario_digest(spec),
        "method": spec.method,
        "papr_target_db": spec.papr_target_db,
        "scenario": spec.to_dict(),
        "metrics": report.to_dict(),
    }
    (out_dir / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    ofdm.write_waveform(sig, str(out_dir / "waveform.c128"))


def _probes(tr: Tracer, run_id: str, spec, dims, grids, info: dict,
            threads: int) -> None:
    """Single-layer reruns, outside the run's span tree."""
    if spec.method in (scenario.METHOD_I_ICEF, scenario.METHOD_E_ICEF_WOLA):
        with tr.span("probe.wola.synth", run_id):
            wola.aggregate([wola.modulate_wola(g, dims, spec.wola_extension_factor)
                            for g in info["grids"]])
    if spec.method in scenario.FC_METHODS:
        with tr.span("probe.fc.analysis", run_id):
            fc.fc_subband_spectra(dims, grids)
    if spec.method == scenario.METHOD_FC_ICEF:
        with tr.span("probe.fc_icef.t1", run_id):
            fc_icef.run_fc_icef(spec, dims, grids, threads=1)


def traced_run(tr: Tracer, run_id: str, out_dir: Path, sets, threads: int) -> RunFacts:
    """One traced ``mixnum run --dump-waveform`` followed by its probes."""
    info: dict = {}
    with tr.span("cli.run", run_id):
        with tr.span("scenario.parse", run_id):
            spec = scenario.scenario_from_dict(cli.load_raw_scenario(None, list(sets)))
        out_dir.mkdir(parents=True, exist_ok=True)
        with tr.span("cli.execute", run_id):
            sig, dims, grids, peak = _execute(tr, run_id, spec, threads, info)
        with tr.span("cli.measure", run_id):
            report, curve, psd = _measure(tr, run_id, sig, spec, dims, grids,
                                          info.get("iterations"))
        with tr.span("cli.write", run_id):
            _write(out_dir, spec, report, curve, psd, sig)
    del sig, curve, psd
    facts = RunFacts(run_id=run_id, spec=spec, dims=dims, info=info,
                     peak_bytes=peak,
                     artifact_bytes=sum(p.stat().st_size for p in out_dir.iterdir()))
    _probes(tr, run_id, spec, dims, grids, info, threads)
    facts.totals = tr.totals(run_id)
    facts.residual_s = tr.residual(run_id)
    return facts


def _split(per_unit: np.ndarray, dims) -> list[np.ndarray]:
    """Per-BWP pieces of I_ICEF's per-symbol iteration counts."""
    bounds = np.cumsum([bd.num_symbols for bd in dims.bwps])[:-1]
    return np.split(np.asarray(per_unit), bounds)


def fft_mpoints(facts: RunFacts) -> float:
    """Computed transform points of a clip runner's loop, in millions.

    Taken from the iteration counts and transform sizes, following the
    current loop structure (WOLA synthesis and FC analysis excluded):
    I_ICEF does one inverse per symbol, then a forward and an inverse per
    symbol-round; E_ICEF_WOLA does one synthesis and one interference
    observation per subband up front, then an observation, a synthesis
    and an interference observation per subband each round; FC_ICEF does
    one inverse per block, then a forward and an inverse per block-round.
    """
    spec, dims, iters = facts.spec, facts.dims, facts.info["iterations"]
    if spec.method == scenario.METHOD_I_ICEF:
        points = sum(bd.l_ofdm_os * (bd.num_symbols + 2 * int(it.sum()))
                     for bd, it in zip(dims.bwps, _split(iters, dims)))
    elif spec.method == scenario.METHOD_E_ICEF_WOLA:
        multi = dims.num_bwps > 1
        points = sum(bd.l_ofdm_os * bd.num_symbols
                     * ((2 if multi else 1) + (3 if multi else 2) * int(iters))
                     for bd in dims.bwps)
    else:
        points = dims.fc.inverse_len * (np.size(iters) + 2 * int(np.sum(iters)))
    return points / 1e6


def pass_metrics(runs: list[RunFacts]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's scenarios.

    Layer times add up over the pass.  A workload runs each method at most
    once, so a runner's metrics are that one run's; layers a workload never
    calls read zero.
    """
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for f in runs:
        t = f.totals
        for span in ("scenario.parse", "scenario.derive", "ofdm.grid",
                     "fc.synth", "metrics.ccdf", "metrics.mse", "metrics.psd",
                     "cli.execute", "cli.measure", "cli.write"):
            out[span + "_s"] += t.get(span, 0.0)
        synth = t.get("wola.synth", 0.0) + t.get("probe.wola.synth", 0.0)
        analysis = t.get("probe.fc.analysis", 0.0)
        out["ofdm.grid_symbols"] += sum(bd.num_symbols for bd in f.dims.bwps)
        out["wola.synth_s"] += synth
        out["fc.analysis_s"] += analysis
        out["cli.artifact_bytes"] += f.artifact_bytes
        out["cli.residual_s"] += f.residual_s
        out["trace.wall_s"] += t["cli.run"]

        method = f.spec.method
        if method not in CLIP_METHODS:
            continue
        iters = np.asarray(f.info["iterations"])
        rounds = int(iters.sum())
        converged = float(np.mean(iters < f.spec.max_iterations))
        run_s = t[RUNNER_SPANS[method]]
        peak_mb = f.peak_bytes / 2**20
        if method == scenario.METHOD_I_ICEF:
            clip_s = run_s - synth
            out.update({"icef.i_s": run_s, "icef.i_clip_s": clip_s,
                        "icef.i_symbol_rounds": rounds,
                        "icef.i_converged_frac": converged,
                        "icef.i_us_per_round": clip_s / max(rounds, 1) * 1e6,
                        "icef.i_fft_mpoints": fft_mpoints(f),
                        "icef.i_peak_mb": peak_mb})
        elif method == scenario.METHOD_E_ICEF_WOLA:
            out.update({"icef.e_s": run_s, "icef.e_clip_s": run_s - synth,
                        "icef.e_rounds": rounds,
                        "icef.e_fft_mpoints": fft_mpoints(f),
                        "icef.e_peak_mb": peak_mb})
        else:
            clip_s = run_s - analysis
            out.update({"fc_icef.s": run_s, "fc_icef.clip_s": clip_s,
                        "fc_icef.block_rounds": rounds,
                        "fc_icef.converged_frac": converged,
                        "fc_icef.us_per_round": clip_s / max(rounds, 1) * 1e6,
                        "fc_icef.fft_mpoints": fft_mpoints(f),
                        "fc_icef.speedup_t2": t["probe.fc_icef.t1"] / run_s,
                        "fc_icef.peak_mb": peak_mb})
    return out
