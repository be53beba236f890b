#!/usr/bin/env python3
"""Outside-in benchmark of ``mixnum run``.

Run from the repository root:

    python3 bench/run.py --workload clean --seed 1 --seconds 20 --trace 0

One closed-loop client in one process: the workload's scenarios run one
after another through ``mixnum.cli.main(["run", ...])`` with
``--threads 2``, the next only after the previous one returned.  A pass
over all of them repeats until ``--seconds`` have elapsed (at least twice,
so every pass doubles as a repeat-run determinism check).

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s, msps,
peak_rss_mb).  ``--trace 1`` reports the per-layer metrics of passes that
re-drive the same path layer by layer with spans (``layers.py``), next to
untraced passes so the tracing overhead shows.

Every run's outputs are checked (see ``check_outputs``), and one scenario
per invocation is rerun at ``--threads 1`` before timing starts; its
``report.json``, ``ccdf.csv`` and waveform digests must equal every later
run's.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
THREADS = 2
MIN_PASSES = 2
SETUP_STARTS = 5
DIGESTED = ("report.json", "ccdf.csv", "waveform.c128")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "msps": "Msample/s",
                    "peak_rss_mb": "MB"}

# Runs in a fresh interpreter: import the package (numpy and scipy.signal
# come with it), parse the scenario and derive its dimensions.
SETUP_CODE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import mixnum
from mixnum import cli, scenario
if Path(mixnum.__file__).resolve().parent != Path(sys.argv[1]) / "mixnum":
    raise SystemExit("mixnum imported from outside the checkout")
scenario.derive_dims(scenario.scenario_from_dict(
    cli.load_raw_scenario(None, sys.argv[2:])))
"""


def load_program():
    """Import mixnum from this checkout's sources, never an installed copy."""
    if not (SRC / "mixnum" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mixnum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixnum
    if Path(mixnum.__file__).resolve().parent != SRC / "mixnum":
        raise SystemExit(f"bench: mixnum imported from {mixnum.__file__}")


class Tally:
    """Counts operations and failed checks; keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {message}")
        print(f"FAILED {label}: {message}", file=sys.stderr)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


class Scenario:
    """One ``mixnum run`` of a workload: its overrides and expected output."""

    def __init__(self, workload: Workload, index: int, seed: int):
        from mixnum import cli, scenario, wola
        self.sets = (*workload.scenarios[index], f"seed={seed}")
        self.out_dir = OUT / workload.name / f"s{index}"
        spec = scenario.scenario_from_dict(cli.load_raw_scenario(None, list(self.sets)))
        dims = scenario.derive_dims(spec)
        self.label = f"{workload.name}/{index}:{spec.method}"
        if spec.method in scenario.FC_METHODS:
            bd = dims.bwps[0]
            self.samples = bd.num_symbols * bd.stride_os
        else:
            self.samples = max(
                bd.num_symbols * bd.stride_os
                + wola.WolaParams.from_dims(bd, spec.wola_extension_factor).l_ext // 2
                for bd in dims.bwps)
        self.seconds: list[float] = []  # wall time of each untraced run
        self.digests: dict[str, str] | None = None
        self.quality: dict | None = None

    def argv(self, threads: int) -> list[str]:
        argv = ["run", "--out", str(self.out_dir), "--threads", str(threads),
                "--dump-waveform"]
        for assignment in self.sets:
            argv += ["--set", assignment]
        return argv


def check_outputs(sc: Scenario, label: str, tally: Tally) -> None:
    """Check one run's artifacts; the first run's digests become the reference.

    ``report.json`` must parse with finite PAPR, MSE and ACLR; both CSVs
    must carry their schema header; the waveform must have the length the
    scenario's dimensions imply; and every digested file must match the
    scenario's first run byte for byte.
    """
    out = sc.out_dir
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        m = report["metrics"]
        values = [m["papr_at_p_db"], *m["mse_db"], m["aclr_db"]["lower"],
                  m["aclr_db"]["upper"]]
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            tally.fail(label, f"non-finite quality figure in {values}")
        for name, schema, header in (
                ("ccdf.csv", "mixnum-ccdf-1", "papr_db,probability"),
                ("psd.csv", "mixnum-psd-1", "freq_hz,db")):
            with open(out / name, encoding="utf-8") as fh:
                head = [fh.readline().rstrip("\n"), fh.readline().rstrip("\n")]
            if not head[0].startswith(f"# schema={schema} ") or head[1] != header:
                tally.fail(label, f"{name} header is {head}")
        wave = out / "waveform.c128"
        sidecar = json.loads((out / "waveform.c128.json").read_text(encoding="utf-8"))
        n = wave.stat().st_size // 16
        if n != sc.samples or sidecar["num_samples"] != sc.samples:
            tally.fail(label, f"waveform has {n} samples (sidecar "
                              f"{sidecar['num_samples']}), expected {sc.samples}")
        digests = {name: sha256(out / name) for name in DIGESTED}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.fail(label, f"unreadable outputs: {exc!r}")
        return
    if sc.digests is None:
        sc.digests = digests
        sc.quality = {"papr_at_p_db": m["papr_at_p_db"], "mse_db": m["mse_db"],
                      "aclr_db": m["aclr_db"],
                      "iterations_histogram": m["iterations_histogram"]}
    elif digests != sc.digests:
        differ = [k for k in DIGESTED if digests[k] != sc.digests[k]]
        tally.fail(label, f"{differ} differ from the scenario's first run")


def run_once(cli, sc: Scenario, threads: int, label: str, tally: Tally) -> float:
    """One ``mixnum run`` in-process; returns its wall seconds."""
    tally.attempted += 1
    shutil.rmtree(sc.out_dir, ignore_errors=True)
    log = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(sc.argv(threads))
    except Exception:  # noqa: BLE001 - a crashed run is a failed operation
        tally.fail(label, traceback.format_exc())
        return time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    if rc != 0:
        tally.fail(label, f"exit code {rc}: {log.getvalue().strip()}")
        return seconds
    check_outputs(sc, label, tally)
    return seconds


def measure_setup(sets: tuple[str, ...]) -> list[float]:
    """Wall seconds of fresh interpreters that import, parse and derive."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *sets],
                       cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def host_context() -> dict:
    import numpy
    import scipy
    from mixnum import ofdm
    dft_body = inspect.getsource(ofdm.dft).strip().splitlines()[-1].strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "fft_backend": dft_body, "machine": platform.machine()}


def untraced_pass(cli, scenarios: list[Scenario], n: int, tally: Tally) -> float:
    for sc in scenarios:
        sc.seconds.append(run_once(cli, sc, THREADS, f"{sc.label} pass {n}", tally))
    return sum(sc.seconds[-1] for sc in scenarios)


def pass_wall(scenarios: list[Scenario]) -> float:
    """Wall time of one pass: the sum of each scenario's median run time.

    Summing per-scenario medians keeps a burst of host noise in one run
    from moving the figure, which the median of whole-pass sums does not.
    """
    return sum(statistics.median(sc.seconds) for sc in scenarios)


def end_to_end(scenarios: list[Scenario], seconds: float, tally: Tally) -> dict:
    from mixnum import cli
    setup = measure_setup(scenarios[0].sets)
    walls = []
    t_start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        walls.append(untraced_pass(cli, scenarios, len(walls), tally))
    samples = sum(sc.samples for sc in scenarios)
    wall = pass_wall(scenarios)
    print(f"passes={len(walls)} wall_s each: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"setup_s each: " + " ".join(f"{t:.4f}" for t in setup))
    return {"setup_s": statistics.median(setup),
            "wall_s": wall,
            "msps": samples / wall / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(scenarios: list[Scenario], seconds: float, tally: Tally,
              spans_path: Path) -> dict:
    from mixnum import cli
    import layers
    tracer = layers.Tracer()
    untraced, traced = [], []
    t_start = time.perf_counter()
    while not untraced or time.perf_counter() - t_start < seconds / 2:
        untraced.append(untraced_pass(cli, scenarios, len(untraced), tally))
    while not traced or time.perf_counter() - t_start < seconds:
        n = len(traced)
        runs = []
        for sc in scenarios:
            label = f"{sc.label} traced pass {n}"
            tally.attempted += 1
            shutil.rmtree(sc.out_dir, ignore_errors=True)
            try:
                facts = layers.traced_run(tracer, f"p{n}/{sc.label}", sc.out_dir,
                                          sc.sets, THREADS)
            except Exception:  # noqa: BLE001 - a crashed run is a failed operation
                tally.fail(label, traceback.format_exc())
                continue
            check_outputs(sc, label, tally)
            runs.append(facts)
        traced.append(layers.pass_metrics(runs))
    tracer.write(spans_path)
    out = {name: statistics.median(p[name] for p in traced)
           for name in layers.PER_LAYER_UNITS if name != "trace.overhead_s"}
    out["trace.overhead_s"] = out["trace.wall_s"] - pass_wall(scenarios)
    print(f"untraced wall_s each: " + " ".join(f"{w:.4f}" for w in untraced))
    print(f"traced wall_s each: " + " ".join(f"{p['trace.wall_s']:.4f}" for p in traced))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # MIXNUM_SEED would silently override the --set seed= the workload uses.
    os.environ.pop("MIXNUM_SEED", None)
    load_program()
    workload = WORKLOADS[args.workload]
    scenarios = [Scenario(workload, i, args.seed)
                 for i in range(len(workload.scenarios))]
    tally = Tally()
    host = host_context()
    print(f"host: {json.dumps(host, sort_keys=True)}")

    from mixnum import cli
    OUT.mkdir(parents=True, exist_ok=True)
    # Untimed determinism reference: rerun at --threads 1 before any timing
    # (it also warms caches); every later run of it must match byte for byte.
    det = scenarios[workload.determinism]
    run_once(cli, det, 1, f"{det.label} threads 1", tally)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values = per_layer(scenarios, args.seconds, tally, OUT / f"spans-{stem}.json")
        import layers
        units = layers.PER_LAYER_UNITS
    else:
        values = end_to_end(scenarios, args.seconds, tally)
        units = END_TO_END_UNITS
    for sc in scenarios:
        shutil.rmtree(sc.out_dir, ignore_errors=True)

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops = {tally.attempted}  ops_failed = {tally.failed}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "metrics": values,
              "ops": tally.attempted, "ops_failed": tally.failed,
              "problems": tally.problems,
              "runs": {sc.label: {"digests": sc.digests, "quality": sc.quality,
                                  "wall_s": sc.seconds}
                       for sc in scenarios}}
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for sc in scenarios:
        print(f"{sc.label} wall_s each: " + " ".join(f"{t:.4f}" for t in sc.seconds))
        print(f"digests {sc.label}: {json.dumps(sc.digests, sort_keys=True)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
