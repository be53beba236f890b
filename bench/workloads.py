"""Benchmark workloads: each is a fixed list of ``mixnum run`` scenarios.

A scenario is the list of ``--set`` overrides applied to the built-in
default carrier (two bandwidth parts, 15 kHz QPSK and 60 kHz 64-QAM).  The
workload seed is appended as ``seed=<n>`` by the driver in ``run.py``; no
other input varies with the seed.  See README.md for why each workload
exists and which layer metric it is meant to expose.
"""

from __future__ import annotations

from dataclasses import dataclass

# Shortened durations of the same carrier (the desk scenario has 512 base
# symbols), so that one pass fits several times in a run.  At 5 dB every
# unit runs to the round cap, so the work per symbol does not depend on the
# seed.  At 9 dB the rounds a symbol or block needs do, with a heavy tail,
# so clip_light runs longer to keep the work per pass steady across seeds.
DEEP_SYMBOLS = 64
LIGHT_SYMBOLS = 256


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[tuple[str, ...], ...]
    # Index of the scenario rerun at --threads 1 for the determinism check.
    determinism: int


def _clip(method: str, target_db: int, symbols: int) -> tuple[str, ...]:
    return (f"method={method}", f"papr_target_db={target_db}",
            f"duration_symbols_base={symbols}")


WORKLOADS = {
    # No clip loop: grid generation, WOLA and FC synthesis and the metrics
    # are the whole cost.  The bypass workload for any clip-kernel change.
    "clean": Workload(
        name="clean",
        scenarios=(("method=NONE",), ("method=FC_F_OFDM",)),
        determinism=1),
    # 5 dB target: every symbol, block and composite pass runs to the
    # 20-round cap, so the clip kernels dominate.
    "clip_deep": Workload(
        name="clip_deep",
        scenarios=(_clip("I_ICEF", 5, DEEP_SYMBOLS),
                   _clip("E_ICEF_WOLA", 5, DEEP_SYMBOLS),
                   _clip("FC_ICEF", 5, DEEP_SYMBOLS)),
        determinism=2),
    # 9 dB target: most symbols and blocks stop early, so per-call and
    # active-set bookkeeping weigh more than FFT work.  E_ICEF_WOLA is left
    # out because its composite stop rule never fires at 9 dB either.
    "clip_light": Workload(
        name="clip_light",
        scenarios=(_clip("I_ICEF", 9, LIGHT_SYMBOLS),
                   _clip("FC_ICEF", 9, LIGHT_SYMBOLS)),
        determinism=1),
}
