"""Mixed-numerology CP-OFDM waveform simulator and PAPR test bench.

Builds multi-subband 5G-NR-style carriers (several subcarrier spacings
sharing one channel), applies one of three peak-power reduction schemes —
per-subband clipping, aggregate clipping with inter-numerology
interference cancellation, or clipping embedded in a fast-convolution
filter bank — and measures PAPR statistics, per-subband error, PSD, ACLR
and emission-mask margin.
"""

__version__ = "0.1.0"
