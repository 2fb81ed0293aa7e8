"""Link-level simulator for unsourced / grant-free random access.

Building blocks:

- ``channel``: AWGN and quasi-static Rayleigh channel models, signal energy
  and complex Gaussian noise.
- ``bounds``: closed-form references (Aloha collision probability, AWGN
  capacity / dispersion, finite-blocklength normal approximation).
- ``sequences``: Zadoff-Chu and Gaussian preamble / pilot dictionaries.
- ``codec``: pluggable inner-code models and the slotted-Aloha frame geometry.
- ``detection``: OMP preamble detection, energy detection, LS channel
  estimation, interference subtraction.
- ``protocols``: slotted Aloha, two-step random access (message A), and
  the SB-IDMA repetition variant, with TIN / TIN-SIC receivers.
- ``montecarlo``: PUPE estimation and minimum-SNR search.
- ``cli``: experiment runner (configs, presets, CSV output).
"""

__version__ = "0.1.0"
