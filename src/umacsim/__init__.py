"""Link-level simulator for unsourced / grant-free random access.

Building blocks:

- ``channel``: AWGN and quasi-static Rayleigh channel models, signal energy
  and complex Gaussian noise.
- ``bounds``: closed-form references (Aloha collision probability, AWGN
  capacity / dispersion, finite-blocklength normal approximation).
- ``sequences``: Zadoff-Chu and Gaussian preamble / pilot dictionaries.
- ``codec``: pluggable inner-code models and the slotted-Aloha frame geometry.
- ``detection``: OMP preamble detection, energy detection, LS channel
  estimation.
- ``protocols``: slotted Aloha, two-step random access (message A), and
  the SB-IDMA repetition variant, with TIN / TIN-SIC receivers.
- ``montecarlo``: PUPE estimation and minimum-SNR search.
- ``cli``: experiment runner (configs, presets, CSV output).

Importing the package pins BLAS to one thread (OPENBLAS_NUM_THREADS,
MKL_NUM_THREADS and OMP_NUM_THREADS default to 1) before any submodule
imports numpy; a value already in the environment wins.  The simulator's
BLAS products are small and many, so a second BLAS thread mostly spins;
the wide passes over a large dictionary are split over the CPUs by
``detection`` itself.  BLAS reads these variables when numpy is first
imported, so a process that imported numpy earlier keeps its thread count.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"
