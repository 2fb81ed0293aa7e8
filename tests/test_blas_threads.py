"""BLAS threads: importing umacsim pins BLAS to one thread unless the caller
set a count, and no count, selection or coefficient depends on that count."""
import json
import os
import subprocess
import sys

import umacsim

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# Two probes, printed as one JSON line: a twostep_rayleigh_1024 probe, whose
# dictionary is too small to split its passes, and an SB-IDMA probe on a
# Gaussian dictionary just large enough to split them.  Every OMP result of
# both goes into one digest: its indices and coefficient bytes.  The
# residual energy is left out: the residual y - A_S coef is a BLAS
# matrix-vector product whose last bits depend on OpenBLAS's thread count.
PROBES = """
import dataclasses, hashlib, json
import umacsim
import numpy as np
from umacsim import protocols
from umacsim.cli import build_experiment, load_preset
from umacsim.detection import SPLIT_BYTES
from umacsim.montecarlo import estimate_pupe
from umacsim.protocols import build_dictionaries

digest = hashlib.sha256()
calls = 0
detect = protocols.omp_detect_many

def recorded(*args, **kwargs):
    global calls
    calls += 1
    results = detect(*args, **kwargs)
    for r in results:
        digest.update(np.asarray(r.indices, dtype=np.int64).tobytes())
        digest.update(r.coefficients.tobytes())
    return results

protocols.omp_detect_many = recorded
rayleigh = build_experiment(load_preset("twostep_rayleigh_1024"))
config = load_preset("sbidma_tuned")
size = -(-SPLIT_BYTES // (8 * config.preamble_len))
gaussian = build_experiment(dataclasses.replace(config, n_preambles=size))
assert build_dictionaries(gaussian.config)[0].columns.nbytes >= SPLIT_BYTES
counts = []
for experiment, ka, trials in ((rayleigh, 30, 10), (gaussian, 20, 6)):
    est = estimate_pupe(experiment, ka, 10.0, trials, 7)
    counts.append([est.trials, est.total, est.failures, est.clashes])
print(json.dumps({"counts": counts, "calls": calls, "digest": digest.hexdigest()}))
"""


def run_python(code: str, **blas: str):
    """The last stdout line of `code`, run in a fresh interpreter with no
    BLAS variable set but those in `blas`, as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(umacsim.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


READ_VARS = f"import json, os, umacsim; print(json.dumps([os.environ.get(v) for v in {BLAS_VARS}]))"


def test_import_pins_blas_to_one_thread():
    assert run_python(READ_VARS) == ["1", "1", "1"]


def test_caller_setting_wins():
    assert run_python(READ_VARS, OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


def test_results_do_not_depend_on_blas_threads():
    one = run_python(PROBES, OPENBLAS_NUM_THREADS="1")
    two = run_python(PROBES, OPENBLAS_NUM_THREADS="2")
    assert one["calls"] > 0
    assert one == two
