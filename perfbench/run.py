#!/usr/bin/env python3
"""umacsim benchmark: time-to-curve, trial throughput and peak RSS.

Usage (from the repository root):

    python3 perfbench/run.py --workload rayleigh1024_sweep --seed 2024 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

The simulator is imported from ``src/`` next to this directory and is only
called through its public functions; nothing under ``src/`` is changed.
A run sets up once in this fresh process (timed from ``import umacsim``),
then repeats the workload's unit (one estimate, or one CSV sweep per preset)
until ``--seconds`` would be exceeded, and checks every output: against
``golden.json`` when it holds the seed, otherwise against invariants; each
repeat must also reproduce the first byte for byte.  ``--trace 1`` instead
alternates untraced and traced units and reports per-layer metrics (see
``spans.py`` and README.md).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
check failed and 2 when the simulator sources cannot be found.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 2024
# The documented CSV schema (README "Output schema"); not read from the code.
CSV_HEADER = "scenario,channel,ka,min_snr_db,pupe,ci_low,ci_high,trials,seed,notes"
SETUP_SAMPLES = 3

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass(frozen=True)
class Job:
    """One call into the simulator inside a unit."""

    preset: str
    scale: float = 1.0                       # cli.run --trials-scale
    ka_list: tuple[int, ...] | None = None   # None keeps the preset's list
    point: tuple[int, float, int] | None = None  # (ka, snr_db, trials): estimate_pupe


@dataclasses.dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    threads: int = 1              # UMAC_BENCH_THREADS; above 1, also checked against serial


# Why each workload exists is in README.md.
WORKLOADS = {
    "tuned_point": Workload(jobs=(Job("sbidma_tuned", point=(30, 10.0, 5)),)),
    "rayleigh1024_sweep": Workload(jobs=(Job("twostep_rayleigh_1024", scale=0.01),)),
    # ka 2 always reaches the target (full bisection) and ka 16 never does
    # (two probes), for every seed, so the work per sweep does not depend on it.
    "awgn_sweep_2w": Workload(
        jobs=(Job("twostep_awgn_baseline", scale=0.05, ka_list=(2, 16)),),
        threads=2,
    ),
    "mini_sweeps": Workload(jobs=(Job("slotted_aloha_mini"), Job("twostep_awgn_mini"))),
}


# ---------------------------------------------------------------------------
# simulator access


class SimulatorMissing(RuntimeError):
    pass


def import_umacsim():
    """Import umacsim from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "umacsim", "__init__.py")):
        raise SimulatorMissing(f"no simulator sources at {SRC}/umacsim")
    sys.path.insert(0, SRC)
    import umacsim
    from umacsim import cli, codec, montecarlo, protocols

    if not os.path.abspath(umacsim.__file__).startswith(SRC + os.sep):
        raise SimulatorMissing(f"umacsim imported from {umacsim.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, codec=codec, montecarlo=montecarlo, protocols=protocols)


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclasses.dataclass
class Prepared:
    job: Job
    config: object
    experiment: object


def setup(mods, workload: Workload, tracer=None) -> list[Prepared]:
    """Preset load, build_experiment, dictionaries and the codec threshold."""
    call = tracer.call if tracer is not None else _plain_call
    prepared = []
    for job in workload.jobs:
        config = call("cli.load_preset", mods.cli.load_preset, job.preset)
        if job.ka_list is not None:
            config = dataclasses.replace(config, ka_list=job.ka_list)
        experiment = call("cli.build_experiment", mods.cli.build_experiment, config)
        if hasattr(experiment.config, "preamble"):
            pre, pilots = call(
                "protocols.build_dictionaries", mods.protocols.build_dictionaries,
                experiment.config,
            )
            if tracer is not None:
                tracer.counts["dict_bytes"] += pre.columns.nbytes + (
                    pilots.columns.nbytes if pilots is not None else 0
                )
        call("codec.decode_threshold", mods.codec.decode_threshold, experiment.config.codec)
        prepared.append(Prepared(job, config, experiment))
    return prepared


def cold_caches(mods, pool: bool) -> None:
    """Give each repeat of a unit the caches a user's first run would see.

    Codewords of 100-bit messages never repeat in a real sweep, but they do
    in a repeated unit.  Before a pool pass the parent is emptied too: a CLI
    user's parent never runs a trial, so forked workers build dictionaries
    and the codec threshold on every probe.
    """
    functions = [getattr(mods.codec, "_oracle_codeword_unit", None)]
    if pool:
        functions += [mods.protocols.build_dictionaries, mods.codec.decode_threshold]
    for fn in functions:
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


def run_job(mods, item: Prepared, seed: int, call=_plain_call):
    """Run one job; returns its output (CSV text, or the estimate's counts)."""
    job = item.job
    if job.point is not None:
        ka, snr_db, trials = job.point
        est = mods.montecarlo.estimate_pupe(item.experiment, ka, snr_db, trials, seed)
        return {
            "failures": est.failures, "clashes": est.clashes, "trials": est.trials,
            "total": est.total, "pupe": est.pupe, "ci_low": est.ci_low, "ci_high": est.ci_high,
        }
    path = os.path.join(OUT_DIR, f"{job.preset}-{os.getpid()}.csv")
    code = call(
        "cli.run", mods.cli.run, item.config, path, seed=seed,
        trials_scale=job.scale, stream=io.StringIO(),
    )
    if code != 0:
        raise RuntimeError(f"cli.run returned {code} for {job.preset}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    return text


def _cpu_times() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _child_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


@contextlib.contextmanager
def probe_log(mods):
    """Record [trials, total, failures, clashes] of every probe (estimate_pupe
    call) while active: the integer fingerprint of a whole search.  Each
    probe's (wall, cpu) seconds go to a second list.  This is the only hook
    in an untraced unit, one wrapper call per probe."""
    original = mods.montecarlo.estimate_pupe
    probes: list[list[int]] = []
    costs: list[tuple[float, float]] = []

    def estimate_pupe(*args, **kwargs):
        cpu0, start = _cpu_times(), time.perf_counter()
        est = original(*args, **kwargs)
        costs.append((time.perf_counter() - start, _cpu_times() - cpu0))
        probes.append([est.trials, est.total, est.failures, est.clashes])
        return est

    mods.montecarlo.estimate_pupe = estimate_pupe
    try:
        yield probes, costs
    finally:
        mods.montecarlo.estimate_pupe = original


@dataclasses.dataclass
class UnitResult:
    outputs: dict
    wall: float
    cpu: float
    child_cpu: float
    probe_costs: list[tuple[float, float]]   # (wall, cpu) of each probe, in order

    @property
    def trials(self) -> int:
        return sum(probe[0] for probe in self.outputs["probes"])


def run_unit(mods, prepared, seed: int, threads: int, tracer=None) -> UnitResult:
    """One timed unit: every job of the workload, in order."""
    from spans import patched

    os.environ["UMAC_BENCH_THREADS"] = str(threads)
    cold_caches(mods, pool=threads > 1)
    call = tracer.call if tracer is not None else _plain_call
    cpu0, kids0 = _cpu_times(), _child_cpu()
    start = time.perf_counter()
    with probe_log(mods) as (probes, costs), (
        patched(tracer) if tracer is not None else contextlib.nullcontext()
    ):
        outputs = {item.job.preset: run_job(mods, item, seed, call) for item in prepared}
    wall = time.perf_counter() - start
    outputs["probes"] = probes
    return UnitResult(outputs, wall, _cpu_times() - cpu0, _child_cpu() - kids0, costs)


def typical_unit(units: list[UnitResult], field: int) -> float:
    """Wall (field 0) or CPU (field 1) seconds of one unit, built from medians
    over the repeats: each probe at its own median, plus the median of what
    the unit spends outside probes (CSV, checkpoint, bisection steps).  A
    burst of load from other tenants of the host then moves only the probes
    it overlapped."""
    totals = [u.wall if field == 0 else u.cpu for u in units]
    rest = statistics.median(
        total - sum(c[field] for c in u.probe_costs) for total, u in zip(totals, units)
    )
    per_probe = zip(*(u.probe_costs for u in units))
    return rest + sum(statistics.median(c[field] for c in probe) for probe in per_probe)


# ---------------------------------------------------------------------------
# checks


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# check failed: {what}", file=sys.stderr)

    def guarded(self, what: str, fn, *args):
        """Run fn; an exception counts as one failed check and yields None."""
        try:
            return fn(*args)
        except Exception:  # any simulator error is a failed output, reported below
            traceback.print_exc()
            self.expect(False, f"{what} raised")
            return None


def csv_problems(text: str, config, seed: int) -> list[str]:
    """Invariants every curve CSV must satisfy, whatever the seed."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        return [f"header {lines[0]!r}"]
    if not text.endswith("\n"):
        return ["missing final newline"]
    rows = list(csv.reader(line for line in lines[1:] if line))
    problems = []
    if [r[2] for r in rows] != [str(k) for k in config.ka_list]:
        problems.append(f"ka column {[r[2] for r in rows]} != {list(config.ka_list)}")
    for row in rows:
        try:
            scenario, channel, ka, snr, pupe, lo, hi, trials, row_seed, notes = row
            pupe, lo, hi, ka, trials = float(pupe), float(lo), float(hi), int(ka), int(trials)
            if snr:
                float(snr)
        except ValueError:
            problems.append(f"unparsable row {row}")
            continue
        total = ka * trials
        failures = pupe * total
        if (scenario, channel, row_seed) != (config.scenario, config.channel, str(seed)):
            problems.append(f"row identity {row[:3]} {row_seed}")
        if not 0.0 <= lo <= pupe <= hi <= 1.0:
            problems.append(f"ka={ka}: ci ordering {lo} <= {pupe} <= {hi}")
        if trials < 1 or abs(failures - round(failures)) > 1e-4 or round(failures) > total:
            problems.append(f"ka={ka}: {failures} failures of {total}")
        if (snr == "") != ("not found" in notes):
            problems.append(f"ka={ka}: min_snr {snr!r} with notes {notes!r}")
        if snr and not config.snr_lo_db <= float(snr) <= config.snr_hi_db:
            problems.append(f"ka={ka}: min_snr {snr} outside the bracket")
    return problems


def point_problems(out: dict, ka: int, trials: int) -> list[str]:
    problems = []
    if not out["ci_low"] <= out["pupe"] <= out["ci_high"]:
        problems.append(f"ci ordering {out['ci_low']} <= {out['pupe']} <= {out['ci_high']}")
    if not 0 <= out["failures"] <= out["total"] or not 0 <= out["clashes"] <= out["total"]:
        problems.append(f"counts {out['failures']}/{out['clashes']} of {out['total']}")
    if out["trials"] != trials or out["total"] != ka * trials:
        problems.append(f"trials {out['trials']}, total {out['total']}")
    if out["pupe"] != out["failures"] / out["total"]:
        problems.append("pupe != failures / total")
    return problems


GOLDEN_POINT_KEYS = ("failures", "clashes", "trials", "total")


def golden_view(output):
    """The part of an output that a golden pins exactly."""
    if isinstance(output, dict):
        return {k: output[k] for k in GOLDEN_POINT_KEYS}
    return output


def probe_problems(probes: list[list[int]]) -> list[str]:
    if not probes:
        return ["no probes were counted (estimate_pupe not reached)"]
    return [
        f"probe {i}: {failures} failures, {clashes} clashes of {total} in {trials} trials"
        for i, (trials, total, failures, clashes) in enumerate(probes)
        if trials < 1 or total % trials or not 0 <= failures <= total
        or not 0 <= clashes <= total
    ]


def check_outputs(checks: Checks, prepared, outputs: dict, golden: dict | None, seed: int,
                  label: str) -> None:
    """Each output against the golden if there is one, else its invariants."""
    if golden is not None:
        checks.expect(set(golden) == set(outputs), f"{label}: golden has keys {sorted(golden)}")
        for key, out in outputs.items():
            checks.expect(golden.get(key) == golden_view(out),
                          f"{label} {key}: output differs from the golden at seed {seed}")
        return
    for item in prepared:
        out = outputs[item.job.preset]
        if item.job.point is not None:
            problems = point_problems(out, item.job.point[0], item.job.point[2])
        else:
            problems = csv_problems(out, item.config, seed)
        checks.expect(not problems, f"{label} {item.job.preset}: {'; '.join(problems)}")
    problems = probe_problems(outputs["probes"])
    checks.expect(not problems, f"{label} probes: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# machine facts


def machine_facts(inherited_threads: str | None) -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "UMAC_BENCH_THREADS_inherited": inherited_threads,
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        facts[var] = os.environ.get(var)
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"

    def read(entry, name):
        with open(os.path.join(cache_root, entry, name), encoding="utf-8") as fh:
            return fh.read().strip()

    try:
        for entry in sorted(os.listdir(cache_root)):
            key = f"L{read(entry, 'level')}_{read(entry, 'type')}"
            facts["caches"][key] = read(entry, "size")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return facts


# ---------------------------------------------------------------------------
# runs


def _units_fit(started: float, durations: list[float], seconds: float) -> bool:
    """Start another unit only if one more of the longest so far still fits."""
    return time.perf_counter() - started + max(durations) <= seconds


def setup_samples(args, first: float) -> list[float]:
    """`first` plus SETUP_SAMPLES - 1 set-ups, each in a fresh process."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def load_golden(args) -> dict | None:
    with open(args.golden, encoding="utf-8") as fh:
        table = json.load(fh)
    entry = table.get(str(args.seed), {}).get(args.workload)
    if entry is None and args.seed == DEFAULT_SEED:
        raise ValueError(f"{args.golden} has no {args.workload} entry for the default seed")
    return entry


def check_units(checks: Checks, prepared, units: list[tuple[str, UnitResult]],
                golden: dict | None, seed: int) -> None:
    """Every output against the golden (or invariants), and every repeat
    against the first, probe by probe."""
    first_label, first = units[0]
    for label, unit in units:
        check_outputs(checks, prepared, unit.outputs, golden, seed, label)
        if unit is not first:
            checks.expect(unit.outputs == first.outputs, f"{label} differs from {first_label}")


def measure(args, mods, t0: float, checks: Checks) -> dict:
    """Untraced run: end-to-end metrics."""
    workload = WORKLOADS[args.workload]
    prepared = setup(mods, workload)
    first_setup = time.perf_counter() - t0
    golden = load_golden(args)

    units: list[UnitResult] = []
    started = time.perf_counter()
    while not units or _units_fit(started, [u.wall for u in units], args.seconds):
        unit = checks.guarded("unit", run_unit, mods, prepared, args.seed, workload.threads)
        if unit is None:
            break
        units.append(unit)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if not units:
        return {}
    labelled = [(f"unit {i}", u) for i, u in enumerate(units)]
    if workload.threads > 1:
        serial = checks.guarded("serial pass", run_unit, mods, prepared, args.seed, 1)
        if serial is not None:
            labelled.insert(0, ("serial pass", serial))
    check_units(checks, prepared, labelled, golden, args.seed)
    setups = setup_samples(args, first_setup)
    wall, cpu = typical_unit(units, 0), typical_unit(units, 1)
    print(f"# units {len(units)}, walls {[round(u.wall, 3) for u in units]}, "
          f"setups {[round(s, 3) for s in setups]}, probes {len(units[0].outputs['probes'])}, "
          f"trials/unit {units[0].trials}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "trials_per_s": units[0].trials / wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def measure_traced(args, mods, checks: Checks) -> dict:
    """Traced run: per-layer metrics from one traced unit, plus the overhead."""
    from spans import IN_TRIAL, SETUP_SIDE, Tracer, layer_metrics, patched

    workload = WORKLOADS[args.workload]
    setup_tracer = Tracer()
    with patched(setup_tracer):
        prepared = setup(mods, workload, setup_tracer)
    golden = load_golden(args)

    plain: list[UnitResult] = []
    traced: list[UnitResult] = []
    first_tracer = None
    started = time.perf_counter()
    while not plain or _units_fit(
        started, [p.wall + t.wall for p, t in zip(plain, traced)], args.seconds
    ):
        tracer = Tracer()
        pair = (
            checks.guarded("unit", run_unit, mods, prepared, args.seed, workload.threads),
            checks.guarded("traced unit", run_unit, mods, prepared, args.seed,
                           workload.threads, tracer),
        )
        if None in pair:
            break
        plain.append(pair[0])
        traced.append(pair[1])
        first_tracer = first_tracer or tracer
    if not traced:
        return {}
    labelled = [(f"unit {i}", u) for i, u in enumerate(plain)]
    labelled += [(f"traced unit {i}", u) for i, u in enumerate(traced)]

    metrics = layer_metrics(first_tracer, traced[0].child_cpu)
    setup_metrics = layer_metrics(setup_tracer, 0.0)
    metrics.update({k: setup_metrics[k] for k in SETUP_SIDE})
    sections = [("setup", setup_tracer), ("unit", first_tracer)]
    if workload.threads > 1:
        # Pool workers keep their spans: in-trial layers come from a serial pass.
        serial_tracer = Tracer()
        serial = checks.guarded("serial traced pass", run_unit, mods, prepared,
                                args.seed, 1, serial_tracer)
        if serial is not None:
            labelled.append(("serial traced pass", serial))
            serial_metrics = layer_metrics(serial_tracer, 0.0)
            metrics.update({k: serial_metrics[k] for k in IN_TRIAL})
            sections.append(("serial", serial_tracer))
    check_units(checks, prepared, labelled, golden, args.seed)
    metrics["trace_overhead_frac"] = (
        statistics.median(t.wall for t in traced) / statistics.median(p.wall for p in plain) - 1.0
    )
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for section, tracer in sections:
            tracer.write_jsonl(fh, section)
    print(f"# pairs {len(plain)}, untraced walls {[round(p.wall, 3) for p in plain]}, "
          f"traced walls {[round(t.wall, 3) for t in traced]}, spans in {path}")
    return metrics


def write_golden(args, mods) -> int:
    """Record the outputs of one unit at --seed into the golden file."""
    workload = WORKLOADS[args.workload]
    prepared = setup(mods, workload)
    unit = run_unit(mods, prepared, args.seed, workload.threads)
    if workload.threads > 1:
        serial = run_unit(mods, prepared, args.seed, 1)
        if serial.outputs != unit.outputs:
            print("error: pool and serial outputs differ; golden not written", file=sys.stderr)
            return 1
    with open(args.golden, encoding="utf-8") as fh:
        table = json.load(fh)
    table.setdefault(str(args.seed), {})[args.workload] = {
        key: golden_view(out) for key, out in unit.outputs.items()
    }
    with open(args.golden, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"# wrote golden for {args.workload} at seed {args.seed}")
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--golden", args.golden],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(f"# [{name}] {line.lstrip('# ')}" for line in lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=GOLDEN_PATH, help="golden outputs (JSON)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this seed's outputs into --golden instead of checking")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    inherited_threads = os.environ.get("UMAC_BENCH_THREADS")
    t0 = time.perf_counter()
    try:
        mods = import_umacsim()
    except (SimulatorMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(mods, WORKLOADS[args.workload])
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.write_golden:
        return write_golden(args, mods)

    checks = Checks()
    if args.trace:
        values = measure_traced(args, mods, checks)
        from spans import LAYER_UNITS as units
    else:
        values = measure(args, mods, t0, checks)
        units = E2E_UNITS
    print(f"# machine {json.dumps(machine_facts(inherited_threads))}")
    print(f"# workload {args.workload}, seed {args.seed}, UMAC_BENCH_THREADS "
          f"{WORKLOADS[args.workload].threads}, checked outputs {checks.attempted}, "
          f"failed {checks.failed}, failed_frac {checks.failed / max(1, checks.attempted)}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"# {name} {entry['value']} {entry['unit']}")
    correct = checks.failed == 0 and bool(values)
    print(json.dumps({
        "correct": correct, "attempted": max(1, checks.attempted),
        "failed": checks.failed if checks.attempted else 1, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
