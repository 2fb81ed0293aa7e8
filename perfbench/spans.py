"""In-memory span tracing of umacsim from outside the package.

Nothing under ``src/`` knows about tracing.  ``patched`` swaps the names
through which one umacsim module calls another (``protocols.omp_detect``,
``montecarlo.complex_noise``, ...) for wrappers that record a span around
the original call, and restores them on exit.  A span is
``[name, start, end, parent_index, (ka, probe, trial)]``; spans stay in a
list until ``write_jsonl`` is called once at the end of a run.

Forked pool workers inherit the wrappers, but their spans stay in the
worker and are lost: only parent-side spans (probes, CLI) come back.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._probe: tuple[int, int] | None = None
        self._trial = 0

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.trace_id()]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def trace_id(self):
        if self._probe is None:
            return None
        return (*self._probe, self._trial)

    def start_probe(self, ka: int, probe: int) -> None:
        self._probe = (ka, probe)
        self._trial = -1

    def next_trial(self) -> None:
        self._trial += 1

    def end_probe(self) -> None:
        self._probe = None

    def write_jsonl(self, fh, section: str) -> None:
        """One JSON line per span; `parent` indexes spans of the same section."""
        for name, start, end, parent, ident in self.spans:
            fh.write(json.dumps({
                "section": section, "name": name, "start": start, "end": end,
                "parent": parent, "id": ident,
            }))
            fh.write("\n")


class _Proxy:
    """Delegates every attribute to `target` except the overridden ones."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _swap(saved, owner, name, value):
    saved.append((owner, name, getattr(owner, name)))
    setattr(owner, name, value)


@contextmanager
def patched(tracer: Tracer):
    """Route umacsim's cross-module calls through `tracer` while active."""
    from umacsim import cli, codec, detection, montecarlo, protocols

    saved: list = []

    def wrap(owner, attr, span_name, after=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = tracer.call(span_name, original, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        _swap(saved, owner, attr, wrapper)

    counts = tracer.counts

    def after_omp(result, args, kwargs):
        # Computed traffic: every iteration correlates the whole dictionary.
        dictionary = getattr(args[1], "columns", args[1])
        counts["omp_iters"] += len(result.indices)
        counts["omp_dict_bytes"] += len(result.indices) * dictionary.nbytes

    def after_receive(outcome, args, kwargs):
        counts["sic_rounds"] += outcome.sic_rounds
        counts["detected_preambles"] += len(outcome.detected_preambles)
        counts["decoded_users"] += sum(outcome.round_decodes)

    def after_decode(result, args, kwargs):
        counts["decode_ok"] += bool(result[0])

    def after_noise(result, args, kwargs):
        counts["noise_samples"] += len(result)

    original_estimate = montecarlo.estimate_pupe

    def estimate_pupe(experiment, ka, *args, probe=0, **kwargs):
        tracer.start_probe(ka, probe)
        try:
            est = tracer.call(
                "montecarlo.estimate_pupe", original_estimate,
                experiment, ka, *args, probe=probe, **kwargs,
            )
        finally:
            tracer.end_probe()
        counts["trials"] += est.trials
        return est

    original_sweep = cli.run_sweep

    def run_sweep(*args, **kwargs):
        hook = kwargs.get("point_hook")
        if hook is not None:
            kwargs["point_hook"] = lambda point: tracer.call("cli.checkpoint", hook, point)
        return tracer.call("montecarlo.run_sweep", original_sweep, *args, **kwargs)

    def trial_wrapper(original):
        def run_trial(self, ka, snr_db, rng):
            tracer.next_trial()
            return tracer.call("montecarlo.run_trial", original, self, ka, snr_db, rng)
        return run_trial

    original_lstsq = detection.np.linalg.lstsq

    def lstsq(*args, **kwargs):
        return tracer.call("numpy.linalg.lstsq", original_lstsq, *args, **kwargs)

    try:
        _swap(saved, montecarlo, "estimate_pupe", estimate_pupe)
        _swap(saved, cli, "run_sweep", run_sweep)
        for cls in (montecarlo.TwoStepExperiment, montecarlo.SlottedAlohaExperiment):
            _swap(saved, cls, "run_trial", trial_wrapper(cls.run_trial))
        wrap(montecarlo, "encode_user", "protocols.encode_user")
        wrap(montecarlo, "complex_noise", "channel.complex_noise", after_noise)
        wrap(montecarlo, "encode", "codec.encode")
        wrap(montecarlo, "twostep_receive", "protocols.receive", after_receive)
        wrap(montecarlo, "slotted_aloha_receive", "protocols.receive", after_receive)
        wrap(protocols, "encode", "codec.encode")
        wrap(protocols, "decode", "codec.decode", after_decode)
        wrap(protocols, "omp_detect", "detection.omp_detect", after_omp)
        wrap(protocols, "subtract", "detection.subtract")
        wrap(codec, "min_snr_single_user", "bounds.min_snr_single_user")
        _swap(saved, detection, "np", _Proxy(
            detection.np, linalg=_Proxy(detection.np.linalg, lstsq=lstsq)
        ))
        yield tracer
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def _self_times(spans):
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += end - start - covered[index]
        total[name] += end - start
        calls[name] += 1
    return self_time, total, calls


# Per-layer metric name -> unit, in report order.  `_s` metrics are self
# times (span minus child spans) unless the README says otherwise.
LAYER_UNITS = {
    "detection.omp_s": "s",
    "detection.omp_calls": "count",
    "detection.omp_iters": "count",
    "detection.omp_lstsq_s": "s",
    "detection.omp_dict_gb": "GB_computed",
    "detection.subtract_s": "s",
    "detection.subtract_calls": "count",
    "protocols.sic_rounds": "count",
    "protocols.detected_preambles": "count",
    "protocols.decode_attempts": "count",
    "protocols.decoded_users": "count",
    "protocols.receive_self_s": "s",
    "protocols.encode_user_s": "s",
    "protocols.encode_user_calls": "count",
    "protocols.build_dictionaries_s": "s",
    "channel.complex_noise_s": "s",
    "channel.complex_noise_samples": "count",
    "codec.encode_s": "s",
    "codec.encode_calls": "count",
    "codec.decode_s": "s",
    "codec.decode_calls": "count",
    "codec.decode_ok_frac": "ratio",
    "montecarlo.probes": "count",
    "montecarlo.trials": "count",
    "montecarlo.probe_s_p50": "s",
    "montecarlo.trial_s": "s",
    "montecarlo.child_cpu_s": "s",
    "sequences.dict_mb": "MB",
    "bounds.min_snr_single_user_s": "s",
    "cli.run_self_s": "s",
    "cli.checkpoint_writes": "count",
    "trace_overhead_frac": "ratio",
}

# Metrics taken from the traced set-up rather than from a timed unit.
SETUP_SIDE = (
    "protocols.build_dictionaries_s", "sequences.dict_mb", "bounds.min_snr_single_user_s",
)

# Metrics measured inside trials; a pool pass cannot see them (see module doc).
IN_TRIAL = tuple(
    name for name in LAYER_UNITS
    if name.split(".")[0] in ("detection", "protocols", "channel", "codec")
    and name not in SETUP_SIDE
) + ("montecarlo.trial_s",)


def layer_metrics(tracer: Tracer, child_cpu_s: float) -> dict[str, float]:
    """Per-layer values of one traced unit (setup spans included)."""
    spans = tracer.spans
    self_time, total, calls = _self_times(spans)
    counts = tracer.counts
    receive_ids = {i for i, s in enumerate(spans) if s[0] == "protocols.receive"}
    probe_s = [s[2] - s[1] for s in spans if s[0] == "montecarlo.estimate_pupe"]
    decode_calls = calls["codec.decode"]
    return {
        "detection.omp_s": self_time["detection.omp_detect"],
        "detection.omp_calls": calls["detection.omp_detect"],
        "detection.omp_iters": counts["omp_iters"],
        "detection.omp_lstsq_s": self_time["numpy.linalg.lstsq"],
        "detection.omp_dict_gb": counts["omp_dict_bytes"] / 1e9,
        "detection.subtract_s": self_time["detection.subtract"],
        "detection.subtract_calls": calls["detection.subtract"],
        "protocols.sic_rounds": counts["sic_rounds"],
        "protocols.detected_preambles": counts["detected_preambles"],
        "protocols.decode_attempts": sum(
            1 for s in spans if s[0] == "codec.decode" and s[3] in receive_ids
        ),
        "protocols.decoded_users": counts["decoded_users"],
        "protocols.receive_self_s": self_time["protocols.receive"],
        "protocols.encode_user_s": self_time["protocols.encode_user"],
        "protocols.encode_user_calls": calls["protocols.encode_user"],
        "protocols.build_dictionaries_s": total["protocols.build_dictionaries"],
        "channel.complex_noise_s": self_time["channel.complex_noise"],
        "channel.complex_noise_samples": counts["noise_samples"],
        "codec.encode_s": self_time["codec.encode"],
        "codec.encode_calls": calls["codec.encode"],
        "codec.decode_s": self_time["codec.decode"],
        "codec.decode_calls": decode_calls,
        "codec.decode_ok_frac": counts["decode_ok"] / decode_calls if decode_calls else 0.0,
        "montecarlo.probes": len(probe_s),
        "montecarlo.trials": counts["trials"],
        "montecarlo.probe_s_p50": statistics.median(probe_s) if probe_s else 0.0,
        "montecarlo.trial_s": self_time["montecarlo.run_trial"],
        "montecarlo.child_cpu_s": child_cpu_s,
        "sequences.dict_mb": counts["dict_bytes"] / 1e6,
        "bounds.min_snr_single_user_s": total["bounds.min_snr_single_user"],
        "cli.run_self_s": self_time["cli.run"] + total["cli.checkpoint"],
        "cli.checkpoint_writes": calls["cli.checkpoint"],
    }

