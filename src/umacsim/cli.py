"""Experiment runner: parses YAML scenario configs (shipped presets or user
files), executes minimum-SNR sweeps, writes schema-stable CSV, and prints a
summary table with Eb/N0.

CSV header (stable): scenario,channel,ka,min_snr_db,pupe,ci_low,ci_high,trials,seed,notes
An empty min_snr_db field means the target was not reached below snr_hi_db
(details in `notes`).  Interrupted sweeps resume from a per-ka checkpoint
file written next to the output.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from importlib import resources

import yaml

from . import __version__
from .channel import ChannelModel
from .bounds import CurveError, load_reference_curve
from .codec import CodecModel, CodecSpec, SlottedAlohaConfig
from .detection import DetectionError
from .montecarlo import (
    MonteCarloError,
    PupeCurvePoint,
    SlottedAlohaExperiment,
    TwoStepExperiment,
    run_sweep,
)
from .protocols import EnergyPolicy, ReceiverMode, TwoStepConfig
from .sequences import DictionaryKind, PreambleSpec

CSV_HEADER = "scenario,channel,ka,min_snr_db,pupe,ci_low,ci_high,trials,seed,notes"

SCENARIOS = ("slotted_aloha", "twostep", "sbidma")


class ConfigError(ValueError):
    pass


# Keys that only some configs read -> the scenarios, or the codec model, of
# the configs that read them.  A scoped key is required where it is read and
# rejected where it is not.
_TWO_STEP = ("twostep", "sbidma")
_SCOPED = {
    "n_preambles": _TWO_STEP,
    "preamble_len": _TWO_STEP,
    "preamble_reps": _TWO_STEP,
    "preamble_kind": _TWO_STEP,
    "preamble_power_scale": _TWO_STEP,
    "pilot_len": _TWO_STEP,
    "rho": ("sbidma",),
    "energy_policy": ("sbidma",),
    "codec_offset_db": (CodecModel.ORACLE_THRESHOLD.value,),
}
_OPTIONAL = {"reference_curve_path"}
# Annotation -> (the YAML values it accepts, their name in an error).
_YAML_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
               "str": (str, "a string")}


def _reads(key: str, scenario, codec_model) -> bool:
    """Whether a config of this scenario and codec model reads `key`."""
    readers = _SCOPED.get(key)
    return readers is None or scenario in readers or codec_model in readers


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; round-trips losslessly through YAML.

    Every field is one the config's scenario and codec model read: the
    fields that default to None are the optional reference curve and the
    scoped keys of `_SCOPED`.  For `slotted_aloha`, n_occasions is the slot
    count and the channel must be awgn.
    """

    scenario: str
    channel: str
    n_occasions: int
    payload_bits: int
    codeword_bits: int
    codec_model: str                # oracle_threshold | ml_random_gaussian
    receiver_mode: str              # tin | tin_sic
    target_pupe: float
    ka_list: tuple[int, ...]
    snr_lo_db: float
    snr_hi_db: float
    tol_db: float
    trials_schedule: tuple[int, ...]
    seed: int
    n_preambles: int | None = None
    preamble_len: int | None = None         # base sequence length
    preamble_reps: int | None = None
    preamble_kind: str | None = None        # zadoff_chu | gaussian
    preamble_power_scale: float | None = None
    pilot_len: int | None = None
    codec_offset_db: float | None = None
    rho: int | None = None
    energy_policy: str | None = None        # split_across_copies | per_copy_full
    reference_curve_path: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: must be one of {SCENARIOS}, got {self.scenario!r}")
        for key, enum in (
            ("channel", ChannelModel),
            ("preamble_kind", DictionaryKind),
            ("codec_model", CodecModel),
            ("energy_policy", EnergyPolicy),
            ("receiver_mode", ReceiverMode),
        ):
            value = getattr(self, key)
            if value is None or not _reads(key, self.scenario, self.codec_model):
                continue    # a missing or unread key is reported below
            try:
                enum(value)
            except ValueError:
                raise ConfigError(
                    f"{key}: {value!r} is not one of {[e.value for e in enum]}"
                ) from None
        for key in _SCOPED:
            reads = _reads(key, self.scenario, self.codec_model)
            if reads and getattr(self, key) is None:
                raise ConfigError(f"{key}: required by a {self.scenario} config")
            if not reads and getattr(self, key) is not None:
                raise ConfigError(
                    f"{key}: not read by a {self.scenario} config with the "
                    f"{self.codec_model} codec (read by {' and '.join(_SCOPED[key])} only)"
                )
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("float") and value is not None and not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite, got {value}")
        if self.scenario == "slotted_aloha" and self.channel != ChannelModel.AWGN.value:
            raise ConfigError(f"channel: slotted_aloha runs on awgn only, got {self.channel!r}")
        if not 0.0 < self.target_pupe <= 1.0:
            raise ConfigError(f"target_pupe: must be in (0, 1], got {self.target_pupe}")
        if self.snr_lo_db >= self.snr_hi_db:
            raise ConfigError(
                f"snr_lo_db/snr_hi_db: need lo < hi, got {self.snr_lo_db} >= {self.snr_hi_db}"
            )
        if not self.tol_db > 0.0:
            raise ConfigError(f"tol_db: must be positive, got {self.tol_db}")
        if not self.trials_schedule or any(t < 1 for t in self.trials_schedule):
            raise ConfigError("trials_schedule: needs at least one positive entry")
        ka = self.ka_list
        if not ka or min(ka) < 1 or len(set(ka)) < len(ka):
            raise ConfigError(f"ka_list: needs distinct entries >= 1, got {list(ka)}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        build_experiment(self)      # validates the frame arithmetic


def _flatten(node, prefix, out):
    for key, value in node.items():
        if not isinstance(key, str):
            raise ConfigError(f"non-string key {key!r}")
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            _flatten(value, f"{path}.", out)
        elif key in out:
            raise ConfigError(f"{path}: duplicate key {key!r}")
        else:
            out[key] = (path, value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML document (flat, or nested into sections) into a config.

    Unknown keys are rejected; every missing key that the config's scenario
    and codec model read is listed.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config must be a key-value mapping")
    flat: dict[str, tuple[str, object]] = {}
    _flatten(doc, "", flat)

    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(flat) - known)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    scenario, codec_model = (flat.get(k, (None, None))[1] for k in ("scenario", "codec_model"))
    missing = sorted(
        k for k in known - set(flat) - _OPTIONAL if _reads(k, scenario, codec_model)
    )
    if missing:
        which = f" for {scenario}" if scenario in SCENARIOS else ""
        raise ConfigError(f"missing required keys{which}: {', '.join(missing)}")

    kwargs = {}
    for name, (path, value) in flat.items():
        annotation = ExperimentConfig.__dataclass_fields__[name].type
        if annotation == "tuple[int, ...]":
            if not isinstance(value, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in value
            ):
                raise ConfigError(f"{path}: expected a list of integers, got {value!r}")
            value = tuple(value)
        elif not (value is None and name in _OPTIONAL):
            kind = annotation.split(" | ")[0]
            accepted, what = _YAML_TYPES[kind]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"{path}: expected {what}, got {value!r}")
            if kind == "float":
                try:
                    value = float(value)
                except OverflowError:
                    raise ConfigError(f"{path}: must be finite, got {value}") from None
        kwargs[name] = value
    return ExperimentConfig(**kwargs)


def serialize_config(config: ExperimentConfig) -> str:
    data = {k: v for k, v in asdict(config).items() if v is not None}
    data["ka_list"] = list(config.ka_list)
    data["trials_schedule"] = list(config.trials_schedule)
    return yaml.safe_dump(data, sort_keys=True)


def build_experiment(config: ExperimentConfig):
    """Instantiate the runnable experiment described by the config; a
    ConfigError names what cannot be built."""
    try:
        # The ML codec reads no offset; its spec keeps CodecSpec's default.
        offset = {} if config.codec_offset_db is None else {"offset_db": config.codec_offset_db}
        codec = CodecSpec(
            codeword_bits=config.codeword_bits,
            payload_bits=config.payload_bits,
            model=CodecModel(config.codec_model),
            **offset,
        )
        receiver = ReceiverMode(config.receiver_mode)
        if config.scenario == "slotted_aloha":
            sa = SlottedAlohaConfig(slots=config.n_occasions, codec=codec)
            return SlottedAlohaExperiment(config=sa, receiver=receiver)
        repetition = {}
        if config.scenario == "sbidma":
            repetition = dict(rho=config.rho, energy_policy=EnergyPolicy(config.energy_policy))
        preamble = PreambleSpec(
            size=config.n_preambles,
            base_length=config.preamble_len,
            repetitions=config.preamble_reps,
            kind=DictionaryKind(config.preamble_kind),
            power_scale=config.preamble_power_scale,
        )
        proto = TwoStepConfig(
            preamble=preamble,
            n_occasions=config.n_occasions,
            codec=codec,
            pilot_len=config.pilot_len,
            channel_model=ChannelModel(config.channel),
            **repetition,
        )
        return TwoStepExperiment(config=proto, receiver=receiver)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def ebn0_db(config: ExperimentConfig, snr_db: float) -> float:
    """Eb/N0 = n P / (2 sigma^2 log2 M) for the scenario's frame."""
    n = build_experiment(config).config.frame_len
    log2m = config.payload_bits
    if config.scenario == "slotted_aloha":
        log2m += math.log2(config.n_occasions)
    snr = 10.0 ** (snr_db / 10.0)
    return 10.0 * math.log10(n * snr / (2.0 * log2m))


# ---------------------------------------------------------------------------
# presets


def preset_names() -> list[str]:
    root = resources.files("umacsim").joinpath("presets")
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> ExperimentConfig:
    path = resources.files("umacsim").joinpath("presets", f"{name}.yaml")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# running


def _scale_schedule(schedule: tuple[int, ...], scale: float) -> tuple[int, ...]:
    return tuple(max(1, math.ceil(t * scale)) for t in schedule)


def write_csv(config: ExperimentConfig, seed: int, points: list[PupeCurvePoint], path):
    """The points, labelled with the config's scenario and channel and the seed."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for p in points:
            snr = "" if p.min_snr_db is None else f"{p.min_snr_db:.6f}"
            writer.writerow([
                config.scenario, config.channel, p.ka, snr,
                f"{p.pupe:.8f}", f"{p.ci_low:.8f}", f"{p.ci_high:.8f}",
                p.trials, seed, p.notes,
            ])


def _config_digest(config: ExperimentConfig, seed: int, trials_scale: float) -> str:
    blob = f"{serialize_config(config)}|{seed}|{trials_scale}|{__version__}"
    return hashlib.sha256(blob.encode()).hexdigest()


def run(
    config: ExperimentConfig,
    out_path: str,
    seed: int | None = None,
    trials_scale: float = 1.0,
    strict: bool = False,
    stream=sys.stdout,
) -> int:
    """Execute the sweep, write the CSV, print a summary; returns exit code.

    Raises ConfigError, before any probe or checkpoint, unless `trials_scale`
    is positive and finite and the reference curve, if any, loads.
    """
    if not (math.isfinite(trials_scale) and trials_scale > 0):
        raise ConfigError(f"--trials-scale must be positive and finite, got {trials_scale}")
    reference = None
    if config.reference_curve_path is not None:
        try:
            reference = load_reference_curve(config.reference_curve_path)
        except (CurveError, OSError) as exc:
            raise ConfigError(f"reference_curve_path: {exc}") from None
    seed = config.seed if seed is None else seed
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    schedule = _scale_schedule(config.trials_schedule, trials_scale)
    experiment = build_experiment(config)
    digest = _config_digest(config, seed, trials_scale)

    ckpt_path = out_path + ".ckpt.json"
    done: dict[int, PupeCurvePoint] = {}
    if os.path.exists(ckpt_path):
        try:
            with open(ckpt_path, encoding="utf-8") as fh:
                ckpt = json.load(fh)
            if isinstance(ckpt, dict) and ckpt.get("digest") == digest:
                for item in ckpt.get("points", []):
                    point = PupeCurvePoint(**item)
                    done[point.ka] = point
        except (ValueError, TypeError):     # not UTF-8, not JSON, bad fields
            pass

    def checkpoint(point: PupeCurvePoint) -> None:
        done[point.ka] = point
        payload = {
            "digest": digest,
            "points": [asdict(p) for p in done.values()],
        }
        tmp = ckpt_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, ckpt_path)

    pending = [ka for ka in config.ka_list if ka not in done]
    if pending:
        run_sweep(
            experiment, pending, config.target_pupe, config.snr_lo_db, config.snr_hi_db, seed,
            tol_db=config.tol_db, trials_schedule=schedule, point_hook=checkpoint,
        )
    points = [done[ka] for ka in config.ka_list]
    write_csv(config, seed, points, out_path)
    if os.path.exists(ckpt_path):
        os.remove(ckpt_path)

    print(f"# {config.scenario} on {config.channel}, target PUPE {config.target_pupe:g}, "
          f"seed {seed}", file=stream)
    print(f"{'ka':>5} {'min_snr_db':>12} {'eb_n0_db':>10} {'pupe':>10} {'ref_db':>8}  notes",
          file=stream)
    not_found = 0
    for point in points:
        if point.min_snr_db is None:
            not_found += 1
            snr_s, ebn0_s = "not found", "-"
        else:
            snr_s = f"{point.min_snr_db:.2f}"
            ebn0_s = f"{ebn0_db(config, point.min_snr_db):.2f}"
        ref_s = "-"
        if reference is not None:
            ref = reference.snr_db_at(point.ka)
            if ref is not None:
                ref_s = f"{ref:.2f}"
        print(f"{point.ka:>5} {snr_s:>12} {ebn0_s:>10} {point.pupe:>10.4f} {ref_s:>8}  "
              f"{point.notes}", file=stream)
    print(f"# wrote {out_path} ({len(points)} points)", file=stream)
    if strict and not_found:
        print(f"# strict mode: {not_found} point(s) did not reach the target", file=stream)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="umacsim",
        description="Unsourced-multiple-access Monte-Carlo sweeps (min SNR vs. load).",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--config", help="path to a YAML experiment config")
    group.add_argument("--preset", help="name of a shipped preset")
    parser.add_argument("--list-presets", action="store_true", help="list shipped presets")
    parser.add_argument("--out", default="results.csv", help="output CSV path")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--trials-scale", type=float, default=1.0,
        help="multiply every trials_schedule entry (e.g. 0.1 for smoke runs)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when any point fails to reach the target PUPE",
    )
    args = parser.parse_args(argv)

    if args.list_presets:
        for name in preset_names():
            print(name)
        return 0
    try:
        if args.preset:
            config = load_preset(args.preset)
        elif args.config:
            with open(args.config, encoding="utf-8") as fh:
                config = parse_config(fh.read())
        else:
            parser.error("one of --config or --preset is required")
        return run(
            config,
            args.out,
            seed=args.seed,
            trials_scale=args.trials_scale,
            strict=args.strict,
        )
    except (ConfigError, DetectionError, MonteCarloError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
