import dataclasses
import io
import json
import math

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umacsim import cli
from umacsim.cli import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    build_experiment,
    load_preset,
    main,
    parse_config,
    preset_names,
    run,
    serialize_config,
)
from umacsim.montecarlo import estimate_pupe

FAST_CONFIG = """
scenario: slotted_aloha
channel: awgn
n_occasions: 4
payload_bits: 4
codeword_bits: 16
codec_model: oracle_threshold
codec_offset_db: 1.6
receiver_mode: tin
target_pupe: 0.1
ka_list: [1]
snr_lo_db: -5.0
snr_hi_db: 30.0
tol_db: 0.5
trials_schedule: [20, 40]
seed: 7
"""

# Whole CSVs of `run` at seed 2024 and trials scale 0.05.
PRESET_CSVS = {
    "slotted_aloha_mini": """\
scenario,channel,ka,min_snr_db,pupe,ci_low,ci_high,trials,seed,notes
slotted_aloha,awgn,1,-4.794922,0.00000000,0.00000000,0.07134760,50,2024,
slotted_aloha,awgn,5,11.640625,0.02400000,0.01104478,0.05136212,50,2024,
slotted_aloha,awgn,10,,0.09400000,0.07142641,0.12276456,50,2024,not found <= 40 dB
""",
    "twostep_awgn_mini": """\
scenario,channel,ka,min_snr_db,pupe,ci_low,ci_high,trials,seed,notes
twostep,awgn,1,-4.746094,0.05000000,0.00888145,0.23613119,20,2024,
twostep,awgn,2,,0.15000000,0.07061188,0.29072324,20,2024,not found <= 20 dB
twostep,awgn,3,20.000000,0.03333333,0.00918932,0.11363774,20,2024,
""",
}

# scoped key -> (a preset that reads it, a preset that does not)
SCOPES = {
    **{
        key: ("sbidma_rayleigh_1024", "slotted_aloha_mini")
        for key in ("n_preambles", "preamble_len", "preamble_reps", "preamble_kind",
                    "preamble_power_scale", "pilot_len")
    },
    "rho": ("sbidma_rayleigh_1024", "twostep_rayleigh_64"),
    "energy_policy": ("sbidma_rayleigh_1024", "twostep_rayleigh_64"),
    "codec_offset_db": ("twostep_rayleigh_64", "twostep_awgn_mini"),
}


class TestPresets:
    def test_all_presets_parse_and_round_trip(self):
        names = preset_names()
        assert len(names) >= 5
        for name in names:
            config = load_preset(name)
            assert parse_config(serialize_config(config)) == config
            build_experiment(config)

    def test_baseline_preset_parameters(self):
        c = load_preset("twostep_awgn_baseline")
        assert (c.n_preambles, c.preamble_len, c.preamble_reps) == (64, 139, 2)
        assert c.n_occasions == 64
        assert build_experiment(c).config.occasion_len == 250
        assert (c.codeword_bits, c.payload_bits) == (500, 100)
        assert c.target_pupe == 0.05
        assert build_experiment(c).config.frame_len == 16278

    def test_tuned_preset_parameters(self):
        c = load_preset("sbidma_tuned")
        assert c.n_preambles == 8192
        assert c.preamble_len == 1778
        assert c.preamble_power_scale == pytest.approx(1 / 12)
        assert c.n_occasions == 59
        assert c.target_pupe == 0.1
        assert build_experiment(c).config.frame_len == 19478

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="available"):
            load_preset("nope")


class TestParseConfig:
    def test_fast_config_parses(self):
        c = parse_config(FAST_CONFIG)
        assert c.scenario == "slotted_aloha"
        assert c.ka_list == (1,)

    def test_empty_document_lists_all_missing_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        msg = str(err.value)
        for key in ("scenario", "channel", "seed", "ka_list", "trials_schedule"):
            assert key in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys: bogus"):
            parse_config(FAST_CONFIG + "\nbogus: 1\n")

    def test_type_mismatch_names_key(self):
        bad = FAST_CONFIG.replace("seed: 7", "seed: seven")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(bad)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="tol_db: must be finite"):
            parse_config(FAST_CONFIG.replace("tol_db: 0.5", f"tol_db: {10**400}"))

    def test_nested_sections_allowed(self):
        flat = parse_config(FAST_CONFIG)
        doc = yaml.safe_load(FAST_CONFIG)
        nested = {
            "search": {k: doc.pop(k) for k in ("target_pupe", "snr_lo_db", "snr_hi_db",
                                               "tol_db", "trials_schedule", "seed")},
        }
        nested.update(doc)
        assert parse_config(yaml.safe_dump(nested)) == flat

    def test_invariant_violation_reported(self):
        # QPSK needs an even codeword length; the codec spec rejects 15 bits.
        bad = FAST_CONFIG.replace("codeword_bits: 16", "codeword_bits: 15")
        with pytest.raises(ConfigError, match="codeword_bits"):
            parse_config(bad)

    def test_rho_other_than_one_needs_sbidma(self):
        # Only sbidma repeats packets: no other scenario reads rho.
        sbidma = load_preset("sbidma_rayleigh_1024")
        assert sbidma.rho == 2
        with pytest.raises(ConfigError, match="rho: not read by a twostep config"):
            dataclasses.replace(sbidma, scenario="twostep")
        with pytest.raises(ConfigError, match="rho: not read by a slotted_aloha config"):
            parse_config(FAST_CONFIG + "rho: 1\n")

    def test_occasion_len_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown keys: occasion_len"):
            parse_config(FAST_CONFIG + "occasion_len: 8\n")

    def test_missing_keys_listed_per_scenario(self):
        doc = yaml.safe_load(serialize_config(load_preset("sbidma_tuned")))
        for key in ("pilot_len", "rho", "seed"):
            del doc[key]
        with pytest.raises(
            ConfigError, match="missing required keys for sbidma: pilot_len, rho, seed$"
        ):
            parse_config(yaml.safe_dump(doc))

    @pytest.mark.parametrize("key", sorted(cli._SCOPED))
    def test_scoped_key_required_in_scope_and_rejected_outside(self, key):
        reader, other = SCOPES[key]
        doc = yaml.safe_load(serialize_config(load_preset(reader)))
        value = doc.pop(key)
        scenario = doc["scenario"]
        with pytest.raises(ConfigError, match=f"missing required keys for {scenario}: {key}$"):
            parse_config(yaml.safe_dump(doc))
        doc = yaml.safe_load(serialize_config(load_preset(other)))
        doc[key] = value
        with pytest.raises(ConfigError, match=f"{key}: not read by a {doc['scenario']} config"):
            parse_config(yaml.safe_dump(doc))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(ExperimentConfig) if f.type.startswith("float")]
    )
    def test_non_finite_float_rejected(self, key, value):
        # -inf for snr_lo_db used to bisect forever, nan to report 40 dB.
        doc = yaml.safe_load(serialize_config(load_preset("twostep_rayleigh_64")))
        doc[key] = value
        with pytest.raises(ConfigError, match=f"{key}: must be finite"):
            parse_config(yaml.safe_dump(doc))

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_non_positive_tol_db_rejected(self, tol):
        # tol_db 0 bisects to float resolution and a negative one never stops.
        with pytest.raises(ConfigError, match="tol_db"):
            parse_config(FAST_CONFIG.replace("tol_db: 0.5", f"tol_db: {tol}"))

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"preamble_len": 140}, "prime"),
            ({"n_preambles": 20000}, "root/shift"),
            ({"preamble_power_scale": -1.0}, "power scale"),
            ({"preamble_power_scale": 0.0}, "power scale"),
        ],
    )
    def test_unbuildable_preamble_rejected(self, change, match):
        # Each of these used to be accepted, then crash mid-run (140 is not
        # prime, 20000 exceeds the 19,182 root/shift pairs, sqrt of -1) or,
        # at zero power, search the whole bracket to "not found".
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(load_preset("twostep_rayleigh_1024"), **change)

    def test_slotted_aloha_on_rayleigh_rejected(self):
        # The slotted-Aloha model has no fading: it would be run on AWGN.
        with pytest.raises(ConfigError, match="channel"):
            parse_config(FAST_CONFIG.replace("channel: awgn", "channel: rayleigh"))

    def test_round_trip(self):
        c = parse_config(FAST_CONFIG)
        assert parse_config(serialize_config(c)) == c


class TestRun:
    def test_one_point_csv(self, tmp_path):
        c = parse_config(FAST_CONFIG)
        out = tmp_path / "res.csv"
        code = run(c, str(out), stream=io.StringIO())
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("slotted_aloha,awgn,1,")

    def test_rerun_byte_identical(self, tmp_path):
        c = parse_config(FAST_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(c, str(a), stream=io.StringIO())
        run(c, str(b), stream=io.StringIO())
        assert a.read_bytes() == b.read_bytes()

    def test_strict_not_found_nonzero_exit(self, tmp_path):
        text = FAST_CONFIG.replace("target_pupe: 0.1", "target_pupe: 0.001")
        text = text.replace("ka_list: [1]", "ka_list: [4]")
        text = text.replace("snr_hi_db: 30.0", "snr_hi_db: 0.0")
        c = parse_config(text)
        code = run(c, str(tmp_path / "r.csv"), strict=True, stream=io.StringIO())
        assert code == 2

    def test_summary_contains_ebn0(self, tmp_path):
        c = parse_config(FAST_CONFIG)
        buf = io.StringIO()
        run(c, str(tmp_path / "r.csv"), stream=buf)
        assert "eb_n0_db" in buf.getvalue()

    def test_checkpoint_resume_reuses_points(self, tmp_path):
        from umacsim.cli import _config_digest

        c = parse_config(FAST_CONFIG)
        out = tmp_path / "res.csv"
        fake = {
            "digest": _config_digest(c, c.seed, 1.0),
            "points": [{
                "ka": 1, "min_snr_db": 12.5, "pupe": 0.01, "ci_low": 0.0, "ci_high": 0.02,
                "trials": 999, "notes": "from-checkpoint",
            }],
        }
        (tmp_path / "res.csv.ckpt.json").write_text(json.dumps(fake))
        run(c, str(out), stream=io.StringIO())
        body = out.read_text()
        assert "from-checkpoint" in body
        assert not (tmp_path / "res.csv.ckpt.json").exists()

    def test_checkpoint_with_csv_labels_ignored(self, tmp_path):
        # Points once also held the scenario, channel and seed; a checkpoint
        # of such points fails to load and the sweep is recomputed.
        from umacsim.cli import _config_digest

        c = parse_config(FAST_CONFIG)
        out = tmp_path / "res.csv"
        fake = {
            "digest": _config_digest(c, c.seed, 1.0),
            "points": [{
                "scenario": "slotted_aloha", "channel": "awgn", "ka": 1,
                "min_snr_db": 12.5, "pupe": 0.01, "ci_low": 0.0, "ci_high": 0.02,
                "trials": 999, "seed": c.seed, "notes": "from-checkpoint",
            }],
        }
        (tmp_path / "res.csv.ckpt.json").write_text(json.dumps(fake))
        assert run(c, str(out), stream=io.StringIO()) == 0
        assert "from-checkpoint" not in out.read_text()

    def test_stale_checkpoint_ignored(self, tmp_path):
        c = parse_config(FAST_CONFIG)
        out = tmp_path / "res.csv"
        (tmp_path / "res.csv.ckpt.json").write_text(
            json.dumps({"digest": "stale", "points": [{"bogus": 1}]})
        )
        code = run(c, str(out), stream=io.StringIO())
        assert code == 0
        assert "bogus" not in out.read_text()

    @pytest.mark.parametrize("payload", [[], 3, "text", None])
    def test_non_object_checkpoint_ignored(self, tmp_path, payload):
        c = parse_config(FAST_CONFIG)
        out = tmp_path / "res.csv"
        (tmp_path / "res.csv.ckpt.json").write_text(json.dumps(payload))
        assert run(c, str(out), stream=io.StringIO()) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    @pytest.mark.parametrize(
        "raw", [b"\xff\xfe\x00garbage", b'{"digest": '], ids=["not_utf8", "truncated"]
    )
    def test_unreadable_checkpoint_ignored(self, tmp_path, raw):
        c = parse_config(FAST_CONFIG)
        out = tmp_path / "res.csv"
        (tmp_path / "res.csv.ckpt.json").write_bytes(raw)
        assert run(c, str(out), stream=io.StringIO()) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_checkpoint_from_other_version_ignored(self, tmp_path, monkeypatch):
        from umacsim import cli

        c = parse_config(FAST_CONFIG)
        with monkeypatch.context() as m:
            m.setattr(cli, "__version__", "0.0.0-other")
            old_digest = cli._config_digest(c, c.seed, 1.0)
        assert old_digest != cli._config_digest(c, c.seed, 1.0)
        fake = {
            "digest": old_digest,
            "points": [{
                "ka": 1, "min_snr_db": 12.5, "pupe": 0.01, "ci_low": 0.0, "ci_high": 0.02,
                "trials": 999, "notes": "from-checkpoint",
            }],
        }
        out = tmp_path / "res.csv"
        (tmp_path / "res.csv.ckpt.json").write_text(json.dumps(fake))
        run(c, str(out), stream=io.StringIO())
        assert "from-checkpoint" not in out.read_text()

    @pytest.mark.parametrize("preset", sorted(PRESET_CSVS))
    def test_preset_csv_bytes(self, tmp_path, preset):
        out = tmp_path / "r.csv"
        code = run(load_preset(preset), str(out), seed=2024, trials_scale=0.05,
                   stream=io.StringIO())
        assert code == 0
        assert out.read_bytes() == PRESET_CSVS[preset].encode()

    def test_trials_scale(self, tmp_path):
        c = parse_config(FAST_CONFIG)
        out = tmp_path / "r.csv"
        run(c, str(out), trials_scale=0.1, stream=io.StringIO())
        # finest schedule entry 40 scaled to 4 trials
        assert ",4," in out.read_text().splitlines()[1]


    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_trials_scale_rejected(self, tmp_path, scale):
        c = parse_config(FAST_CONFIG)
        with pytest.raises(ConfigError, match="finite"):
            run(c, str(tmp_path / "r.csv"), trials_scale=scale, stream=io.StringIO())
        # Rejected before any probe could write a checkpoint or the CSV.
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "content", [None, "ka,snr\n1,2\n", "ka,snr_db\n1,x\n", "ka,snr_db\n"],
        ids=["missing", "bad_header", "non_numeric", "no_rows"],
    )
    def test_bad_reference_curve_rejected_before_any_probe(
        self, tmp_path, monkeypatch, content
    ):
        curve = tmp_path / "ref.csv"
        if content is not None:
            curve.write_text(content)
        c = dataclasses.replace(parse_config(FAST_CONFIG), reference_curve_path=str(curve))

        def no_sweep(*args, **kwargs):
            raise AssertionError("a probe ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(ConfigError, match="reference_curve_path"):
            run(c, str(out_dir / "r.csv"), stream=io.StringIO())
        assert list(out_dir.iterdir()) == []

    def test_reference_curve_in_summary(self, tmp_path):
        curve = tmp_path / "ref.csv"
        curve.write_text("ka,snr_db\n1,3.25\n")
        c = dataclasses.replace(parse_config(FAST_CONFIG), reference_curve_path=str(curve))
        buf = io.StringIO()
        assert run(c, str(tmp_path / "r.csv"), stream=buf) == 0
        assert "3.25" in buf.getvalue().splitlines()[2]


class TestProperties:
    # One preset per scenario and codec, so every scoped key is drawn.
    PRESETS = ("slotted_aloha_mini", "twostep_awgn_mini", "twostep_rayleigh_64",
               "sbidma_rayleigh_1024")

    @staticmethod
    @st.composite
    def configs(draw):
        base = load_preset(draw(st.sampled_from(TestProperties.PRESETS)))
        finite = dict(allow_nan=False, allow_infinity=False)
        lo = draw(st.floats(-60.0, 30.0, **finite))
        change = dict(
            receiver_mode=draw(st.sampled_from(["tin", "tin_sic"])),
            target_pupe=draw(st.floats(0.0, 1.0, exclude_min=True)),
            ka_list=tuple(draw(st.lists(st.integers(1, 500), min_size=1, max_size=4,
                                        unique=True))),
            snr_lo_db=lo,
            snr_hi_db=lo + draw(st.floats(1e-3, 40.0)),
            tol_db=draw(st.floats(0.0, 5.0, exclude_min=True)),
            trials_schedule=tuple(draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=4))),
            seed=draw(st.integers(0, 2**63)),
            reference_curve_path=draw(st.none() | st.text(max_size=12)),
        )
        if base.codec_offset_db is not None:
            change["codec_offset_db"] = draw(st.floats(-10.0, 10.0, **finite))
        if base.preamble_power_scale is not None:
            change["preamble_power_scale"] = draw(st.floats(1e-3, 10.0))
        if base.rho is not None:
            change["rho"] = draw(st.integers(1, 3))
            change["energy_policy"] = draw(
                st.sampled_from(["split_across_copies", "per_copy_full"])
            )
        return dataclasses.replace(base, **change)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(configs())
    def test_round_trip(self, config):
        assert parse_config(serialize_config(config)) == config

    DELETE = object()
    VALUES = st.one_of(
        st.just(DELETE),
        st.integers(-3, 70),
        st.floats(-100.0, 100.0),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.text(max_size=8),
        st.sampled_from(["awgn", "rayleigh", "tin_sic", "gaussian", "per_copy_full",
                         "ml_random_gaussian", "oracle_threshold", "sbidma", "twostep"]),
        st.lists(st.integers(-2, 4), max_size=3),
    )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        preset=st.sampled_from(["slotted_aloha_mini", "twostep_awgn_mini"]),
        key=st.sampled_from(sorted(f.name for f in dataclasses.fields(ExperimentConfig))),
        value=VALUES,
    )
    @example(preset="slotted_aloha_mini", key="seed", value=-1)  # crashed the first probe
    def test_fuzzed_key_rejected_or_runs(self, preset, key, value):
        doc = yaml.safe_load(serialize_config(load_preset(preset)))
        if value is self.DELETE:
            doc.pop(key, None)
        else:
            doc[key] = value
        try:
            config = parse_config(yaml.safe_dump(doc))
        except ConfigError:
            return
        estimate_pupe(build_experiment(config), 1, config.snr_lo_db, 1, config.seed)


def rejected_before_any_probe(tmp_path, monkeypatch, capsys, doc) -> str:
    """Run `main` on the YAML document; assert that it fails before any probe
    and writes no CSV or checkpoint, and return its error message."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["--config", str(path), "--out", str(out_dir / "r.csv")]) == 1
    assert list(out_dir.iterdir()) == []
    return capsys.readouterr().err


class TestMain:
    @pytest.mark.parametrize(
        "preset, payload_bits", [("slotted_aloha_mini", 20000), ("twostep_rayleigh_64", 100000)]
    )
    def test_payload_beyond_the_codeword_rejected(
        self, tmp_path, monkeypatch, capsys, preset, payload_bits
    ):
        # No SNR gives the oracle codec's threshold for so many bits in 64
        # (250) complex uses; this used to crash the first probe.
        doc = yaml.safe_load(serialize_config(load_preset(preset)))
        doc["payload_bits"] = payload_bits
        err = rejected_before_any_probe(tmp_path, monkeypatch, capsys, doc)
        assert "error: no oracle decode threshold" in err
        assert f"k={payload_bits}" in err

    def test_empty_ka_list_rejected(self, tmp_path, monkeypatch, capsys):
        # Used to exit 0 with a header-only CSV.
        doc = dict(yaml.safe_load(FAST_CONFIG), ka_list=[])
        err = rejected_before_any_probe(tmp_path, monkeypatch, capsys, doc)
        assert "error: ka_list: needs distinct entries >= 1, got []" in err

    def test_repeated_ka_list_rejected(self, tmp_path, monkeypatch, capsys):
        # Used to run the whole search twice and write the same row twice.
        doc = dict(yaml.safe_load(FAST_CONFIG), ka_list=[1, 1])
        err = rejected_before_any_probe(tmp_path, monkeypatch, capsys, doc)
        assert "error: ka_list: needs distinct entries >= 1, got [1, 1]" in err

    def test_ml_codec_on_rayleigh_without_pilots_rejected(self, tmp_path, monkeypatch, capsys):
        # It decoded with gain 1 on a faded channel: PUPE near 0.6 at any SNR.
        doc = yaml.safe_load(serialize_config(load_preset("twostep_awgn_mini")))
        doc["channel"] = "rayleigh"
        err = rejected_before_any_probe(tmp_path, monkeypatch, capsys, doc)
        assert "error: the ML codec on a rayleigh channel needs pilot_len > 0" in err

    def test_malformed_worker_count(self, tmp_path, monkeypatch, capsys):
        # Used to run serially without a word.
        path = tmp_path / "cfg.yaml"
        path.write_text(FAST_CONFIG)
        monkeypatch.setenv("UMAC_BENCH_THREADS", "abc")
        assert main(["--config", str(path), "--out", str(tmp_path / "res.csv")]) == 1
        err = capsys.readouterr().err
        assert "error: UMAC_BENCH_THREADS must be a positive integer, got 'abc'" in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "preset, change, message",
        [
            # numpy's ValueError from an empty argmax: the complex64
            # preamble correlations overflow at 10^80 transmit power.
            ("twostep_awgn_mini", {"snr_hi_db": 800.0, "ka_list": [2]},
             "error: correlations overflow the dictionary's complex64"),
            # OverflowError from 10^400.
            ("slotted_aloha_mini", {"snr_hi_db": 4000.0},
             "error: an SNR of 4000 dB overflows a float"),
        ],
    )
    def test_overflowing_snr_reported(self, tmp_path, capsys, preset, change, message):
        doc = yaml.safe_load(serialize_config(load_preset(preset)))
        doc.update(change)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out" / "r.csv"
        out.parent.mkdir()
        argv = ["--config", str(path), "--out", str(out), "--trials-scale", "0.05"]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []

    def test_list_presets(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "twostep_awgn_baseline" in out

    def test_config_file_run(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(FAST_CONFIG)
        out = tmp_path / "res.csv"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_file_error(self, capsys):
        assert main(["--config", "/does/not/exist.yaml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(FAST_CONFIG)
        out = tmp_path / "res.csv"
        assert main(["--config", str(path), "--out", str(out), "--seed", "-1"]) == 1
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_trials_scale(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(FAST_CONFIG)
        assert main(["--config", str(path), "--trials-scale", "0"]) == 1

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_trials_scale(self, tmp_path, capsys, scale):
        path = tmp_path / "cfg.yaml"
        path.write_text(FAST_CONFIG)
        out = tmp_path / "res.csv"
        assert main(["--config", str(path), "--out", str(out), f"--trials-scale={scale}"]) == 1
        assert f"error: --trials-scale must be positive and finite, got {scale}" in (
            capsys.readouterr().err
        )
        assert not out.exists()
