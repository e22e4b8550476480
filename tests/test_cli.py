"""Tests for the config document parser and the command-line front end."""

import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest

from qfbsim import cli
from qfbsim import experiment as ex
from qfbsim.config import SCHEMA, load_file, resolve_noise
from qfbsim.experiment import PI_HALF_INIT, THERMAL_INIT, ExperimentConfig
from qfbsim.fxp import ConfigError
from qfbsim.sigmodel import DeviceParams, thermal_population

GOOD_DOC = """\
# comment line
device.kappa = 6.3 MHz
device.chi = -1.1 MHz
device.t1 = 1.4 us        # inline comment
device.temperature = 114 mK
device.amp_ss = 600 mV
device.offset_i = 13 mV

experiment.scenario = thermal_init
experiment.repetitions = 4096
experiment.master_seed = 42
experiment.threshold = 16 mV
calibration.noise_overlap_target = 3 %
"""


def shipped(name):
    return str(resources.files("qfbsim") / "configs" / name)


def load(tmp_path, text):
    """load_file of a document written to tmp_path / "doc.cfg"."""
    path = tmp_path / "doc.cfg"
    path.write_text(text, encoding="ascii")
    return load_file(path)


# ---------------------------------------------------------------------------
# document parsing


def test_parse_good_document(tmp_path):
    cfg, target = load(tmp_path, GOOD_DOC)
    assert cfg.device.kappa == pytest.approx(2 * math.pi * 6.3e6)
    assert cfg.device.chi == pytest.approx(-2 * math.pi * 1.1e6)
    assert cfg.device.t1 == pytest.approx(1.4e-6)
    assert cfg.device.amp_ss == pytest.approx(0.6)
    assert cfg.device.p_therm == pytest.approx(
        thermal_population(0.114, 6.148e9), abs=1e-12)
    assert cfg.scenario == THERMAL_INIT
    assert cfg.repetitions == 4096
    assert cfg.master_seed == 42
    assert target == pytest.approx(0.03)


def test_parse_unit_variants(tmp_path):
    cfg, target = load(tmp_path, "device.t1 = 1400 ns\n"
                                 "experiment.threshold = 0.016 V\n"
                                 "calibration.noise_overlap_target = 3%\n")
    assert cfg.device.t1 == pytest.approx(1.4e-6)
    assert cfg.pipeline.c_i == 131
    assert target == pytest.approx(0.03)


def test_errors_are_collected_exhaustively(tmp_path):
    doc = ("device.bogus = 1 MHz\n"
           "no equals sign here\n"
           "device.t1 = 1.4 us\n"
           "device.t1 = 2 us\n"
           "experiment.repetitions = 4k\n")
    with pytest.raises(ConfigError) as err:
        load(tmp_path, doc)
    path = tmp_path / "doc.cfg"
    assert str(err.value).split("\n") == [
        f"{path}:1: unknown key 'device.bogus'",
        f"{path}:2: expected 'section.key = value'",
        f"{path}:4: duplicate key 'device.t1'",
        f"{path}:5: 'experiment.repetitions' expects an integer",
    ]


def test_unit_enforcement(tmp_path):
    with pytest.raises(ConfigError, match="needs a unit"):
        load(tmp_path, "device.t1 = 1.4\n")
    with pytest.raises(ConfigError, match="not one of"):
        load(tmp_path, "device.t1 = 1.4 MHz\n")
    with pytest.raises(ConfigError, match="is not a number"):
        load(tmp_path, "device.t1 = fast us\n")
    with pytest.raises(ConfigError, match="expects an integer"):
        load(tmp_path, "experiment.repetitions = 10 ns\n")
    with pytest.raises(ConfigError, match="must be one of"):
        load(tmp_path, "experiment.scenario = superposition\n")


def test_every_schema_arg_names_a_field_of_its_target():
    """device.* rows set DeviceParams, the others ExperimentConfig; the
    two rows without an argument are read by the builder itself."""
    targets = {cls: {f.name for f in fields(cls) if f.init}
               for cls in (DeviceParams, ExperimentConfig)}
    unset = set()
    for key, field in SCHEMA.items():
        if field.arg is None:
            unset.add(key)
            continue
        cls = DeviceParams if key.startswith("device.") else ExperimentConfig
        assert field.arg in targets[cls], key
    assert unset == {"device.temperature", "calibration.noise_overlap_target"}


def test_cross_field_validation(tmp_path):
    with pytest.raises(ConfigError, match="mutually exclusive"):
        load(tmp_path, "device.noise_sigma = 60 mV\n"
                       "calibration.noise_overlap_target = 3 %\n")
    with pytest.raises(ConfigError):
        load(tmp_path, "experiment.repetitions = 0\n")
    with pytest.raises(ConfigError):
        load(tmp_path, "pipeline.delay = 30\n")  # integration past pulse end


def test_pipeline_overrides(tmp_path):
    cfg, _ = load(tmp_path, "pipeline.window_len = 8\npipeline.delay = 12\n")
    assert cfg.pipeline.window_len == 8
    assert cfg.pipeline.delay == 12
    assert cfg.tau_ro_ns == 120
    # keys the document leaves out keep ExperimentConfig's defaults
    cfg, _ = load(tmp_path, "pipeline.delay = 8\n")
    fresh = ExperimentConfig(device=cfg.device, scenario=PI_HALF_INIT, delay=8)
    assert (cfg, cfg.pipeline) == (fresh, fresh.pipeline)


def test_shipped_configs_load():
    for name, scenario in (("scenario_pi_half.cfg", PI_HALF_INIT),
                           ("scenario_thermal.cfg", THERMAL_INIT)):
        cfg, target = load_file(shipped(name))
        assert cfg.scenario == scenario
        assert cfg.repetitions == 1 << 17
        assert cfg.master_seed == 20260825
        assert cfg.pipeline.c_i == 131
        assert target == pytest.approx(0.03)


def test_resolve_noise_applies_calibration(tmp_path):
    cfg, target = load(tmp_path, GOOD_DOC)
    resolved = resolve_noise(cfg, target)
    assert 0.05 < resolved.device.noise_sigma < 0.075
    assert resolve_noise(cfg, None) is cfg


# ---------------------------------------------------------------------------
# command line


def test_no_arguments_prints_help(capsys):
    assert cli.main([]) == 1
    assert "subcommand" in capsys.readouterr().out or True


def test_unknown_subcommand_exits_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_latency_report_text(capsys):
    assert cli.main(["latency-report"]) == 0
    out = capsys.readouterr().out
    assert "352" in out and "219" in out and "inferred" in out


def test_latency_report_json(capsys):
    assert cli.main(["latency-report", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau_fb_ns"][0] == 352.0
    assert doc["tau_eltot_ns"][0] == 219.0
    assert doc["trigger_to_fb_ns"] == 200.0
    assert doc["integration_delay_cycles"] == 10


def test_latency_report_trigger_to_fb_follows_the_delay(capsys):
    assert cli.main(["latency-report", "--delay-cycles", "1"]) == 0
    assert "trigger to fb at d = 1: 110.0 ns" in capsys.readouterr().out
    assert cli.main(["latency-report", "--delay-cycles", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["trigger_to_fb_ns"] == 100.0


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("delay", ["256", "-1"])
def test_latency_report_rejects_delays_the_machine_cannot_run(capsys, mode,
                                                              delay):
    assert cli.main(["latency-report", "--delay-cycles", delay, *mode]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"delay {delay} outside 0..255" in captured.err


def test_calibrate_noise_json(capsys):
    rc = cli.main(["calibrate-noise", "--config",
                   shipped("scenario_pi_half.cfg"), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target"] == pytest.approx(0.03)
    assert doc["noise_sigma_volts"] == pytest.approx(0.0616, abs=0.002)
    assert doc["verified_overlap"] == pytest.approx(0.03, abs=1e-3)


def test_calibrate_noise_unreachable_target_is_runtime_error(capsys):
    rc = cli.main(["calibrate-noise", "--config",
                   shipped("scenario_pi_half.cfg"), "--target", "50"])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err


def test_bad_config_lists_every_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("device.nope = 3 mV\nexperiment.scenario = what\n")
    rc = cli.main(["run-experiment", "--config", str(bad),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:1: unknown key 'device.nope'\n"
        f"error: {bad}:2: 'experiment.scenario' must be one of "
        "pi_half_init/thermal_init\n")


@pytest.mark.parametrize("key", ["device.f_s = 200 MHz", "device.f_if = 50 MHz",
                                 "experiment.feedback = off"])
def test_sample_rate_is_not_a_config_key(tmp_path, capsys, key):
    # the sample rate is the pipeline clock and feedback is chosen by
    # --feedback; a document can set neither
    doc = tmp_path / "rate.cfg"
    doc.write_text(key + "\n")
    assert cli.main(["calibrate-noise", "--config", str(doc)]) == 1
    assert f"unknown key '{key.split()[0]}'" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run-experiment", "--config", str(doc), "--repetitions",
                     "64", "--out-dir", str(out)]) == 1
    assert f"unknown key '{key.split()[0]}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delay,rc", [(12, 0), (13, 1)])
def test_conditional_pi_past_second_readout_is_usage_error(tmp_path, capsys,
                                                           delay, rc):
    cfg = tmp_path / "late.cfg"
    cfg.write_text(f"pipeline.delay = {delay}\n")
    assert cli.main(["run-experiment", "--config", str(cfg), "--repetitions",
                     "64", "--out-dir", str(tmp_path / "out")]) == rc
    if rc:
        assert "conditional pi" in capsys.readouterr().err


@pytest.mark.parametrize("shift", [9, -8])
def test_scale_shift_out_of_range_names_the_document_key(tmp_path, capsys,
                                                         shift):
    doc = tmp_path / "shift.cfg"
    doc.write_text(f"pipeline.scale_shift = {shift}\n")
    out = tmp_path / "out"
    assert cli.main(["run-experiment", "--config", str(doc), "--repetitions",
                     "64", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"scale_shift {shift} outside -7..7" in err
    assert "s_i" not in err
    assert not out.exists()


def test_optimize_threshold_with_a_negative_scale_shift(tmp_path, capsys):
    cfg = _write_small_cfg(tmp_path, **{"pipeline.scale_shift": "-2"})
    assert cli.main(["optimize-threshold", "--config", cfg, "--json",
                     "--jobs", "1"]) == 0
    best = json.loads(capsys.readouterr().out)["threshold_volts"]
    assert 0.0 < best < 0.016


@pytest.mark.parametrize("line,name", [
    ("experiment.threshold = 3 V", "experiment.threshold"),
    ("experiment.threshold = -3 V", "experiment.threshold"),
    ("device.offset_q = 2 V", "device.amp_ss and device.offset_q"),
    ("device.amp_ss = 5 V", "device.amp_ss and device.offset_q"),
])
def test_offset_beyond_the_filter_range_is_usage_error(tmp_path, capsys, line,
                                                       name):
    # the pipeline's offsets live on the +-2 V filtered-signal grid; one
    # that would saturate there is rejected, not clipped
    doc = tmp_path / "offset.cfg"
    doc.write_text(line + "\n")
    out = tmp_path / "out"
    assert cli.main(["run-experiment", "--config", str(doc), "--repetitions",
                     "64", "--out-dir", str(out)]) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,target,name", [
    ("device.noise_sigma = nan mV", None, "noise_sigma"),
    ("device.offset_i = nan mV", None, "offset_i"),
    ("device.kappa = inf MHz", None, "kappa"),
    ("device.t1 = -inf us", None, "t1"),
    ("calibration.noise_overlap_target = nan %", None, "target overlap"),
    ("device.noise_sigma = 0 mV", "nan", "target overlap"),
    ("device.noise_sigma = 0 mV", "inf", "target overlap"),
    ("experiment.threshold = nan mV", None, "experiment.threshold"),
    ("experiment.threshold = inf mV", None, "experiment.threshold"),
    ("device.temperature = inf mK", None, "device.temperature"),
    ("device.temperature = nan mK", None, "device.temperature"),
])
def test_non_finite_values_are_usage_errors(tmp_path, capsys, line, target,
                                            name):
    # NaN passes range checks written as ordered comparisons; it is
    # rejected by name instead of running noiseless or failing later
    doc = tmp_path / "nonfinite.cfg"
    doc.write_text(line + "\n")
    argv = ["calibrate-noise", "--config", str(doc)]
    if target is not None:
        argv += ["--target", target]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert name in err and "runtime error" not in err


@pytest.mark.parametrize("lines,rc,err", [
    # k T underflows to 0: no thermal population, not a division by zero
    (["device.temperature = 1e-300 mK"], 0, ""),
    # a negative frequency would overflow the Boltzmann factor
    (["device.f_q = -6 GHz", "device.temperature = 1e-3 mK"], 1,
     "device.temperature: f_q must be positive"),
    # the jumps to sample grow as 1/t1: this one would never finish
    (["device.t1 = 1e-300 us", "device.temperature = 114 mK"], 1,
     "t1 must be at least one sample period, 10 ns"),
    # the synthesizer's arithmetic would overflow
    (["device.noise_sigma = 1.7e308 V"], 1,
     "noise_sigma must be within +-1e300, got 1.7e+308"),
    # its LSB count overflows, so the offset saturates
    (["experiment.threshold = 1.7e308 V"], 1,
     "experiment.threshold (1.7e+308 V) lies outside the filtered-signal range"),
])
def test_extreme_device_values_run_or_are_usage_errors(tmp_path, capsys, lines,
                                                       rc, err):
    doc = tmp_path / "extreme.cfg"
    doc.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert cli.main(["run-experiment", "--config", str(doc), "--repetitions",
                     "64", "--jobs", "1", "--out-dir", str(tmp_path / "out")]) == rc
    assert err in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-experiment", "optimize-threshold",
                                     "readout-fidelity"])
@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, command, jobs):
    argv = [command, "--config", shipped("scenario_thermal.cfg"),
            "--jobs", jobs]
    if command == "run-experiment":
        argv += ["--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "--jobs: expected a whole number of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = cli.main(["latency-report"])  # warm-up, no config needed
    assert rc == 0
    rc = cli.main(["calibrate-noise", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    # a directory, or a path under a regular file, is no file either
    plain = tmp_path / "a.csv"
    plain.write_text("", encoding="ascii")
    for path in (tmp_path, plain / "x"):
        for argv in (["run-experiment", "--out-dir", str(tmp_path / "out")],
                     ["calibrate-noise"]):
            capsys.readouterr()
            assert cli.main([*argv, "--config", str(path)]) == 1
            assert capsys.readouterr().err.startswith("error: ")
    cfg = _write_small_cfg(tmp_path)
    for path in (tmp_path, plain / "x"):
        capsys.readouterr()
        assert cli.main(["simulate-pipeline", "--config", cfg,
                         "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_out_dir_naming_a_regular_file_is_usage_error(tmp_path, capsys):
    plain = tmp_path / "a.csv"
    plain.write_text("", encoding="ascii")
    cfg = _write_small_cfg(tmp_path)
    for out_dir in (plain, plain / "x"):
        capsys.readouterr()
        assert cli.main(["run-experiment", "--config", cfg, "--repetitions",
                         "64", "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert plain.read_text(encoding="ascii") == ""


def test_allocation_failure_is_one_line_runtime_error(tmp_path, capsys,
                                                      monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.42 PiB for an array")

    monkeypatch.setattr(cli, "synthesize_adc_stream", out_of_memory)
    cfg = _write_small_cfg(tmp_path)
    capsys.readouterr()
    assert cli.main(["simulate-pipeline", "--config", cfg,
                     "--ticks", "100000000000000"]) == 2
    assert capsys.readouterr().err == (
        "runtime error: Unable to allocate 1.42 PiB for an array\n")


def _write_small_cfg(tmp_path, **extra):
    lines = [
        "device.t1 = 1.4 us",
        "device.temperature = 114 mK",
        "device.offset_i = 13 mV",
        "calibration.noise_overlap_target = 3 %",
        "experiment.scenario = pi_half_init",
        "experiment.repetitions = 4096",
        "experiment.master_seed = 11",
        "experiment.threshold = 16 mV",
    ]
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("feedback", ["off", "on", "both"])
def test_run_experiment_writes_reports_and_histograms(tmp_path, capsys,
                                                      feedback):
    cfg_path = _write_small_cfg(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["run-experiment", "--config", cfg_path,
                   "--out-dir", str(out), "--feedback", feedback,
                   "--jobs", "1"])
    assert rc == 0
    arms = ("off", "on") if feedback == "both" else (feedback,)
    suffixes = {arm: f"_feedback_{arm}" if feedback == "both" else ""
                for arm in arms}
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["histogram.bin"]
        + [f"{stem}{suffix}.{ext}" for suffix in suffixes.values()
           for stem, ext in (("report", "json"), ("marginal_i1", "csv"),
                             ("marginal_i2", "csv"), ("joint_i1_i2", "csv"))])
    stdout = capsys.readouterr().out
    reports = {}
    for arm, suffix in suffixes.items():
        rep = json.loads((out / f"report{suffix}.json").read_text())
        reps = rep["repetitions"]
        assert reps == 4096
        assert rep["feedback_enabled"] == (arm == "on")
        assert f"feedback {arm}:" in stdout
        # each report's histogram is its own: bin 64 is the sign boundary
        # of the scaled output, so its joint (i1, i2) counts split there
        # reproduce its quadrants
        counts = dict.fromkeys(rep["quadrants"], 0)
        for row in _csv_rows(out / f"joint_i1_i2{suffix}.csv"):
            key = ("ge"[int(row["i1_bin"]) >= 64]
                   + "ge"[int(row["i2_bin"]) >= 64])
            counts[key] += int(row["count"])
        assert counts == {k: q * reps for k, q in rep["quadrants"].items()}
        # marginal CSV counts must add up to the repetition count
        for marginal in ("marginal_i1", "marginal_i2"):
            rows = _csv_rows(out / f"{marginal}{suffix}.csv")
            assert sum(int(r["count"]) for r in rows) == reps
        reports[arm] = rep
    if feedback == "both":
        assert reports["off"]["p_e1"] == reports["on"]["p_e1"]
        assert reports["on"]["p_e2"] < reports["off"]["p_e2"]


def test_run_experiment_single_mode_and_determinism(tmp_path, capsys):
    cfg_path = _write_small_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main(["run-experiment", "--config", cfg_path,
                       "--out-dir", str(out), "--feedback", "on",
                       "--jobs", "1"])
        assert rc == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "histogram.bin").read_bytes() == (out2 / "histogram.bin").read_bytes()
    capsys.readouterr()


def test_run_experiment_writes_over_longer_and_shorter_old_outputs(tmp_path,
                                                                  capsys):
    """Each output replaces the old file: the bytes equal those written
    into an empty directory, whether the old file was longer or shorter."""
    cfg_path = _write_small_cfg(tmp_path)
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    argv = ["run-experiment", "--config", cfg_path, "--feedback", "both",
            "--jobs", "2", "--out-dir"]
    assert cli.main(argv + [str(fresh)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    reused.mkdir()
    for k, name in enumerate(names):
        size = (fresh / name).stat().st_size
        (reused / name).write_bytes(b"\xff" * (size * 2 if k % 2 else size // 2))
    assert cli.main(argv + [str(reused)]) == 0
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    capsys.readouterr()


def test_run_experiment_repetition_override_validation(tmp_path, capsys):
    cfg_path = _write_small_cfg(tmp_path)
    rc = cli.main(["run-experiment", "--config", cfg_path,
                   "--out-dir", str(tmp_path / "out"), "--repetitions", "0"])
    assert rc == 1
    capsys.readouterr()


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    cfg_path = _write_small_cfg(tmp_path)
    monkeypatch.setenv(cli.SEED_ENV, "777")
    out = tmp_path / "seeded"
    rc = cli.main(["run-experiment", "--config", cfg_path,
                   "--out-dir", str(out), "--feedback", "off", "--jobs", "1"])
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["master_seed"] == 777
    monkeypatch.setenv(cli.SEED_ENV, "not-a-seed")
    rc = cli.main(["run-experiment", "--config", cfg_path,
                   "--out-dir", str(out)])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, monkeypatch, seed):
    """A seed the chunks' generators cannot take as one 64-bit word is
    rejected, from the document and from the environment alike; an
    environment seed's message names the variable."""
    path = tmp_path / "run.cfg"
    good = Path(_write_small_cfg(tmp_path)).read_text(encoding="ascii")
    args = ["run-experiment", "--config", str(path), "--repetitions", "64",
            "--jobs", "1", "--out-dir", str(tmp_path / "out")]
    problem = f"master_seed {seed} outside 0..2**64-1"
    path.write_text(good.replace("master_seed = 11", f"master_seed = {seed}"),
                    encoding="ascii")
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {path}: experiment.{problem}\n"
    path.write_text(good, encoding="ascii")
    monkeypatch.setenv(cli.SEED_ENV, str(seed))
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {cli.SEED_ENV}={seed}: {problem}\n"
    assert not (tmp_path / "out").exists()


# every integer a user gives, where it is read: a document's integer key,
# QFB_SEED, four options and the three columns of an ADC CSV
INTEGER_SITES = ["document", "QFB_SEED", "--jobs", "--repetitions", "--ticks",
                 "--delay-cycles", "t_ns", "raw", "tr"]
_CSV_SITES = ("t_ns", "raw", "tr")
# a document's line grammar trims the spaces around a value, so " 7" reads
# as 7 there; an ADC CSV field holds no spaces
_TRIMMED = {("document", " 7")}


def _integer_site_argv(tmp_path, monkeypatch, site, text):
    """A command line that reads `text` as the integer at `site`."""
    cfg = _write_small_cfg(tmp_path, **({"pipeline.delay": text}
                                        if site == "document" else {}))
    if site == "QFB_SEED":
        monkeypatch.setenv(cli.SEED_ENV, text)
    if site in _CSV_SITES:
        row = {"t_ns": "10", "raw": "0", "tr": "0", site: text}
        adc = tmp_path / "adc.csv"
        adc.write_text("t_ns,raw,tr\n" + ",".join(row.values()) + "\n20,0,0\n",
                       encoding="utf-8")
        return ["simulate-pipeline", "--config", cfg, "--input", str(adc)]
    return {
        "--jobs": ["readout-fidelity", "--config", cfg, "--jobs", text],
        "--repetitions": ["run-experiment", "--config", cfg, "--out-dir",
                          str(tmp_path / "out"), "--repetitions", text],
        "--ticks": ["simulate-pipeline", "--config", cfg, "--ticks", text],
        "--delay-cycles": ["latency-report", "--delay-cycles", text],
    }.get(site, ["calibrate-noise", "--config", cfg])


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # a usage error the argument parser found
        return exc.code


@pytest.mark.parametrize("site,text", [
    (site, text) for site in INTEGER_SITES
    for text in ("1_0", "+7", " 7", "1 7", "0x10", "\u0663", "-")
    if (site, text) not in _TRIMMED])
def test_every_integer_input_rejects_other_spellings(tmp_path, capsys,
                                                     monkeypatch, site, text):
    """An integer is an optional '-' and ASCII decimal digits, wherever it
    is read; any other spelling exits 1 before a run."""
    argv = _integer_site_argv(tmp_path, monkeypatch, site, text)
    assert _exit_code(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    if site == "document":
        problem = "'pipeline.delay' expects an integer"
    elif site == "QFB_SEED":
        problem = f"{cli.SEED_ENV}={text}: {text!r} is not an integer"
    elif site == "--jobs":
        problem = f"expected a whole number of at least 1, got {text!r}"
    elif site in _CSV_SITES:
        problem = f"{text!r} is not an integer"
    else:
        problem = f"invalid integer value: {text!r}"
    if site in ("document", *_CSV_SITES) and not text.isascii():
        problem = f"non-ASCII character {text!r}"  # the file must be ASCII
    assert problem in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_integer_input_reads_leading_zeros_as_decimal(tmp_path,
                                                            monkeypatch, site):
    argv = _integer_site_argv(tmp_path, monkeypatch, site, "010")
    if site in ("document", "QFB_SEED"):
        cfg, _ = cli._load(argv[-1])
        assert (cfg.delay if site == "document" else cfg.master_seed) == 10
    elif site == "t_ns":
        # the next row, at 20 ns, is one clock period after 10 ns
        assert len(cli._parse_adc_csv(argv[-1])[0]) == 2
    elif site == "raw":
        assert cli._parse_adc_csv(argv[-1])[0][0] == 10
    elif site == "tr":
        with pytest.raises(ConfigError, match="trigger 10 must be a bit"):
            cli._parse_adc_csv(argv[-1])
    else:
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, site[2:].replace("-", "_")) == 10


def test_simulate_pipeline_feedback_only_for_excited(tmp_path, capsys):
    cfg_path = _write_small_cfg(tmp_path)
    traces = {}
    for state in ("g", "e"):
        rc = cli.main(["simulate-pipeline", "--config", cfg_path,
                       "--state", state])
        assert rc == 0
        traces[state] = capsys.readouterr().out
    for state, text in traces.items():
        rows = list(csv.DictReader(io.StringIO(text)))
        fired = [int(r["cycle"]) for r in rows if r["fb"] == "1"]
        if state == "e":
            assert fired == [27]
        else:
            assert fired == []
        assert any(r["fb_time"] == "1" for r in rows)


def test_simulate_pipeline_deterministic_output(tmp_path, capsys):
    cfg_path = _write_small_cfg(tmp_path)
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for out in (out1, out2):
        rc = cli.main(["simulate-pipeline", "--config", cfg_path,
                       "--state", "e", "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_simulate_pipeline_csv_roundtrip(tmp_path, capsys):
    cfg_path = _write_small_cfg(tmp_path)
    trace_path = tmp_path / "ref.csv"
    cli.main(["simulate-pipeline", "--config", cfg_path, "--state", "e",
              "--out", str(trace_path)])
    ref = trace_path.read_text()
    rows = list(csv.DictReader(io.StringIO(ref)))
    adc = tmp_path / "adc.csv"
    # an LF or a CRLF line ending is not part of the row
    for end in ("\n", "\r\n"):
        adc.write_bytes(("t_ns,raw,tr" + end + end.join(
            f"{int(r['cycle']) * 10},{r['adc_raw']},{r['tr']}" for r in rows)
            + end).encode("ascii"))
        rc = cli.main(["simulate-pipeline", "--config", cfg_path,
                       "--input", str(adc), "--out", str(tmp_path / "re.csv")])
        assert rc == 0
        assert (tmp_path / "re.csv").read_text() == ref
    capsys.readouterr()


def test_simulate_pipeline_warns_of_a_preprocessor_clip(tmp_path, capsys):
    cfg_path = _write_small_cfg(tmp_path)
    # full-scale samples in phase with the mixer's cosine: the in-phase
    # average reaches -4096, which the offset and the 2**3 scaling push
    # past the 16-bit preprocessed range
    pattern = (-8192, 0, 8191, 0)
    adc = tmp_path / "adc.csv"
    adc.write_text("t_ns,raw,tr\n" + "\n".join(
        f"{n * 10},{pattern[n % 4]},{int(n == 8)}" for n in range(48)) + "\n")
    args = ["simulate-pipeline", "--config", cfg_path, "--input", str(adc)]
    assert cli.main([*args, "--out", str(tmp_path / "trace.csv")]) == 0
    capsys.readouterr()
    assert cli.main(args) == 0
    out, err = capsys.readouterr()
    assert out == (tmp_path / "trace.csv").read_text()
    assert err == "warning: preprocessed i_t saturated; its overflow flag latched\n"


def test_simulate_pipeline_warns_of_an_adc_clip(tmp_path, capsys):
    # a 1.5 V readout overdrives the +-1 V converter on part of the pulse
    doc = tmp_path / "loud.cfg"
    doc.write_text("device.amp_ss = 1.5 V\n")
    args = ["simulate-pipeline", "--config", str(doc), "--ticks", "72"]
    assert cli.main([*args, "--out", str(tmp_path / "trace.csv")]) == 0
    capsys.readouterr()
    assert cli.main(args) == 0
    out, err = capsys.readouterr()
    assert out == (tmp_path / "trace.csv").read_text()
    assert err == ("warning: ADC clipped 6 of 66 synthesized samples\n"
                   "warning: preprocessed q_t saturated; its overflow flag latched\n")


def test_simulate_pipeline_without_a_clip_warns_of_nothing(tmp_path, capsys):
    cfg_path = _write_small_cfg(tmp_path)
    assert cli.main(["simulate-pipeline", "--config", cfg_path,
                     "--state", "e"]) == 0
    assert capsys.readouterr().err == ""


def test_simulate_pipeline_empty_input_is_usage_error(tmp_path, capsys):
    cfg_path = _write_small_cfg(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc = cli.main(["simulate-pipeline", "--config", cfg_path,
                   "--input", str(empty)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {empty}: no samples\n"


@pytest.mark.parametrize("row,message", [
    ("10,5.5,0", "'5.5' is not an integer"),
    ("10,99999,0", "raw 99999 does not fit in 14 bits"),
    ("10,-8193,0", "raw -8193 does not fit in 14 bits"),
    ("10,5,2", "trigger 2 must be a bit"),
    ("10,5,x", "'x' is not an integer"),
    ("10,5", "bad ADC CSV line '10,5'"),
    # a field holds no spaces, at the row's ends or after a comma
    (" 10,5,0", "' 10' is not an integer"),
    ("10, 5,0", "' 5' is not an integer"),
    ("10,5 ,0", "'5 ' is not an integer"),
    ("10,5,0 ", "'0 ' is not an integer"),
    ("10,5,0\t", "'0\\t' is not an integer"),
    ("  ", "bad ADC CSV line '  '"),
])
def test_simulate_pipeline_bad_input_row_names_its_file_and_line(
        tmp_path, capsys, row, message):
    cfg_path = _write_small_cfg(tmp_path)
    adc = tmp_path / "adc.csv"
    adc.write_text(f"t_ns,raw,tr\n0,1,0\n\n{row}\n20,1,0\n")
    assert cli.main(["simulate-pipeline", "--config", cfg_path,
                     "--input", str(adc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {adc}:4: {message}\n"


@pytest.mark.parametrize("row,message", [
    ("xyz,1,0", "'xyz' is not an integer"),
    ("15,1,0", "t_ns 15 is not a multiple of the 10 ns clock period"),
    ("1.5e2,1,0", "'1.5e2' is not an integer"),
    ("10,\u00e9,0", "non-ASCII character '\u00e9'; the file must be ASCII"),
    ("10,1,0 # \u00b5s", "non-ASCII character '\u00b5'; the file must be ASCII"),
    # each row is the clock cycle after the one before it
    ("20,1,0", "t_ns 20 is not the next clock cycle; expected 10"),
    ("0,1,0", "t_ns 0 is not the next clock cycle; expected 10"),
    ("-20,1,0", "t_ns -20 is not the next clock cycle; expected 10"),
])
def test_simulate_pipeline_bad_input_bytes_and_times_name_their_line(
        tmp_path, capsys, row, message):
    cfg_path = _write_small_cfg(tmp_path)
    adc = tmp_path / "adc.csv"
    adc.write_bytes(f"t_ns,raw,tr\n-10,1,0\n0,2,0\n{row}\n20,1,0\n".encode())
    assert cli.main(["simulate-pipeline", "--config", cfg_path,
                     "--input", str(adc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {adc}:4: {message}\n"


@pytest.mark.parametrize("command", ["run-experiment", "calibrate-noise",
                                     "simulate-pipeline"])
@pytest.mark.parametrize("lines,errors", [
    # a micro sign for us: the message names the spellings the key takes
    (["device.t1 = 1.4 \u00b5s"],
     ["1: non-ASCII character '\u00b5'; the file must be ASCII; "
      "'device.t1' takes the units s/ms/us/ns"]),
    # in a comment, or in an unknown key, no unit applies
    (["device.t1 = 1.4 us  # \u03c4", "experiment.threshold = 16 mV",
      "device.\u03ba = 6.3 MHz"],
     ["1: non-ASCII character '\u03c4'; the file must be ASCII",
      "3: non-ASCII character '\u03ba'; the file must be ASCII"]),
    # bytes that are not UTF-8 either
    (["experiment.threshold = 16 mV", "device.amp_ss = 600 \udcffmV"],
     ["2: non-ASCII character '\ufffd'; the file must be ASCII; "
      "'device.amp_ss' takes the units V/mV"]),
])
def test_non_ascii_config_bytes_name_their_path_and_line(tmp_path, capsys,
                                                         command, lines,
                                                         errors):
    doc = tmp_path / "bad.cfg"
    doc.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    out_dir = ["--out-dir", str(tmp_path / "out")] if command == "run-experiment" else []
    assert cli.main([command, "--config", str(doc), *out_dir]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "".join(f"error: {doc}:{e}\n" for e in errors)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run-experiment", "calibrate-noise",
                                     "simulate-pipeline"])
@pytest.mark.parametrize("lines,errors", [
    # faults of one line each
    (["device.t1 = 1.4", "device.kappa = 6.3 us", "device.chi = fast MHz",
      "pipeline.delay = +10", "no equals sign", "device.nope = 1 V",
      "device.t1 = 2 us", "experiment.threshold =",
      "experiment.scenario = reset", "device.amp_ss = 600 \u00b5V"],
     ["1: 'device.t1' needs a unit (s/ms/us/ns)",
      "2: 'device.kappa' unit 'us' is not one of GHz/MHz/Hz",
      "3: 'device.chi' value 'fast' is not a number",
      "4: 'pipeline.delay' expects an integer",
      "5: expected 'section.key = value'",
      "6: unknown key 'device.nope'",
      "7: duplicate key 'device.t1'",
      "8: 'experiment.threshold' has no value",
      "9: 'experiment.scenario' must be one of pi_half_init/thermal_init",
      "10: non-ASCII character '\u00b5'; the file must be ASCII; "
      "'device.amp_ss' takes the units V/mV"]),
    # faults of the document as a whole
    (["device.noise_sigma = 60 mV", "calibration.noise_overlap_target = -3 %",
      "device.temperature = -1 mK", "experiment.repetitions = 0"],
     [" device.noise_sigma and calibration.noise_overlap_target are "
      "mutually exclusive",
      " target overlap must be positive and finite, got -0.03",
      " device.temperature: t_env must be positive and finite",
      " experiment.repetitions must be at least 1"]),
    (["device.t1 = -1 us"], [" device.t1 must be at least one sample period, 10 ns"]),
    # a field's error names the key that set it, and its value as the
    # field holds it
    (["device.temperature = 1e300 K"],
     [" the thermal population set by device.temperature must be within [0, 0.5)"]),
    (["experiment.threshold = 3 V"],
     [" experiment.threshold (3 V) lies outside the filtered-signal range of +-2 V"]),
    (["device.kappa = 1e300 Hz"],
     [" 2 pi * device.kappa must be within +-1e300, got 6.283185307179586e+300"]),
])
def test_every_document_error_names_the_document(tmp_path, capsys, command,
                                                  lines, errors):
    """A fault of one line reads '<path>:<line>: ...', one of the whole
    document '<path>: ...', from every command that reads a document."""
    doc = tmp_path / "bad.cfg"
    doc.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_dir = ["--out-dir", str(tmp_path / "out")] if command == "run-experiment" else []
    assert cli.main([command, "--config", str(doc), *out_dir]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "".join(f"error: {doc}:{e}\n" for e in errors)
    # the dataclass fields behind the keys stay out of the messages
    for field in ("p_therm", "threshold_volts"):
        assert field not in err


def test_run_experiment_oracle_flip_is_half_the_calibrated_overlap(tmp_path,
                                                                    capsys):
    """The oracle's readout flip is half the overlap of the configuration
    loaded afresh and calibrated to its noise target."""
    cfg_path = _write_small_cfg(tmp_path)
    assert cli.main(["run-experiment", "--config", cfg_path, "--repetitions",
                     "256", "--jobs", "1", "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    calibrated = resolve_noise(*load_file(cfg_path))
    report = json.loads((tmp_path / "out" / "report_feedback_on.json").read_text())
    assert report["oracle"]["readout_flip"] == ex.overlap_probability(calibrated) / 2


def test_python_m_qfbsim_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "qfbsim", "latency-report",
                           "--json"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["trigger_to_fb_ns"] == 200.0


def test_python_m_qfbsim_exits_with_the_cli_code():
    proc = subprocess.run([sys.executable, "-m", "qfbsim"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "usage" in proc.stdout


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qfbsim.cli",
                           "latency-report"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "352" in proc.stdout
