"""Tests for the config document parser and the command-line front end."""

import csv
import io
import json
import math
import subprocess
import sys
from importlib import resources

import pytest

from qfbsim import cli
from qfbsim.config import ConfigFileError, load_text, resolve_noise
from qfbsim.experiment import PI_HALF_INIT, THERMAL_INIT, ExperimentConfig
from qfbsim.sigmodel import thermal_population

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


# ---------------------------------------------------------------------------
# document parsing


def test_parse_good_document():
    cfg, target = load_text(GOOD_DOC)
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


def test_parse_unit_variants():
    cfg, target = load_text("device.t1 = 1400 ns\n"
                            "experiment.threshold = 0.016 V\n"
                            "calibration.noise_overlap_target = 3%\n")
    assert cfg.device.t1 == pytest.approx(1.4e-6)
    assert cfg.pipeline.c_i.raw == 131
    assert target == pytest.approx(0.03)


def test_errors_are_collected_exhaustively():
    doc = ("device.bogus = 1 MHz\n"
           "no equals sign here\n"
           "device.t1 = 1.4 us\n"
           "device.t1 = 2 us\n")
    with pytest.raises(ConfigFileError) as err:
        load_text(doc)
    text = str(err.value)
    assert "line 1: unknown key 'device.bogus'" in text
    assert "line 2: expected" in text
    assert "line 4: duplicate key 'device.t1'" in text
    assert len(err.value.errors) == 3


def test_unit_enforcement():
    with pytest.raises(ConfigFileError, match="needs a unit"):
        load_text("device.t1 = 1.4\n")
    with pytest.raises(ConfigFileError, match="not one of"):
        load_text("device.t1 = 1.4 MHz\n")
    with pytest.raises(ConfigFileError, match="is not a number"):
        load_text("device.t1 = fast us\n")
    with pytest.raises(ConfigFileError, match="expects an integer"):
        load_text("experiment.repetitions = 10 ns\n")
    with pytest.raises(ConfigFileError, match="must be one of"):
        load_text("experiment.scenario = superposition\n")


def test_cross_field_validation():
    with pytest.raises(ConfigFileError, match="mutually exclusive"):
        load_text("device.noise_sigma = 60 mV\n"
                  "calibration.noise_overlap_target = 3 %\n")
    with pytest.raises(ConfigFileError):
        load_text("experiment.repetitions = 0\n")
    with pytest.raises(ConfigFileError):
        load_text("pipeline.delay = 30\n")  # integration past pulse end


def test_pipeline_overrides():
    cfg, _ = load_text("pipeline.window_len = 8\npipeline.delay = 12\n")
    assert cfg.pipeline.window_len == 8
    assert cfg.pipeline.delay == 12
    assert cfg.tau_ro_ns == 120
    # keys the document leaves out keep ExperimentConfig's defaults
    cfg, _ = load_text("pipeline.delay = 8\n")
    fresh = ExperimentConfig(device=cfg.device, scenario=PI_HALF_INIT, delay=8)
    assert (cfg, cfg.pipeline) == (fresh, fresh.pipeline)


def test_shipped_configs_load():
    for name, scenario in (("scenario_pi_half.cfg", PI_HALF_INIT),
                           ("scenario_thermal.cfg", THERMAL_INIT)):
        with open(shipped(name), encoding="ascii") as fh:
            cfg, target = load_text(fh.read())
        assert cfg.scenario == scenario
        assert cfg.repetitions == 1 << 17
        assert cfg.master_seed == 20260825
        assert cfg.pipeline.c_i.raw == 131
        assert target == pytest.approx(0.03)


def test_resolve_noise_applies_calibration():
    cfg, target = load_text(GOOD_DOC)
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
    err = capsys.readouterr().err
    assert "unknown key 'device.nope'" in err


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


@pytest.mark.parametrize("line,name", [
    ("experiment.threshold = 3 V", "threshold_volts"),
    ("experiment.threshold = -3 V", "threshold_volts"),
    ("device.offset_q = 2 V", "offset_q"),
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
    ("experiment.threshold = nan mV", None, "threshold_volts"),
    ("experiment.threshold = inf mV", None, "threshold_volts"),
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
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
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
    adc.write_text("t_ns,raw,tr\n" + "\n".join(
        f"{int(r['cycle']) * 10},{r['adc_raw']},{r['tr']}" for r in rows) + "\n")
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
    assert "no samples" in capsys.readouterr().err


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
