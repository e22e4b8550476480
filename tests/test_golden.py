"""Golden digests of the shipped scenarios' outputs.

Each pinned SHA-256 covers the exact bytes the command line writes: both
report JSONs and the histogram dump of a feedback comparison, the
readout-fidelity JSON, the simulate-pipeline trace of an excited
qubit, and the remaining command-line outputs: the calibrate-noise,
optimize-threshold and latency-report JSON, the marginal and joint CSVs
and the single-arm report.  The repetition count is not a multiple of CHUNK_REPS so the
trailing partial chunk is part of every digest.  The comparison digests
hold in-process and on the process pool alike.  A speed-only change must
leave every digest as it is; a change that moves one must say so and
why.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

import qfbsim
from qfbsim import cli
from qfbsim import config as run_config
from qfbsim.experiment import CHUNK_REPS, readout_fidelity, run_feedback_comparison

CONFIG_DIR = Path(qfbsim.__file__).parent / "configs"
REPS = 4096 + 1000
SEED = 7

GOLDEN = {
    "scenario_pi_half.cfg": {
        "report_feedback_off.json":
            "b4875c91aa4313e4a9c74c24f91f61bb948e4b109201c7b508c2b617e830d880",
        "report_feedback_on.json":
            "37521819a62efc2964a20940576c2280a2a73209ec6e45473586891738254cc1",
        "histogram.bin":
            "c3a90c17b64e84ebb7259d9dc2dd16acc8ea4c397426342648560c02589f42f4",
        "readout_fidelity.json":
            "0c21af3323e02028d46111c96d9e9c8863d4d6c4589fde2893edf30074cabe0c",
    },
    "scenario_thermal.cfg": {
        "report_feedback_off.json":
            "3dd37b12605b4fc16bc44cb7876708ced0bf9b07746ccafad23f2d28f8e771b0",
        "report_feedback_on.json":
            "d959f39c884dfc83be5752a8ba544ebcf51d81f890000c1d0e40b30a3beff807",
        "histogram.bin":
            "fb412d326e01332a45d209377158671039008a7dd8e0484c8a1aa714b2ff837a",
        "readout_fidelity.json":
            "0c21af3323e02028d46111c96d9e9c8863d4d6c4589fde2893edf30074cabe0c",
    },
}

# simulate-pipeline --state e on the pi/2 scenario, default 48 cycles
TRACE_E = "8ade7508070ff53f278da0c559b9908b7885968a780afe6e63fb84914a6adac4"

# --json output of the pi/2 scenario at REPS and SEED
JSON_OUTPUTS = {
    "calibrate-noise":
        "b53bb231c03fa8e5d1bebecdfa4919e6de01964c310aef2c097cd63d85622700",
    "optimize-threshold":
        "494ff8fbf8abedc8837057aebfa86c3744540c52157b59326a9f1fd29fcc3da9",
    "latency-report":
        "ff7e17e3a7083610c2af02ea49d07d6eec361345e95711c2c866da247c967ad3",
}

# run-experiment --feedback both on the pi/2 scenario at REPS and SEED
HISTOGRAM_CSVS = {
    "marginal_i1_feedback_off.csv":
        "50102652fb255e4b3ff3dd199a230d9a37150f26065ada5db314e6201c76f286",
    "marginal_i1_feedback_on.csv":
        "50102652fb255e4b3ff3dd199a230d9a37150f26065ada5db314e6201c76f286",
    "marginal_i2_feedback_off.csv":
        "c1f48561c3bc02854f26ceeabe9498fedd5e47c80a12ce1b416b208a5af52627",
    "marginal_i2_feedback_on.csv":
        "e61653a3c42a3fe2d963f324bc9097036727a04935d3605adc732c26f1837808",
    "joint_i1_i2_feedback_off.csv":
        "c9c2eff6eb7f06d7550ae173af254e7094812462dd973cb185194cc35b1f2f26",
    "joint_i1_i2_feedback_on.csv":
        "d956b162f07f77de91ff8e01aa77363a05ca369935b81683718723971bc3e8e7",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _shipped(name: str):
    cfg, target = run_config.load_file(CONFIG_DIR / name)
    cfg = replace(cfg, repetitions=REPS, master_seed=SEED)
    return run_config.resolve_noise(cfg, target)


def test_repetitions_cover_a_partial_chunk():
    assert REPS % CHUNK_REPS != 0


def _comparison_digests(cfg, jobs: int) -> dict:
    comp = run_feedback_comparison(cfg, jobs=jobs)
    return {
        "report_feedback_off.json": _sha((comp.off.to_json() + "\n").encode()),
        "report_feedback_on.json": _sha((comp.on.to_json() + "\n").encode()),
        "histogram.bin": _sha(comp.histogram.dump_bytes()),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_digests(name):
    cfg = _shipped(name)
    digests = _comparison_digests(cfg, jobs=1)
    digests["readout_fidelity.json"] = _sha(readout_fidelity(cfg).to_json().encode())
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_comparison_digests_on_two_workers(name):
    digests = _comparison_digests(_shipped(name), jobs=2)
    want = {k: v for k, v in GOLDEN[name].items() if k in digests}
    assert digests == want


def test_simulate_pipeline_trace_digest(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli.main(["simulate-pipeline", "--config",
                     str(CONFIG_DIR / "scenario_pi_half.cfg"), "--state", "e",
                     "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == TRACE_E


def _pi_half_doc(tmp_path) -> str:
    """The shipped pi/2 document at REPS repetitions (SEED comes from the
    environment), for commands that have no --repetitions option."""
    text = (CONFIG_DIR / "scenario_pi_half.cfg").read_text(encoding="ascii")
    line = "experiment.repetitions = 131072"
    assert line in text
    path = tmp_path / "pi_half.cfg"
    path.write_text(text.replace(line, f"experiment.repetitions = {REPS}"),
                    encoding="ascii")
    return str(path)


def test_json_output_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV, str(SEED))
    doc = _pi_half_doc(tmp_path)
    argvs = {"calibrate-noise": ["--config", doc],
             "optimize-threshold": ["--config", doc, "--jobs", "1"],
             "latency-report": []}
    digests = {}
    for command, args in argvs.items():
        assert cli.main([command, *args, "--json"]) == 0
        digests[command] = _sha(capsys.readouterr().out.encode())
    assert digests == JSON_OUTPUTS


def test_run_experiment_file_digests(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, str(SEED))
    doc = str(CONFIG_DIR / "scenario_pi_half.cfg")
    common = ["--config", doc, "--repetitions", str(REPS), "--jobs", "1"]
    assert cli.main(["run-experiment", *common, "--out-dir", str(tmp_path / "both"),
                     "--feedback", "both"]) == 0
    assert {name: _sha((tmp_path / "both" / name).read_bytes())
            for name in HISTOGRAM_CSVS} == HISTOGRAM_CSVS
    # the single-arm report equals the comparison's feedback-on report
    assert cli.main(["run-experiment", *common, "--out-dir", str(tmp_path / "on"),
                     "--feedback", "on"]) == 0
    assert (_sha((tmp_path / "on" / "report.json").read_bytes())
            == GOLDEN["scenario_pi_half.cfg"]["report_feedback_on.json"])
