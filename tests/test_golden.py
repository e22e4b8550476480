"""Golden digests of the shipped scenarios' outputs.

Each pinned SHA-256 covers the exact bytes the command line writes: both
report JSONs and the histogram dump of a feedback comparison, the
simulate-pipeline trace of an excited qubit, and the remaining
command-line outputs: the calibrate-noise, optimize-threshold,
readout-fidelity and latency-report JSON, the marginal and joint CSVs
and the single-arm report.  The repetition count is not a multiple of CHUNK_REPS so the
trailing partial chunk is part of every digest.  A second set of
comparison digests is pinned at a repetition count that spans more
than one batch of chunks.  The comparison digests hold on one thread
and on two alike.  A speed-only change must
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
from qfbsim.experiment import (
    BATCH_CHUNKS,
    CHUNK_REPS,
    run_feedback_comparison,
)

CONFIG_DIR = Path(qfbsim.__file__).parent / "configs"
REPS = 4096 + 1000
SEED = 7

GOLDEN = {
    "scenario_pi_half.cfg": {
        "report_feedback_off.json":
            "58b6f2cd470da88e0c12a35a8254b99864ec290108805957d37e6140ec47e4b3",
        "report_feedback_on.json":
            "aff6cd993c1b0aeacf5310f2c2b0dbce9ced2cbfc9b6d4948f3ab8d47771154a",
        "histogram.bin":
            "0611c313f443e0cb9de7449e88fca6523505664f8b2a9b443efbc36b7594131e",
    },
    "scenario_thermal.cfg": {
        "report_feedback_off.json":
            "393d9863dafe12cdea9034794e41a4ff70ff4f3cdcadbc7c5c38f06b25730c41",
        "report_feedback_on.json":
            "3c4e1b733ae1c60aac45bb73598d3fc47ca1fe5a45ef1d3f57afdcffa82f06cb",
        "histogram.bin":
            "0521cdbda80e5c73b1f243bdcd42b74191acf691ba186d488df4a378560c9c94",
    },
}

# comparisons at (8 + 1) chunks + 77 repetitions and SEED: two batches of
# chunks, the last chunk partial
MULTI_BATCH_REPS = 9 * 4096 + 77
MULTI_BATCH = {
    "scenario_pi_half.cfg": {
        "report_feedback_off.json":
            "676ed65d4e7e2b804c3a026e393571ca5f7bd2cd36d923d4af96722532d6b206",
        "report_feedback_on.json":
            "69b094cc9a39f177b126c43ae76978f2e4d7d6151fd5b74eb525d0d734c6fbc7",
        "histogram.bin":
            "43a9ce5e0bff970f843918c5eeba24507aacd97635989c4a01ccd89b183c058d",
    },
    "scenario_thermal.cfg": {
        "report_feedback_off.json":
            "fe68c56089ce8442c8795624569b76bf58c63a8efcfb3710931f16250ff65735",
        "report_feedback_on.json":
            "9d197d4ed72f5f9fc7ffd20a69413bab49290e105d28417258884c860b8a3c21",
        "histogram.bin":
            "bcb3e31bb098a3e2718525ab104ac48b0df523ff6f2400d92f9bfcfeabc7662a",
    },
}

# simulate-pipeline --state e on the pi/2 scenario, default 48 cycles
TRACE_E = "8ade7508070ff53f278da0c559b9908b7885968a780afe6e63fb84914a6adac4"

# --json output of the pi/2 scenario at REPS and SEED
JSON_OUTPUTS = {
    "calibrate-noise":
        "b53bb231c03fa8e5d1bebecdfa4919e6de01964c310aef2c097cd63d85622700",
    "optimize-threshold":
        "ed19980b32662a888a37ca5b76e6718dcfe29fcd11c972b3b5081e3d87c3535c",
    "readout-fidelity":
        "47278e11e60fcfc9ac9f9e5869740366d7cedb40bc6492e473874f5d6733a87a",
    "latency-report":
        "ff7e17e3a7083610c2af02ea49d07d6eec361345e95711c2c866da247c967ad3",
}

# run-experiment --feedback both on the pi/2 scenario at REPS and SEED
HISTOGRAM_CSVS = {
    "marginal_i1_feedback_off.csv":
        "94c7d627b5788363d9fa94a55865773320b1c75690edd94c71cfa3945c5227dd",
    "marginal_i1_feedback_on.csv":
        "94c7d627b5788363d9fa94a55865773320b1c75690edd94c71cfa3945c5227dd",
    "marginal_i2_feedback_off.csv":
        "b9f928ab2b0fc2ea33071c7a3f54e6e4bb7d81bed322017652630c315e653cd3",
    "marginal_i2_feedback_on.csv":
        "62137e63e4744ebd129f43b707ee03a750349e6d782be4f97c182bae6d77491c",
    "joint_i1_i2_feedback_off.csv":
        "c76d514bb7fde325c78d0d3f5bd3821386a164242d3d0f85395bb463db5e7d34",
    "joint_i1_i2_feedback_on.csv":
        "ab764212d872d32495926c7946c2ed0ebda9ed0fec23d9f320c19f8b579ab621",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _shipped(name: str, reps: int = REPS):
    cfg, target = run_config.load_file(CONFIG_DIR / name)
    cfg = replace(cfg, repetitions=reps, master_seed=SEED)
    return run_config.resolve_noise(cfg, target)


def test_repetitions_cover_a_partial_chunk():
    assert REPS % CHUNK_REPS != 0
    assert MULTI_BATCH_REPS % CHUNK_REPS != 0


def test_multi_batch_repetitions_span_more_than_one_batch():
    assert MULTI_BATCH_REPS > BATCH_CHUNKS * CHUNK_REPS


def _comparison_digests(cfg, jobs: int) -> dict:
    comp = run_feedback_comparison(cfg, jobs=jobs)
    off, on = comp.reports
    return {
        "report_feedback_off.json": _sha((off.to_json() + "\n").encode()),
        "report_feedback_on.json": _sha((on.to_json() + "\n").encode()),
        "histogram.bin": _sha(comp.histogram.dump_bytes()),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_digests(name):
    cfg = _shipped(name)
    assert _comparison_digests(cfg, jobs=1) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_comparison_digests_on_two_workers(name):
    assert _comparison_digests(_shipped(name), jobs=2) == GOLDEN[name]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(MULTI_BATCH))
def test_multi_batch_comparison_digests(name, jobs):
    cfg = _shipped(name, MULTI_BATCH_REPS)
    assert _comparison_digests(cfg, jobs=jobs) == MULTI_BATCH[name]


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
             "readout-fidelity": ["--config", doc, "--jobs", "1"],
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
