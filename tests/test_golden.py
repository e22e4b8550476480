"""Golden digests of the shipped scenarios' outputs.

Each pinned SHA-256 covers the exact bytes the command line writes: both
report JSONs and the histogram dump of a feedback comparison, the
readout-fidelity JSON, and the simulate-pipeline trace of an excited
qubit.  The repetition count is not a multiple of CHUNK_REPS so the
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
            "9646df32b697ee13879b91b37a6373a10b645fc8d82c6124afd6ceab2a764ef4",
        "report_feedback_on.json":
            "6200ea5940649913831359b0f393d32c9ae081cc32a79ad5e10bb3a3f5f30ba5",
        "histogram.bin":
            "c3a90c17b64e84ebb7259d9dc2dd16acc8ea4c397426342648560c02589f42f4",
        "readout_fidelity.json":
            "0c21af3323e02028d46111c96d9e9c8863d4d6c4589fde2893edf30074cabe0c",
    },
    "scenario_thermal.cfg": {
        "report_feedback_off.json":
            "df6ab723a2decd7bcf4842b34b10b843a6328641bece1f548c3d37856c5a49f9",
        "report_feedback_on.json":
            "6643bf9436e73653636ffdf83ff81c875b36e5a2c490b3d91c33dd7242f82ba6",
        "histogram.bin":
            "fb412d326e01332a45d209377158671039008a7dd8e0484c8a1aa714b2ff837a",
        "readout_fidelity.json":
            "0c21af3323e02028d46111c96d9e9c8863d4d6c4589fde2893edf30074cabe0c",
    },
}

# simulate-pipeline --state e on the pi/2 scenario, default 48 cycles
TRACE_E = "8ade7508070ff53f278da0c559b9908b7885968a780afe6e63fb84914a6adac4"


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
