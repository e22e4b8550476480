"""Self-tests of the benchmark; run with `python3 -m pytest perfbench -q`.

They sit outside the package's testpaths, so the tier-1 suite does not
collect them.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def ctx():
    return run.load_context()


def _attributes(ctx):
    owners = [ctx.mods[m] for m in ("cli", "config", "experiment", "histo")]
    owners += [ctx.mods["histo"].HistogramRam,
               ctx.mods["experiment"]._EnvelopeFiller]
    return [(o, dict(vars(o))) for o in owners]


def test_metric_names_are_well_formed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in spec[section]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    per_layer = {m["name"] for m in spec["per_layer"]}
    # the rest come from run.py and the workload checks
    from_run = {"experiment.parallel_speedup", "tracing.overhead_s",
                "experiment.mc_oracle_max_z", "histo.saturated_words"}
    assert per_layer - from_run <= set(tracing.iteration_metrics([]))
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


@pytest.mark.parametrize("name", ["pipeline_trace", "reset_pi_half"])
def test_tracing_keeps_digest_and_restores_attributes(ctx, name):
    w = wl.WORKLOADS[name]
    before = _attributes(ctx)
    tr = tracing.Tracer()
    with ctx.capture.installed(ctx.mods["cli"], ctx.mods["experiment"]):
        _, plain = wl.run_iteration(ctx, w)
        with tr.installed(ctx.mods):
            _, traced = wl.run_iteration(ctx, w, tracer=tr)
    assert plain.problems == [] and traced.problems == []
    assert plain.digest == traced.digest
    assert tr.spans and all(s.end >= s.start for s in tr.spans)
    for owner, attrs in before:
        now = vars(owner)
        # Python itself may cache dunders such as __slotnames__ on a class
        added = {k for k in now.keys() - attrs.keys() if not k.startswith("__")}
        assert not added, (owner, added)
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_thermal_jobs2_digest_equals_jobs1(ctx):
    w = wl.WORKLOADS["reset_thermal_jobs2"]
    with ctx.capture.installed(ctx.mods["cli"], ctx.mods["experiment"]):
        _, two = wl.run_iteration(ctx, w)
        _, one = wl.run_iteration(ctx, w, jobs=1)
    assert two.problems == [] and one.problems == []
    assert two.digest == one.digest


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline_trace",
         "--seed", "5", "--seconds", "1", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(last["metrics"]) == {m["name"] for m in spec[section]}


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reset_pi_half",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
