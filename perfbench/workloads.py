"""The benchmark's workloads: the qfbsim commands they run and the checks
every iteration's outputs must pass.

Each workload drives qfbsim.cli.main in-process with the arguments a
user would type.  The seed reaches the program through QFB_SEED, which
the caller sets before any iteration runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

SHIPPED_SEED = 20260825
# One repetition window is 66 ADC samples plus the 6-sample transport
# skew: the pipeline runs 72 clock cycles per repetition.
CYCLES_PER_REP = 72
TRACE_TICKS = 10000
WORD_MAX = 0xFFFF
DUMP_HEADER_BYTES = 64


@dataclasses.dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    config: str          # shipped config file name
    kind: str            # reset | calibrate | trace
    jobs: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("reset_pi_half", "scenario_pi_half.cfg", "reset", jobs=1),
    Workload("reset_thermal_jobs2", "scenario_thermal.cfg", "reset", jobs=2),
    Workload("calibrate", "scenario_pi_half.cfg", "calibrate"),
    Workload("pipeline_trace", "scenario_pi_half.cfg", "trace"),
)}


@dataclasses.dataclass
class Outcome:
    """What one iteration produced, and what was wrong with it."""

    digest: str
    reps: int                 # Monte Carlo repetitions (both arms)
    cycles: int               # simulated pipeline clock cycles
    facts: dict               # deterministic outputs reported as metrics
    problems: list


class Capture:
    """Keeps the Monte Carlo and comparison results the checks read.

    Installed for tracing-off and tracing-on iterations alike; it only
    forwards calls and keeps their results.
    """

    def __init__(self) -> None:
        self.mc: list = []
        self.comparisons: list = []

    def clear(self) -> None:
        self.mc.clear()
        self.comparisons.clear()

    @contextlib.contextmanager
    def installed(self, cli, experiment):
        run_mc = experiment.__dict__["_run_mc"]
        compare = cli.__dict__["run_feedback_comparison"]

        def keep_mc(*args, **kwargs):
            res = run_mc(*args, **kwargs)
            self.mc.append(res)
            return res

        def keep_comparison(*args, **kwargs):
            comp = compare(*args, **kwargs)
            self.comparisons.append(comp)
            return comp

        experiment._run_mc = keep_mc
        cli.run_feedback_comparison = keep_comparison
        try:
            yield self
        finally:
            experiment._run_mc = run_mc
            cli.run_feedback_comparison = compare


@dataclasses.dataclass
class Context:
    root: Path
    out: Path                 # where the commands write their outputs
    mods: dict                # qfbsim modules by name
    configs: dict             # shipped config name -> loaded ExperimentConfig
    capture: Capture

    def config_path(self, w: Workload) -> str:
        return str(self.root / "src" / "qfbsim" / "configs" / w.config)


def commands(ctx: Context, w: Workload, jobs: int) -> list[list[str]]:
    cfg = ctx.config_path(w)
    if w.kind == "reset":
        return [["run-experiment", "--config", cfg, "--out-dir",
                 str(ctx.out / w.name), "--feedback", "both",
                 "--jobs", str(jobs)]]
    if w.kind == "calibrate":
        return [["calibrate-noise", "--config", cfg, "--json"],
                ["optimize-threshold", "--config", cfg, "--json", "--jobs", "1"],
                ["readout-fidelity", "--config", cfg, "--json", "--jobs", "1"]]
    return [["simulate-pipeline", "--config", cfg, "--state", "e",
             "--ticks", str(TRACE_TICKS)]]


def warm_up(ctx: Context, w: Workload) -> None:
    """Run a small same-shaped job first, untimed and unchecked.

    The first Monte Carlo in a process pays page faults and allocator
    growth that later iterations do not; one 4096-repetition chunk per
    arm (the chunk size of every full run) takes that cost out of the
    first timed iteration.
    """
    if w.kind == "trace":
        argvs = commands(ctx, w, 1)
    else:
        argvs = [["run-experiment", "--config", ctx.config_path(w),
                  "--out-dir", str(ctx.out / "warm_up"), "--feedback", "both",
                  "--repetitions", "4096", "--jobs", "1"]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            ctx.mods["cli"].main(argv)
    ctx.capture.clear()


def run_iteration(ctx: Context, w: Workload, *, tracer=None,
                  jobs: int | None = None) -> tuple[float, Outcome]:
    """Run the workload's commands once; returns (host seconds, outcome).

    Only the cli.main calls are timed; the checks run afterwards.
    """
    cli = ctx.mods["cli"]
    ctx.capture.clear()
    argvs = commands(ctx, w, w.jobs if jobs is None else jobs)
    stdouts, codes = [], []
    start = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                codes.append(cli.main(argv))
            else:
                with tracer.span("cli.main"):
                    codes.append(cli.main(argv))
        stdouts.append(buf.getvalue())
    wall = time.perf_counter() - start

    problems = [f"{argv[0]} exited with {code}"
                for argv, code in zip(argvs, codes) if code != 0]
    if problems:
        return wall, Outcome("", 0, 0, {}, problems)
    check = {"reset": _check_reset, "calibrate": _check_calibrate,
             "trace": _check_trace}[w.kind]
    return wall, check(ctx, w, stdouts, problems)


def _digest(stdouts: list[str], files: list[Path]) -> str:
    h = hashlib.sha256()
    for text in stdouts:
        # the "wrote <dir>" line names the checkout's path, not an output
        kept = [ln for ln in text.splitlines() if not ln.startswith("wrote ")]
        h.update("\n".join(kept).encode())
        h.update(b"\0")
    for path in files:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _same_m1(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("it1", "qt1", "fb1"))


def _check_reset(ctx, w, stdouts, problems) -> Outcome:
    out_dir = ctx.out / w.name
    reports = [json.loads((out_dir / f"report_feedback_{arm}.json").read_text())
               for arm in ("off", "on")]
    files = sorted(out_dir.iterdir())
    if len(ctx.capture.comparisons) != 1 or len(ctx.capture.mc) != 2:
        problems.append("expected one comparison of two Monte Carlo arms")
        return Outcome(_digest(stdouts, files), 0, 0, {}, problems)

    ram = ctx.capture.comparisons[0].histogram
    shadow = ram.shadow.reshape(-1, 4)
    for seg, rep in enumerate(reports):
        if int(shadow[:, seg].sum()) != rep["repetitions"]:
            problems.append(f"segment {seg}: shadow sum != repetitions")
    if not np.array_equal(ram.words, np.minimum(ram.shadow, WORD_MAX)):
        problems.append("RAM words != min(shadow, 0xFFFF)")
    dump = (out_dir / "histogram.bin").read_bytes()
    if dump[DUMP_HEADER_BYTES:] != ram.words.astype("<u2").tobytes():
        problems.append("histogram.bin does not hold the RAM words")

    if not _same_m1(*ctx.capture.mc):
        problems.append("feedback off/on arms differ on M1")

    z = []
    for rep in reports:
        for key, value in rep["quadrants"].items():
            gap = abs(value - rep["oracle"]["quadrants"][key])
            err = rep["quadrant_errs"][key]
            if not gap < 0.015 + 3.0 * err:
                problems.append(f"oracle gate: quadrant {key} off by {gap:.4f}")
            if err > 0:
                z.append(gap / err)
    reps = sum(rep["repetitions"] for rep in reports)
    facts = {"experiment.mc_oracle_max_z": max(z),
             "histo.saturated_words": int(np.count_nonzero(ram.words == WORD_MAX))}
    return Outcome(_digest(stdouts, files), reps, reps * CYCLES_PER_REP,
                   facts, problems)


def _check_calibrate(ctx, w, stdouts, problems) -> Outcome:
    cal, opt, fid = (json.loads(s) for s in stdouts)
    if abs(cal["verified_overlap"] - cal["target"]) > 1e-3:
        problems.append("calibrated overlap misses its target by > 1e-3")
    if not math.isfinite(opt["threshold_volts"]):
        problems.append("optimized threshold is not finite")
    if not fid["identity_gap"] < 0.02:
        problems.append("fidelity budget identity gap >= 2%")
    mc = ctx.capture.mc
    # optimize-threshold and readout-fidelity draw the same two ensembles
    if len(mc) != 4 or not (_same_m1(mc[0], mc[2]) and _same_m1(mc[1], mc[3])):
        problems.append("the two draws of the calibration ensembles differ")
    reps = sum(r.n for r in mc)
    facts = {"experiment.mc_oracle_max_z": 0.0, "histo.saturated_words": 0}
    return Outcome(_digest(stdouts, []), reps, reps * CYCLES_PER_REP,
                   facts, problems)


def _check_trace(ctx, w, stdouts, problems) -> Outcome:
    lines = stdouts[0].splitlines()
    header = lines[0].split(",")
    table = np.array([ln.split(",") for ln in lines[1:]], dtype=np.int64)
    col = dict(zip(header, table.T))
    if table.shape[0] != TRACE_TICKS:
        problems.append(f"trace has {table.shape[0]} cycles, not {TRACE_TICKS}")
    fbt = col["fb_time"]
    events = np.flatnonzero((fbt[1:] == 1) & (fbt[:-1] == 0)) + 1
    if events.size != 1:
        problems.append(f"{events.size} readout events, expected 1")
    elif col["fb"][events[0]] != 1:
        problems.append("fb != 1 on the excited-state readout")
    pipe = ctx.mods["pipeline"]
    bt = pipe.run_stream_batch(ctx.configs[w.config].pipeline,
                               col["adc_raw"][np.newaxis, :],
                               col["tr"])
    if not (np.array_equal(bt.i_t[0], col["i_t"])
            and np.array_equal(bt.q_t[0], col["q_t"])):
        problems.append("run_stream_batch disagrees with the trace's i_t/q_t")
    facts = {"experiment.mc_oracle_max_z": 0.0, "histo.saturated_words": 0}
    return Outcome(_digest(stdouts, []), 1, table.shape[0], facts, problems)
