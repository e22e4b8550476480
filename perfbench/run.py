"""qfbsim benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload reset_pi_half --seed 7 --seconds 50 --trace 0

Run from the root of a qfbsim checkout.  With --trace 0 it reports the
end-to-end metrics, measured with tracing off; with --trace 1 it
alternates untraced and traced iterations and reports the per-layer
metrics.  Every iteration's outputs are checked; the last line of
standard output is {"correct", "attempted", "failed", "metrics"}.
"""

import os

# Pinned before numpy loads, so that jobs=2 stays within two CPUs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

MIN_TIMED = 3          # timed iterations per run, whatever --seconds says
SETUP_PROBES = 7       # fresh processes timed for setup_s
OUT = HERE / "out"

# Per-layer counts that a deterministic run must repeat exactly.
REPEATING = ("pipeline.ticks_computed", "experiment.noiseless_means_calls",
             "histo.updates", "sigmodel.adc_clipped",
             "experiment.mc_oracle_max_z", "experiment.chunk_count",
             "pipeline.batch_calls", "experiment.jump_columns",
             "experiment.samples_synthesized", "pipeline.cycles")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in _spec()[section]}


def load_context() -> wl.Context:
    """Import qfbsim from this checkout's src/ and load the shipped configs."""
    src = ROOT / "src"
    if not (src / "qfbsim" / "cli.py").is_file():
        raise SystemExit(f"error: no qfbsim sources under {src}; "
                         "run from the root of a qfbsim checkout")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"qfbsim.{name}")
            for name in ("cli", "config", "experiment", "histo", "pipeline")}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise SystemExit("error: imported a qfbsim from outside this checkout")
    configs = {}
    for w in wl.WORKLOADS.values():
        path = src / "qfbsim" / "configs" / w.config
        configs[w.config] = mods["config"].load_file(path)[0]
    return wl.Context(root=ROOT, out=OUT, mods=mods, configs=configs,
                      capture=wl.Capture())


class Tally:
    """Attempted and failed iterations, plus the digest they must share."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def run(self, ctx, w, **kwargs):
        """One checked iteration; returns (wall, outcome), or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            wall, outcome = wl.run_iteration(ctx, w, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if outcome.problems == [] and self.digest not in (None, outcome.digest):
            outcome.problems.append("output digest differs between iterations")
        if outcome.problems:
            print(f"{self.name}: iteration {self.attempted} failed: "
                  + "; ".join(outcome.problems), file=sys.stderr)
            self.failed += 1
            return None
        self.digest = self.digest or outcome.digest
        return wall, outcome


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup_seconds(ctx, w) -> float:
    """Median fresh-process cost of import + load_file + resolve_noise."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), ctx.config_path(w)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return median(times)


def measure(ctx, w, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics with tracing off."""
    wl.warm_up(ctx, w)
    walls, work = [], None
    start = time.perf_counter()
    while len(walls) < MIN_TIMED or time.perf_counter() - start < seconds:
        got = tally.run(ctx, w)
        if got is None:
            if tally.failed > tally.attempted // 2:
                break
            continue
        walls.append(got[0])
        work = got[1]
    rss = peak_rss_mb()
    metrics = {"setup_s": setup_seconds(ctx, w), "peak_rss_mb": rss}
    if walls:
        # the mean, not the median: host speed drifts in phases of seconds
        # to minutes, and the whole run's throughput averages over them
        wall = fmean(walls)
        metrics.update(wall_s=wall, reps_per_s=work.reps / wall,
                       cycles_per_s=work.cycles / wall)
    return metrics, walls


def measure_traced(ctx, w, seconds: float, tally: Tally):
    """Per-layer metrics from traced iterations, alternated with untraced ones.

    Wrappers do not report back from pool workers, so every workload is
    traced at jobs=1; the jobs=2 workload adds a traced pass of its own
    command, whose parent-side _run_mc span gives parallel_speedup.
    """
    tr = tracing.Tracer()
    plain, traced, parallel, per_iter = [], [], [], []
    wl.warm_up(ctx, w)
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        got = tally.run(ctx, w)
        if got:
            plain.append(got[0])
        with tr.installed(ctx.mods):
            if w.jobs > 1:
                tr.iteration += 1
                first = len(tr.spans)
                got = tally.run(ctx, w, tracer=tr)
                if got:
                    traced.append(got[0])
                    par = tracing.iteration_metrics(tr.spans[first:])
                    parallel.append(par["experiment.run_mc_s"])
            tr.iteration += 1
            first = len(tr.spans)
            got = tally.run(ctx, w, tracer=tr, jobs=1)
        if got:
            if w.jobs == 1:
                traced.append(got[0])
            m = tracing.iteration_metrics(tr.spans[first:])
            m.update(got[1].facts)
            per_iter.append(m)
        if tally.failed > tally.attempted // 2:
            break
    if not per_iter or not plain or not traced:
        return {}, tr
    for key in REPEATING:
        if len({m[key] for m in per_iter}) != 1:
            print(f"{w.name}: {key} did not repeat: "
                  f"{[m[key] for m in per_iter]}", file=sys.stderr)
            tally.failed += 1
    metrics = tracing.median_metrics(per_iter)
    run_mc = median(parallel) if parallel else metrics["experiment.run_mc_s"]
    if parallel:
        metrics["experiment.run_mc_s"] = run_mc
    metrics["experiment.parallel_speedup"] = (
        metrics["experiment.chunk_sum_s"] / run_mc if run_mc else 0.0)
    metrics["tracing.overhead_s"] = median(traced) - median(plain)
    return metrics, tr


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "platform": platform.platform(), "git_commit": _git_commit()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = wl.WORKLOADS[args.workload]
    os.environ["QFB_SEED"] = str(args.seed)
    ctx = load_context()
    tally = Tally(w.name)
    section = "per_layer" if args.trace else "end_to_end"
    units = _units(section)
    with ctx.capture.installed(ctx.mods["cli"], ctx.mods["experiment"]):
        if args.trace:
            values, tr = measure_traced(ctx, w, args.seconds, tally)
            walls = None
        else:
            values, walls = measure(ctx, w, args.seconds, tally)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"{w.name}: no value for {', '.join(missing)}", file=sys.stderr)
        tally.failed = max(tally.failed, 1)
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in units if k in values}
    # Spans BENCHMARK.json does not list, such as the scalar pipeline that
    # only pipeline_trace runs: printed and kept, but not in the JSON line.
    unlisted = {k: v for k, v in values.items() if k not in units}
    error_rate = tally.failed / max(tally.attempted, 1)

    run_id = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "digest": tally.digest,
              "attempted": tally.attempted, "failed": tally.failed,
              "error_rate": error_rate, "iteration_walls_s": walls,
              "metrics": metrics, "unlisted": unlisted}
    (OUT / "results" / f"{run_id}.json").write_text(json.dumps(result, indent=2))
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        with open(OUT / "spans" / f"{run_id}.jsonl", "w") as fh:
            for rec in tracing.span_records(tr.spans):
                fh.write(json.dumps(rec) + "\n")

    for name, m in metrics.items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    for name, value in unlisted.items():
        print(f"{w.name} {name} = {value:.6g} (not in BENCHMARK.json)")
    print(f"{w.name} error_rate = {error_rate:.6g} "
          f"({tally.failed} of {tally.attempted} iterations failed)")
    print(f"{w.name} digest = {tally.digest}")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
