"""Command-line front end.

Subcommands cover the full workflow: per-cycle pipeline traces, the
two-measurement feedback experiment with histogram dumps, the latency
budget, noise calibration, threshold optimization, and single-shot
fidelity.  Exit codes: 0 success, 1 usage or validation problem, 2
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import config as run_config
from .experiment import (
    CalibrationError,
    ExperimentConfig,
    calibrate_noise,
    held_state_readout,
    optimize_threshold,
    overlap_probability,
    readout_fidelity,
    run_feedback_comparison,
)
from .fxp import ADC_WIDTH, ConfigError, FxpSample
from .latency import (
    BUDGET,
    budget_report,
    budget_summary,
    integration_delay_setting,
    trigger_to_fb_delay,
)
from .pipeline import (
    CLOCK_PERIOD_NS,
    SYNC_DEPTH,
    PipelineConfig,
    PipelineState,
    dump_trace,
    run_stream,
)
from .sigmodel import STATE_E, STATE_G, synthesize_adc_stream

SEED_ENV = "QFB_SEED"
# the feedback arms each --feedback value runs, in histogram segment order
_FEEDBACK_ARMS = {"off": (False,), "on": (True,), "both": (False, True)}
_JOBS_HELP = "threads the Monte Carlo runs on (default: the CPU count)"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _worker_count(text: str) -> int:
    """--jobs: the number of threads the Monte Carlo runs on, at least 1."""
    try:
        jobs = run_config.integer(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number of at least 1, got {text!r}")
    return jobs


def _build_parser() -> _Parser:
    parser = _Parser(prog="qfbsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    pipe = sub.add_parser("simulate-pipeline",
                          help="dump a per-cycle pipeline trace")
    pipe.add_argument("--config", required=True, help="run configuration file")
    pipe.add_argument("--state", choices=("g", "e"), default="e",
                      help="held qubit state for the synthetic input")
    pipe.add_argument("--input", help="ADC CSV (t_ns,raw,tr) instead of "
                                      "synthesizing a waveform")
    pipe.add_argument("--ticks", type=run_config.integer, default=48,
                      help="synthetic stream length in clock cycles")
    pipe.add_argument("--out", help="output path (default: stdout)")

    run = sub.add_parser("run-experiment",
                         help="run the two-measurement feedback experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--out-dir", required=True)
    run.add_argument("--repetitions", type=run_config.integer,
                     help="override the document")
    run.add_argument("--feedback", choices=tuple(_FEEDBACK_ARMS),
                     default="both", help="feedback arms to run")
    run.add_argument("--jobs", type=_worker_count, default=os.cpu_count() or 1,
                     help=_JOBS_HELP)

    lat = sub.add_parser("latency-report", help="print the latency budget")
    lat.add_argument("--delay-cycles", type=run_config.integer,
                     default=PipelineConfig().delay)
    lat.add_argument("--json", action="store_true")

    cal = sub.add_parser("calibrate-noise",
                         help="solve for the noise level hitting an overlap")
    cal.add_argument("--config", required=True)
    cal.add_argument("--target", type=float,
                     help="overlap error in percent (default: document value"
                          " or 3)")
    cal.add_argument("--json", action="store_true")

    opt = sub.add_parser("optimize-threshold",
                         help="scan thresholds for best fidelity")
    opt.add_argument("--config", required=True)
    opt.add_argument("--jobs", type=_worker_count, default=os.cpu_count() or 1,
                     help=_JOBS_HELP)
    opt.add_argument("--json", action="store_true")

    fid = sub.add_parser("readout-fidelity",
                         help="single-shot fidelity and its error budget")
    fid.add_argument("--config", required=True)
    fid.add_argument("--jobs", type=_worker_count, default=os.cpu_count() or 1,
                     help=_JOBS_HELP)
    fid.add_argument("--json", action="store_true")
    return parser


def _load(path: str) -> tuple[ExperimentConfig, float | None]:
    cfg, target = run_config.load_file(path)
    seed = os.environ.get(SEED_ENV)
    if seed is not None:
        try:
            cfg = replace(cfg, master_seed=run_config.integer(seed))
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV}={seed}: {exc}") from None
    return cfg, target


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _counts_csv(counts, header: str) -> str:
    lines = [header]
    lines += [f"{i},{c}" for i, c in enumerate(counts.tolist())]
    return "\n".join(lines) + "\n"


def _joint_csv(joint) -> str:
    lines = ["i1_bin,i2_bin,count"]
    nz = joint.nonzero()
    lines += [f"{a},{b},{c}" for a, b, c in zip(nz[0].tolist(), nz[1].tolist(),
                                                 joint[nz].tolist())]
    return "\n".join(lines) + "\n"


def _write_marginals(out_dir: Path, ram, seg, suffix: str) -> None:
    joint = ram.joint_i1_i2(seg)
    _write_text(out_dir / f"marginal_i1{suffix}.csv",
                _counts_csv(joint.sum(axis=1), "i1_bin,count"))
    _write_text(out_dir / f"marginal_i2{suffix}.csv",
                _counts_csv(joint.sum(axis=0), "i2_bin,count"))
    _write_text(out_dir / f"joint_i1_i2{suffix}.csv", _joint_csv(joint))


def _arm(rep) -> str:
    return "on" if rep.feedback_enabled else "off"


def _summary_line(rep) -> str:
    return (f"feedback {_arm(rep)}: P[E1] = {100 * rep.p_e1:.3f}%  "
            f"P[E2] = {100 * rep.p_e2:.3f}%")


def cmd_run_experiment(args) -> int:
    cfg, target = _load(args.config)
    if args.repetitions is not None:
        cfg = replace(cfg, repetitions=args.repetitions)
    cfg = run_config.resolve_noise(cfg, target)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    arms = _FEEDBACK_ARMS[args.feedback]
    comp = run_feedback_comparison(cfg, feedback=arms, jobs=args.jobs)
    (out_dir / "histogram.bin").write_bytes(comp.histogram.dump_bytes())
    for seg, rep in enumerate(comp.reports):
        suffix = f"_feedback_{_arm(rep)}" if len(arms) > 1 else ""
        _write_text(out_dir / f"report{suffix}.json", rep.to_json() + "\n")
        _write_marginals(out_dir, comp.histogram, seg, suffix)
        print(_summary_line(rep))
    print(f"wrote {out_dir}")
    return 0


def _parse_adc_csv(path: str) -> tuple[list[FxpSample], list[int]]:
    """Samples and trigger bits of an ADC CSV (t_ns,raw,tr), ASCII, one
    row per clock cycle: the first t_ns lies on the pipeline clock's
    grid and each next one is a clock period later.  A bad row fails
    with its path and line number."""
    samples, triggers = [], []
    t_next = None
    with open(path, "rb") as fh:
        for number, raw_line in enumerate(fh, start=1):
            where = f"{path}:{number}"
            message = run_config.non_ascii_message(raw_line)
            if message is not None:
                raise ConfigError(f"{where}: {message}")
            line = raw_line.decode("ascii").strip()
            if not line or line.startswith("t_ns"):
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ConfigError(f"{where}: bad ADC CSV line {line!r}")
            try:
                t_ns, raw, tr = map(run_config.integer, fields)
                sample = FxpSample(raw, ADC_WIDTH)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            if t_ns % CLOCK_PERIOD_NS:
                raise ConfigError(f"{where}: t_ns {t_ns} is not a multiple of "
                                  f"the {CLOCK_PERIOD_NS} ns clock period")
            if t_next is not None and t_ns != t_next:
                raise ConfigError(f"{where}: t_ns {t_ns} is not the next clock "
                                  f"cycle; expected {t_next}")
            t_next = t_ns + CLOCK_PERIOD_NS
            if tr not in (0, 1):
                raise ConfigError(f"{where}: trigger {tr} must be a bit")
            samples.append(sample)
            triggers.append(tr)
    if not samples:
        raise ConfigError(f"{path}: no samples")
    return samples, triggers


def cmd_simulate_pipeline(args) -> int:
    cfg, _ = _load(args.config)
    if args.input:
        samples, triggers = _parse_adc_csv(args.input)
    else:
        # noiseless single readout with the state held; the ADC data lane
        # runs SYNC_DEPTH cycles behind the trigger lane, as in hardware
        if args.ticks <= SYNC_DEPTH + 2:
            raise ConfigError(f"--ticks must exceed {SYNC_DEPTH + 2}")
        device = replace(cfg.device, noise_sigma=0.0)
        n_source = args.ticks - SYNC_DEPTH
        schedule, trajectory = held_state_readout(
            STATE_E if args.state == "e" else STATE_G, n_source)
        stream = synthesize_adc_stream(device, schedule, trajectory)
        samples = [FxpSample(r, ADC_WIDTH) for r in stream.raw.tolist()]
        triggers = stream.triggers.tolist()
        if stream.saturated_count:
            print(f"warning: ADC clipped {stream.saturated_count} of "
                  f"{n_source} synthesized samples", file=sys.stderr)
    state = PipelineState(cfg.pipeline)
    text = dump_trace(run_stream(cfg.pipeline, samples, triggers, state))
    if args.out:
        _write_text(Path(args.out), text)
    else:
        sys.stdout.write(text)
    latched = {"preprocessed i_t": state.overflow["i_t"],
               "preprocessed q_t": state.overflow["q_t"],
               "moving-average re branch": state.ma_re.overflow,
               "moving-average im branch": state.ma_im.overflow}
    for name, flag in latched.items():
        if flag:
            print(f"warning: {name} saturated; its overflow flag latched",
                  file=sys.stderr)
    return 0


def cmd_latency_report(args) -> int:
    pipe = PipelineConfig(delay=args.delay_cycles)
    trigger_to_fb = trigger_to_fb_delay(pipe)
    if args.json:
        doc = {
            **budget_summary(),
            "trigger_to_fb_ns": trigger_to_fb,
            "integration_delay_cycles": integration_delay_setting(BUDGET["tau_ro"][0]),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(budget_report()
              + f"trigger to fb at d = {pipe.delay}: {trigger_to_fb:.1f} ns")
    return 0


def cmd_calibrate_noise(args) -> int:
    cfg, target = _load(args.config)
    if args.target is not None:
        target = args.target / 100.0
    if target is None:
        target = 0.03
    sigma = calibrate_noise(target, cfg)
    verified = overlap_probability(cfg.with_noise_sigma(sigma))
    if args.json:
        print(json.dumps({"target": target, "noise_sigma_volts": sigma,
                          "verified_overlap": verified}, indent=2))
    else:
        print(f"noise sigma = {1000 * sigma:.4f} mV "
              f"(overlap {100 * verified:.3f}%, target {100 * target:.3f}%)")
    return 0


def cmd_optimize_threshold(args) -> int:
    cfg, target = _load(args.config)
    cfg = run_config.resolve_noise(cfg, target)
    best = optimize_threshold(cfg, jobs=args.jobs)
    if args.json:
        print(json.dumps({"threshold_volts": best,
                          "configured_volts": cfg.threshold_volts}, indent=2))
    else:
        print(f"optimal threshold = {1000 * best:.4f} mV "
              f"(configured {1000 * cfg.threshold_volts:.4f} mV)")
    return 0


def cmd_readout_fidelity(args) -> int:
    cfg, target = _load(args.config)
    cfg = run_config.resolve_noise(cfg, target)
    fid = readout_fidelity(cfg, jobs=args.jobs)
    if args.json:
        print(json.dumps(asdict(fid), indent=2))
    else:
        print(f"F_r = {100 * fid.f_r:.3f}%")
        print(f"  P[e | no pulse] = {100 * fid.p_e_no_pulse:.3f}%")
        print(f"  P[g | pi pulse] = {100 * fid.p_g_pi_pulse:.3f}%")
        print(f"  budget: 2 P_therm = {200 * fid.p_therm:.3f}%, "
              f"P_decay = {100 * fid.p_decay:.3f}%, "
              f"P_overlap = {100 * fid.p_overlap:.3f}%")
        print(f"  identity gap = {100 * fid.identity_gap:.3f}%")
    return 0


_COMMANDS = {
    "simulate-pipeline": cmd_simulate_pipeline,
    "run-experiment": cmd_run_experiment,
    "latency-report": cmd_latency_report,
    "calibrate-noise": cmd_calibrate_noise,
    "optimize-threshold": cmd_optimize_threshold,
    "readout-fidelity": cmd_readout_fidelity,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, ValueError) as exc:
        # a ConfigError (a ValueError) holds one problem a line
        for line in str(exc).split("\n"):
            print(f"error: {line}", file=sys.stderr)
        return 1
    except (CalibrationError, MemoryError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
