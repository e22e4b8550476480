"""Spans recorded around the calls into qfbsim's modules, from outside.

The tracer replaces module and class attributes that qfbsim looks up at
call time with thin wrappers, records one span per call (name, start,
end, parent span, iteration id, optional counts) in memory, and puts
every original attribute back when the traced block ends.  Nothing in
qfbsim itself changes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from statistics import median

import numpy as np

# Stage spans inside one Monte Carlo chunk.  A call under
# noiseless_filtered_means (calibration) shares the wrapped attribute but
# counts toward calibration, so these metrics only take spans whose
# ancestry contains a chunk span.
CHUNK = "experiment.chunk"
CHUNK_STAGES = ("experiment.sample_jumps", "experiment.envelope",
                "experiment.waveform", "sigmodel.quantize",
                "pipeline.run_stream_batch")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    iteration: int
    start: float
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ReadProbe(np.ndarray):
    """View of a BatchTrace field that records the tick columns indexed."""

    def __getitem__(self, key):
        ticks = self.shape[1]
        col = key[1] if isinstance(key, tuple) and len(key) == 2 else slice(None)
        if isinstance(col, (int, np.integer)):
            self._read.add(int(col) % ticks)
        elif isinstance(col, slice):
            self._read.update(range(*col.indices(ticks)))
        else:
            self._read.update(range(ticks))
        return np.asarray(super().__getitem__(key))


def _probe_batch_trace(result, read: set):
    """Swap the (reps, ticks) fields of a BatchTrace for read probes."""
    if not dataclasses.is_dataclass(result):
        return result
    fields = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray) and value.ndim == 2:
            probe = value.view(_ReadProbe)
            probe._read = read
            fields[f.name] = probe
    return dataclasses.replace(result, **fields)


class Tracer:
    """In-memory span recorder; install() wraps, the context exit restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.iteration,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        count(span, args, kwargs, result) may fill span.counts and return
        a replacement result; it runs after the span has closed.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            s = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(s)
            if count is not None:
                result = count(s, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, modules):
        try:
            install(self, modules)
            yield self
        finally:
            self.restore()


# -- what gets wrapped --------------------------------------------------------


def _count_quantize(span, args, kwargs, result):
    span.counts["samples"] = int(np.size(args[0]))
    span.counts["clipped"] = int(result[1])
    return result


def _count_batch(span, args, kwargs, result):
    raw = np.asarray(args[1])
    span.counts["ticks"] = int(raw.size)
    span.counts["reps"] = int(raw.shape[0])
    read = span.counts["read_cols"] = set()
    return _probe_batch_trace(result, read)


def _count_columns(span, args, kwargs, result):
    span.counts["columns"] = len(result)
    return result


def _count_addresses(span, args, kwargs, result):
    span.counts["updates"] = int(np.size(args[1]))
    return result


def _count_cycles(span, args, kwargs, result):
    span.counts["cycles"] = len(result)
    return result


def install(tracer: Tracer, m) -> None:
    """Wrap the attributes qfbsim resolves at call time.

    m maps module names ("cli", "config", "experiment", "histo") to the
    imported modules.
    """
    exp, cli, cfg, histo = m["experiment"], m["cli"], m["config"], m["histo"]
    w = tracer.wrap
    w(cfg, "load_file", "config.load")
    w(cfg, "resolve_noise", "config.resolve_noise")
    w(cfg, "calibrate_noise", "experiment.calibrate_noise")
    w(cli, "calibrate_noise", "experiment.calibrate_noise")
    w(cli, "run_feedback_comparison", "experiment.feedback_comparison")
    w(cli, "run_stream", "pipeline.run_stream", _count_cycles)
    w(cli, "dump_trace", "pipeline.dump_trace")
    w(cli, "synthesize_adc_stream", "sigmodel.synthesize")
    w(exp, "_run_mc", "experiment.run_mc")
    w(exp, "_run_chunk", CHUNK)
    w(exp, "_sample_jump_columns", "experiment.sample_jumps", _count_columns)
    w(exp._EnvelopeFiller, "run_segment", "experiment.envelope")
    w(exp, "_waveform_volts", "experiment.waveform")
    w(exp, "quantize_array", "sigmodel.quantize", _count_quantize)
    w(exp, "run_stream_batch", "pipeline.run_stream_batch", _count_batch)
    w(exp, "noiseless_filtered_means", "experiment.noiseless_means")
    w(exp, "oracle_probabilities", "experiment.oracle")
    w(histo.HistogramRam, "update_addresses", "histo.update_addresses",
      _count_addresses)
    for attr in ("dump_bytes", "marginal_i1", "marginal_i2", "joint_i1_i2"):
        w(histo.HistogramRam, attr, "histo.output")


# -- per-layer metrics from one iteration's spans -----------------------------


class _Index:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        # spans are recorded in open order, so a parent precedes its children
        self.above: dict[int, frozenset] = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)
            parent = self.by_id.get(s.parent)
            self.above[s.id] = (self.above[parent.id] | {parent.name}
                                if parent else frozenset())

    def select(self, name: str, within: str | None = None) -> list[Span]:
        """Outermost spans of this name, optionally under a `within` span."""
        return [s for s in self.spans
                if s.name == name and name not in self.above[s.id]
                and (within is None or within in self.above[s.id])]

    def self_time(self, s: Span) -> float:
        return s.duration - sum(c.duration for c in self.children.get(s.id, ()))


def iteration_metrics(spans: list[Span]) -> dict:
    """Layer times (host seconds) and counts for one traced iteration."""
    ix = _Index(spans)

    def total(name, within=None):
        return sum(s.duration for s in ix.select(name, within))

    def count(name, key, within=None):
        return sum(s.counts.get(key, 0) for s in ix.select(name, within))

    chunks = ix.select(CHUNK)
    batches = ix.select("pipeline.run_stream_batch", CHUNK)
    ticks = count("pipeline.run_stream_batch", "ticks", CHUNK)
    read = sum(s.counts["reps"] * len(s.counts["read_cols"]) for s in batches)
    comparisons = ix.select("experiment.feedback_comparison")
    comparison_s = sum(s.duration for s in comparisons)
    accounted = (sum(total(n, CHUNK) for n in CHUNK_STAGES)
                 + sum(ix.self_time(s) for s in chunks)
                 + total("histo.update_addresses", "experiment.feedback_comparison")
                 + total("experiment.oracle", "experiment.feedback_comparison"))
    return {
        "experiment.envelope_s": total("experiment.envelope", CHUNK),
        "experiment.envelope_calls": len(ix.select("experiment.envelope", CHUNK)),
        "experiment.samples_synthesized": count("sigmodel.quantize", "samples", CHUNK),
        "experiment.sample_jumps_s": total("experiment.sample_jumps", CHUNK),
        "experiment.jump_columns": count("experiment.sample_jumps", "columns", CHUNK),
        "experiment.waveform_s": total("experiment.waveform", CHUNK),
        "experiment.chunk_self_s": sum(ix.self_time(s) for s in chunks),
        "experiment.chunk_count": len(chunks),
        "experiment.chunk_sum_s": sum(s.duration for s in chunks),
        "sigmodel.quantize_s": total("sigmodel.quantize", CHUNK),
        "sigmodel.adc_clipped": count("sigmodel.quantize", "clipped", CHUNK),
        "pipeline.run_stream_batch_s": total("pipeline.run_stream_batch", CHUNK),
        "pipeline.batch_calls": len(batches),
        "pipeline.ticks_computed": ticks,
        "pipeline.useful_tick_ratio": read / ticks if ticks else 0.0,
        "experiment.noiseless_means_calls": len(ix.select("experiment.noiseless_means")),
        "experiment.noiseless_means_s": total("experiment.noiseless_means"),
        "experiment.calibrate_noise_s": total("experiment.calibrate_noise"),
        "experiment.oracle_s": total("experiment.oracle"),
        "experiment.run_mc_s": total("experiment.run_mc"),
        "experiment.feedback_comparison_s": comparison_s,
        "experiment.comparison_accounted_ratio":
            accounted / comparison_s if comparison_s else 0.0,
        "histo.update_addresses_s": total("histo.update_addresses"),
        "histo.updates": count("histo.update_addresses", "updates"),
        "histo.output_s": total("histo.output"),
        "pipeline.run_stream_s": total("pipeline.run_stream"),
        "pipeline.cycles": count("pipeline.run_stream", "cycles"),
        "pipeline.dump_trace_s": total("pipeline.dump_trace"),
        "sigmodel.synthesize_s": total("sigmodel.synthesize"),
        "config.load_s": total("config.load"),
        "config.resolve_noise_s": total("config.resolve_noise"),
        "cli.self_s": sum(ix.self_time(s) for s in ix.select("cli.main")),
    }


def median_metrics(per_iteration: list[dict]) -> dict:
    """Median over iterations; a value every iteration shares is kept as is."""
    out = {}
    for k in per_iteration[0]:
        values = [d[k] for d in per_iteration]
        out[k] = values[0] if len(set(values)) == 1 else median(values)
    return out


def span_records(spans: list[Span]):
    for s in spans:
        counts = {k: (sorted(v) if isinstance(v, set) else v)
                  for k, v in s.counts.items()}
        yield {"id": s.id, "name": s.name, "parent": s.parent,
               "iteration": s.iteration, "start": s.start, "end": s.end,
               "counts": counts}
