"""Feedback-latency bookkeeping.

Composes the end-to-end feedback latency out of its contributions.  All
durations are in nanoseconds.  The digital terms and the trigger-to-feedback delay come
from the cycle-accurate machine in qfbsim.pipeline; the converter
latency tau_adc is the one analog term of the digital chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .pipeline import (
    CLOCK_PERIOD_NS,
    PROC_CYCLES,
    SYNC_DEPTH,
    PipelineConfig,
    trigger_to_eval_cycles,
)

@dataclass(frozen=True)
class LatencyBudget:
    """Analog feedback-latency contributions and their uncertainties (ns).

    tau_awg is not directly measured; the default is the value forced
    by closing the electronic-delay sum, and awg_inferred marks it so
    reports can flag it.
    """

    tau_adc: float = 10.0
    tau_awg: float = 40.0
    tau_g: float = 69.0
    tau_ro: float = 105.0
    tau_ap: float = 28.0
    u_adc: float = 3.0
    u_awg: float = 0.0
    u_g: float = 7.0
    u_ro: float = 2.0
    u_ap: float = 0.0
    awg_inferred: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name != "awg_inferred" and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")

    def components(self) -> dict[str, float]:
        """Every contribution.  tau_proc is the PROC_CYCLES processing
        registers; tau_adcdio is the converter, the SYNC_DEPTH-clock ADC
        link and the registered fb output."""
        clock = float(CLOCK_PERIOD_NS)
        return {
            "tau_proc": PROC_CYCLES * clock,
            "tau_adcdio": self.tau_adc + (SYNC_DEPTH + 1) * clock,
            "tau_awg": self.tau_awg,
            "tau_g": self.tau_g,
            "tau_ro": self.tau_ro,
            "tau_ap": self.tau_ap,
        }

    def uncertainties(self) -> dict[str, float]:
        return {
            "tau_proc": 0.0,  # whole clock cycles
            "tau_adcdio": self.u_adc,
            "tau_awg": self.u_awg,
            "tau_g": self.u_g,
            "tau_ro": self.u_ro,
            "tau_ap": self.u_ap,
        }


def _quadrature(values) -> float:
    return math.sqrt(sum(v * v for v in values))


def tau_eltot(budget: LatencyBudget) -> tuple[float, float]:
    """Total electronic delay: everything between pulse arrival at the
    ADC and the actuator pulse leaving the generator."""
    comp, unc = budget.components(), budget.uncertainties()
    names = ("tau_proc", "tau_adcdio", "tau_awg", "tau_g")
    return sum(comp[n] for n in names), _quadrature(unc[n] for n in names)


def total_feedback_latency(budget: LatencyBudget) -> tuple[float, float]:
    """Readout-pulse start to conditional-pulse completion, with the
    component uncertainties combined in quadrature."""
    el, el_unc = tau_eltot(budget)
    value = el + budget.tau_ro + budget.tau_ap
    unc = _quadrature((el_unc, budget.u_ro, budget.u_ap))
    return value, unc


def budget_summary(budget: LatencyBudget) -> dict:
    """Components, uncertainties and both totals, as reports print them."""
    el, el_u = tau_eltot(budget)
    fb, fb_u = total_feedback_latency(budget)
    return {
        "components_ns": budget.components(),
        "uncertainties_ns": budget.uncertainties(),
        "tau_eltot_ns": [el, el_u],
        "tau_fb_ns": [fb, fb_u],
    }


def trigger_to_fb_delay(pipeline: PipelineConfig,
                        budget: LatencyBudget | None = None) -> float:
    """Analog input to registered feedback output, as the machine times it.

    The converter latency, then the clock cycles from the trigger edge
    to the evaluation tick, plus the one that registers fb.
    """
    if budget is None:
        budget = LatencyBudget()
    return budget.tau_adc + (trigger_to_eval_cycles(pipeline) + 1) * CLOCK_PERIOD_NS


def integration_delay_setting(tau_ro_ns: float) -> int:
    """Largest delay setting d whose span of d clock periods fits inside
    the readout duration, so integration never outlasts the pulse."""
    return max(1, int(tau_ro_ns // CLOCK_PERIOD_NS))


def budget_report(budget: LatencyBudget) -> str:
    """Plain-text component table with totals, for the CLI."""
    lines = ["component      value_ns  unc_ns  note"]
    notes = {"tau_awg": "inferred" if budget.awg_inferred else ""}
    for name, value in budget.components().items():
        unc = budget.uncertainties()[name]
        lines.append(f"{name:<14} {value:8.1f} {unc:7.1f}  {notes.get(name, '')}".rstrip())
    el, el_u = tau_eltot(budget)
    fb, fb_u = total_feedback_latency(budget)
    lines.append(f"{'tau_eltot':<14} {el:8.1f} {el_u:7.1f}  subtotal")
    lines.append(f"{'tau_fb':<14} {fb:8.1f} {fb_u:7.1f}  total")
    d = integration_delay_setting(budget.tau_ro)
    lines.append(f"delay setting for tau_ro: d = {d}"
                 f" (d * {CLOCK_PERIOD_NS} ns = {d * CLOCK_PERIOD_NS} ns)")
    return "\n".join(lines) + "\n"
