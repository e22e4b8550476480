"""Feedback-latency bookkeeping.

The feedback-latency budget of the measured setup, as one fixed table
of components and their uncertainties, with the totals composed from
it.  All durations are in nanoseconds.  The digital terms and the
trigger-to-feedback delay come from the cycle-accurate machine in
qfbsim.pipeline; the converter latency TAU_ADC is the one analog term
of the digital chain.  tau_awg is not directly measured: its value is
the one forced by closing the electronic-delay sum, and reports flag it
as inferred.
"""

from __future__ import annotations

import math

from .pipeline import (
    CLOCK_PERIOD_NS,
    PROC_CYCLES,
    SYNC_DEPTH,
    PipelineConfig,
    trigger_to_eval_cycles,
)

TAU_ADC = 10.0

# name: (value_ns, uncertainty_ns).  tau_proc is the PROC_CYCLES
# processing registers (whole clock cycles, so exact); tau_adcdio is the
# converter, the SYNC_DEPTH-clock ADC link and the registered fb output.
BUDGET = {
    "tau_proc": (PROC_CYCLES * float(CLOCK_PERIOD_NS), 0.0),
    "tau_adcdio": (TAU_ADC + (SYNC_DEPTH + 1) * float(CLOCK_PERIOD_NS), 3.0),
    "tau_awg": (40.0, 0.0),
    "tau_g": (69.0, 7.0),
    "tau_ro": (105.0, 2.0),
    "tau_ap": (28.0, 0.0),
}


def _quadrature(values) -> float:
    return math.sqrt(sum(v * v for v in values))


def tau_eltot() -> tuple[float, float]:
    """Total electronic delay: everything between pulse arrival at the
    ADC and the actuator pulse leaving the generator."""
    names = ("tau_proc", "tau_adcdio", "tau_awg", "tau_g")
    return (sum(BUDGET[n][0] for n in names),
            _quadrature(BUDGET[n][1] for n in names))


def total_feedback_latency() -> tuple[float, float]:
    """Readout-pulse start to conditional-pulse completion, with the
    component uncertainties combined in quadrature."""
    el, el_unc = tau_eltot()
    (ro, u_ro), (ap, u_ap) = BUDGET["tau_ro"], BUDGET["tau_ap"]
    return el + ro + ap, _quadrature((el_unc, u_ro, u_ap))


def budget_summary() -> dict:
    """Components, uncertainties and both totals, as reports print them."""
    return {
        "components_ns": {n: v for n, (v, _) in BUDGET.items()},
        "uncertainties_ns": {n: u for n, (_, u) in BUDGET.items()},
        "tau_eltot_ns": list(tau_eltot()),
        "tau_fb_ns": list(total_feedback_latency()),
    }


def trigger_to_fb_delay(pipeline: PipelineConfig) -> float:
    """Analog input to registered feedback output, as the machine times it.

    The converter latency, then the clock cycles from the trigger edge
    to the evaluation tick, plus the one that registers fb.
    """
    return TAU_ADC + (trigger_to_eval_cycles(pipeline) + 1) * CLOCK_PERIOD_NS


def integration_delay_setting(tau_ro_ns: float) -> int:
    """Largest delay setting d whose span of d clock periods fits inside
    the readout duration, so integration never outlasts the pulse."""
    return max(1, int(tau_ro_ns // CLOCK_PERIOD_NS))


def budget_report() -> str:
    """Plain-text component table with totals, for the CLI."""
    lines = ["component      value_ns  unc_ns  note"]
    for name, (value, unc) in BUDGET.items():
        note = "inferred" if name == "tau_awg" else ""
        lines.append(f"{name:<14} {value:8.1f} {unc:7.1f}  {note}".rstrip())
    el, el_u = tau_eltot()
    fb, fb_u = total_feedback_latency()
    lines.append(f"{'tau_eltot':<14} {el:8.1f} {el_u:7.1f}  subtotal")
    lines.append(f"{'tau_fb':<14} {fb:8.1f} {fb_u:7.1f}  total")
    d = integration_delay_setting(BUDGET["tau_ro"][0])
    lines.append(f"delay setting for tau_ro: d = {d}"
                 f" (d * {CLOCK_PERIOD_NS} ns = {d * CLOCK_PERIOD_NS} ns)")
    return "\n".join(lines) + "\n"
