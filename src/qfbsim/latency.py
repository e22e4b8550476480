"""Feedback-latency bookkeeping.

Composes the end-to-end feedback latency out of its measured
contributions, exposes the trigger-to-feedback delay of the digital
chain as a function of the programmable delay setting, and converts
cable group delay to physical length.  All durations are in
nanoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CLOCK_PERIOD_NS = 10.0
SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class LatencyBudget:
    """Feedback-latency contributions and their uncertainties (ns).

    tau_awg is not directly measured; the default is the value forced
    by closing the electronic-delay sum, and awg_inferred marks it so
    reports can flag it.
    """

    tau_proc: float = 30.0
    tau_adcdio: float = 80.0
    tau_awg: float = 40.0
    tau_g: float = 69.0
    tau_ro: float = 105.0
    tau_ap: float = 28.0
    u_proc: float = 0.0
    u_adcdio: float = 3.0
    u_awg: float = 0.0
    u_g: float = 7.0
    u_ro: float = 2.0
    u_ap: float = 0.0
    awg_inferred: bool = True

    def __post_init__(self) -> None:
        for name, value in self.components().items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        for name, value in self.uncertainties().items():
            if value < 0:
                raise ValueError(f"uncertainty {name} must be non-negative")
        if self.tau_proc % CLOCK_PERIOD_NS != 0:
            raise ValueError("tau_proc must be a whole number of clock cycles")

    def components(self) -> dict[str, float]:
        return {
            "tau_proc": self.tau_proc,
            "tau_adcdio": self.tau_adcdio,
            "tau_awg": self.tau_awg,
            "tau_g": self.tau_g,
            "tau_ro": self.tau_ro,
            "tau_ap": self.tau_ap,
        }

    def uncertainties(self) -> dict[str, float]:
        return {
            "tau_proc": self.u_proc,
            "tau_adcdio": self.u_adcdio,
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
    value = budget.tau_proc + budget.tau_adcdio + budget.tau_awg + budget.tau_g
    unc = _quadrature((budget.u_proc, budget.u_adcdio, budget.u_awg, budget.u_g))
    return value, unc


def total_feedback_latency(budget: LatencyBudget) -> tuple[float, float]:
    """Readout-pulse start to conditional-pulse completion, with the
    component uncertainties combined in quadrature."""
    el, el_unc = tau_eltot(budget)
    value = el + budget.tau_ro + budget.tau_ap
    unc = _quadrature((el_unc, budget.u_ro, budget.u_ap))
    return value, unc


def trigger_to_fb_delay(d: int, budget: LatencyBudget | None = None) -> float:
    """Trigger input to feedback output for delay setting d (cycles).

    The chain is the ADC/digital-IO transport plus the fixed digital
    processing; each extra delay cycle beyond the first adds one clock
    period.
    """
    if d < 1:
        raise ValueError("delay setting must be at least 1")
    if budget is None:
        budget = LatencyBudget()
    return budget.tau_adcdio + budget.tau_proc + (d - 1) * CLOCK_PERIOD_NS


def cable_length(tau_g_ns: float, eps_eff: float) -> float:
    """Cable length (m) from group delay and effective dielectric constant."""
    if eps_eff < 1.0:
        raise ValueError("eps_eff must be at least 1")
    if tau_g_ns < 0:
        raise ValueError("group delay must be non-negative")
    return tau_g_ns * 1e-9 * SPEED_OF_LIGHT / math.sqrt(eps_eff)


def integration_delay_setting(tau_ro_ns: float) -> int:
    """Largest delay setting d whose d * 10 ns span fits inside the
    readout duration, so integration never outlasts the pulse."""
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
    lines.append(f"delay setting for tau_ro: d = {integration_delay_setting(budget.tau_ro)}"
                 f" (d * 10 ns = {integration_delay_setting(budget.tau_ro) * 10} ns)")
    return "\n".join(lines) + "\n"
