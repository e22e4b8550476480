"""Plain-text run configuration.

The document is a flat list of ``section.key = value`` lines with ``#``
comments.  Every dimensioned quantity carries an explicit unit suffix
(``6.3 MHz``, ``1.4 us``, ``16 mV``, ``114 mK``, ``3 %``); bare numbers
are rejected for those fields so a misplaced magnitude cannot slip
through silently.  Unknown keys are hard errors and all problems are
reported together, not one at a time.  The document is ASCII: a line
holding any other byte is reported by its path and line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .experiment import ExperimentConfig, PI_HALF_INIT, SCENARIOS, calibrate_noise
from .fxp import ConfigError
from .sigmodel import DeviceParams, thermal_population

FREQUENCY_UNITS = {"GHz": 1e9, "MHz": 1e6, "Hz": 1.0}
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
VOLTAGE_UNITS = {"V": 1.0, "mV": 1e-3}
TEMPERATURE_UNITS = {"K": 1.0, "mK": 1e-3}
FRACTION_UNITS = {"%": 1e-2}


class ConfigFileError(ValueError):
    """Carries the full list of problems found in a config document."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class _Field:
    units: dict | None = None      # unit table for dimensioned quantities
    kind: str = "quantity"         # quantity | int | choice
    choices: tuple = ()
    arg: str | None = None         # DeviceParams/ExperimentConfig argument it sets
    scale: float = 1.0             # applied after the unit


# device.* rows set DeviceParams, the others ExperimentConfig; a row with
# no arg is read by _build itself
SCHEMA = {
    "device.f_q": _Field(FREQUENCY_UNITS, arg="f_q"),
    # the linewidth and the dispersive shift are given as kappa / 2 pi
    # and chi / 2 pi
    "device.kappa": _Field(FREQUENCY_UNITS, arg="kappa", scale=2.0 * math.pi),
    "device.chi": _Field(FREQUENCY_UNITS, arg="chi", scale=2.0 * math.pi),
    "device.t1": _Field(TIME_UNITS, arg="t1"),
    "device.temperature": _Field(TEMPERATURE_UNITS),    # sets p_therm
    "device.amp_ss": _Field(VOLTAGE_UNITS, arg="amp_ss"),
    "device.noise_sigma": _Field(VOLTAGE_UNITS, arg="noise_sigma"),
    "device.offset_i": _Field(VOLTAGE_UNITS, arg="offset_i"),
    "device.offset_q": _Field(VOLTAGE_UNITS, arg="offset_q"),
    "calibration.noise_overlap_target": _Field(FRACTION_UNITS),
    "pipeline.window_len": _Field(kind="int", arg="window_len"),
    "pipeline.delay": _Field(kind="int", arg="delay"),
    "pipeline.scale_shift": _Field(kind="int", arg="scale_shift"),
    "experiment.scenario": _Field(kind="choice", choices=SCENARIOS, arg="scenario"),
    "experiment.repetitions": _Field(kind="int", arg="repetitions"),
    "experiment.master_seed": _Field(kind="int", arg="master_seed"),
    "experiment.threshold": _Field(VOLTAGE_UNITS, arg="threshold_volts"),
}


def _split_tokens(value: str) -> list[str]:
    # "3%" and "3 %" are both accepted; other units need no such glue
    if value.endswith("%") and len(value) > 1 and not value[:-1].endswith(" "):
        return [value[:-1].strip(), "%"]
    return value.split()


def parse_document(text: str) -> dict[str, tuple[int, str]]:
    """Structural pass: line grammar, known keys, duplicates."""
    entries: dict[str, tuple[int, str]] = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"line {lineno}: expected 'section.key = value'")
            continue
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in SCHEMA:
            errors.append(f"line {lineno}: unknown key '{key}'")
            continue
        if key in entries:
            errors.append(f"line {lineno}: duplicate key '{key}'")
            continue
        if not value:
            errors.append(f"line {lineno}: '{key}' has no value")
            continue
        entries[key] = (lineno, value)
    if errors:
        raise ConfigFileError(errors)
    return entries


def _convert(key: str, lineno: int, value: str, errors: list):
    field = SCHEMA[key]
    if field.kind == "choice":
        if value not in field.choices:
            errors.append(f"line {lineno}: '{key}' must be one of "
                          + "/".join(field.choices))
            return None
        return value
    if field.kind == "int":
        try:
            return int(value, 10)
        except ValueError:
            errors.append(f"line {lineno}: '{key}' expects an integer")
            return None
    # dimensioned quantity: exactly "number unit"
    names = "/".join(field.units)
    tokens = _split_tokens(value)
    if len(tokens) != 2:
        errors.append(f"line {lineno}: '{key}' needs a unit ({names})")
        return None
    number, unit = tokens
    if unit not in field.units:
        errors.append(f"line {lineno}: '{key}' unit '{unit}' is not one of {names}")
        return None
    try:
        magnitude = float(number)
    except ValueError:
        errors.append(f"line {lineno}: '{key}' value '{number}' is not a number")
        return None
    return magnitude * field.units[unit] * field.scale


def _build(values: dict) -> tuple[ExperimentConfig, float | None]:
    errors = []
    if "device.noise_sigma" in values and "calibration.noise_overlap_target" in values:
        errors.append("device.noise_sigma and calibration.noise_overlap_target"
                      " are mutually exclusive")

    # a document without experiment.scenario runs the pi/2 scenario
    dev_kwargs, exp_kwargs = {}, {"scenario": PI_HALF_INIT}
    for key, value in values.items():
        arg = SCHEMA[key].arg
        if arg is not None:
            kwargs = dev_kwargs if key.startswith("device.") else exp_kwargs
            kwargs[arg] = value
    if "device.temperature" in values:
        f_q = dev_kwargs.get("f_q", DeviceParams.__dataclass_fields__["f_q"].default)
        try:
            dev_kwargs["p_therm"] = thermal_population(
                values["device.temperature"], f_q)
        except ValueError as exc:
            errors.append(f"device.temperature: {exc}")

    device = None
    try:
        device = DeviceParams(**dev_kwargs)
    except (ConfigError, ValueError) as exc:
        errors.append(str(exc))

    cfg = None
    if device is not None:
        try:
            cfg = ExperimentConfig(device=device, **exp_kwargs)
        except (ConfigError, ValueError) as exc:
            errors.append(str(exc))

    if errors:
        raise ConfigFileError(errors)
    return cfg, values.get("calibration.noise_overlap_target")


def load_text(text: str) -> tuple[ExperimentConfig, float | None]:
    """Parse a config document into a run configuration.

    Returns the configuration and the requested overlap target, or None
    when the noise level was given directly (or left at zero).
    """
    entries = parse_document(text)
    errors: list[str] = []
    values = {}
    for key, (lineno, raw) in entries.items():
        converted = _convert(key, lineno, raw, errors)
        if converted is not None:
            values[key] = converted
    if errors:
        raise ConfigFileError(errors)
    return _build(values)


def non_ascii_message(line: bytes) -> str | None:
    """None for an ASCII line, else a message naming its first other
    character."""
    if line.isascii():
        return None
    char = next(c for c in line.decode("utf-8", "replace") if not c.isascii())
    return f"non-ASCII character {char!r}; the file must be ASCII"


def load_file(path) -> tuple[ExperimentConfig, float | None]:
    with open(path, "rb") as fh:
        data = fh.read()
    errors = []
    for lineno, line in enumerate(data.splitlines(), start=1):
        message = non_ascii_message(line)
        if message is not None:
            # a unit such as us written with a micro sign: name the
            # spellings the key accepts
            body = line.split(b"#", 1)[0]
            key = body.split(b"=", 1)[0].decode("ascii", "replace").strip()
            units = SCHEMA[key].units if key in SCHEMA else None
            if units and not body.isascii():
                message += f"; '{key}' takes the units " + "/".join(units)
            errors.append(f"{path}:{lineno}: {message}")
    if errors:
        raise ConfigFileError(errors)
    return load_text(data.decode("ascii"))


def resolve_noise(cfg: ExperimentConfig,
                  target: float | None) -> ExperimentConfig:
    """Replace the noise level with one calibrated to the overlap target."""
    if target is None:
        return cfg
    return cfg.with_noise_sigma(calibrate_noise(target, cfg))
