"""Plain-text run configuration.

The document is a flat list of ``section.key = value`` lines with ``#``
comments.  Every dimensioned quantity carries an explicit unit suffix
(``6.3 MHz``, ``1.4 us``, ``16 mV``, ``114 mK``, ``3 %``); bare numbers
are rejected for those fields so a misplaced magnitude cannot slip
through silently.  Unknown keys are hard errors and all problems are
reported together, not one at a time, each under the document's path.
The document is ASCII: a line holding any other byte is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .experiment import (PI_HALF_INIT, SCENARIOS, ExperimentConfig, calibrate_noise,
                         check_overlap_target)
from .fxp import ConfigError
from .sigmodel import DeviceParams, thermal_population

FREQUENCY_UNITS = {"GHz": 1e9, "MHz": 1e6, "Hz": 1.0}
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
VOLTAGE_UNITS = {"V": 1.0, "mV": 1e-3}
TEMPERATURE_UNITS = {"K": 1.0, "mK": 1e-3}
FRACTION_UNITS = {"%": 1e-2}


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


# the key behind each field a whole-document error can open with; kappa
# and chi hold 2 pi times the value written, and the temperature sets p_therm
_FIELD_KEYS = {field.arg: key if field.scale == 1.0 else f"2 pi * {key}"
               for key, field in SCHEMA.items() if field.arg is not None}
_FIELD_KEYS["p_therm"] = "the thermal population set by device.temperature"


def _split_tokens(value: str) -> list[str]:
    # "3%" and "3 %" are both accepted; other units need no such glue
    if value.endswith("%") and len(value) > 1 and not value[:-1].endswith(" "):
        return [value[:-1].strip(), "%"]
    return value.split()


def integer(text: str) -> int:
    """Read an integer from user text: an optional '-' followed by ASCII
    decimal digits, where leading zeros stay decimal ('010' is 10).
    Anything else, such as '+7', '1_0', ' 7' or '0x10', is a ValueError
    quoting the text.  Every integer a user gives is read here."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text, 10)


def _convert(key: str, value: str):
    """The value of one entry; a ValueError names the key."""
    field = SCHEMA[key]
    if field.kind == "choice":
        if value not in field.choices:
            raise ValueError(f"'{key}' must be one of " + "/".join(field.choices))
        return value
    if field.kind == "int":
        try:
            return integer(value)
        except ValueError:
            raise ValueError(f"'{key}' expects an integer") from None
    # dimensioned quantity: exactly "number unit"
    names = "/".join(field.units)
    tokens = _split_tokens(value)
    if len(tokens) != 2:
        raise ValueError(f"'{key}' needs a unit ({names})")
    number, unit = tokens
    if unit not in field.units:
        raise ValueError(f"'{key}' unit '{unit}' is not one of {names}")
    try:
        magnitude = float(number)
    except ValueError:
        raise ValueError(f"'{key}' value '{number}' is not a number") from None
    return magnitude * field.units[unit] * field.scale


def _build(values: dict, path) -> tuple[ExperimentConfig, float | None]:
    """The run configuration the converted values set.  Its problems are
    those of the document as a whole, so they name the path alone."""
    errors = []
    target = values.get("calibration.noise_overlap_target")
    if target is not None:
        if "device.noise_sigma" in values:
            errors.append("device.noise_sigma and calibration.noise_overlap_target"
                          " are mutually exclusive")
        try:
            check_overlap_target(target)
        except ValueError as exc:
            errors.append(str(exc))

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

    try:
        cfg = ExperimentConfig(device=DeviceParams(**dev_kwargs), **exp_kwargs)
    except ValueError as exc:
        # named by the key the user wrote, not by the field it set
        name, _, rest = str(exc).partition(" ")
        errors.append(f"{_FIELD_KEYS[name]} {rest}" if name in _FIELD_KEYS else str(exc))
    if errors:
        raise ConfigError("\n".join(f"{path}: {e}" for e in errors))
    return cfg, target


def non_ascii_message(line: bytes) -> str | None:
    """None for an ASCII line, else a message naming its first other
    character."""
    if line.isascii():
        return None
    char = next(c for c in line.decode("utf-8", "replace") if not c.isascii())
    return f"non-ASCII character {char!r}; the file must be ASCII"


def load_file(path) -> tuple[ExperimentConfig, float | None]:
    """Parse a config document into a run configuration.

    Returns the configuration and the requested overlap target, or None
    when the noise level was given directly (or left at zero).  All
    problems are raised together as one ConfigError, one a line: a
    fault of one line reads '<path>:<line>: ...', one of the document as
    a whole '<path>: ...'.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    values, seen, errors = {}, set(), []
    for lineno, line in enumerate(data.splitlines(), start=1):
        where = f"{path}:{lineno}"
        message = non_ascii_message(line)
        if message is not None:
            # a unit such as us written with a micro sign: name the
            # spellings the key accepts
            body = line.split(b"#", 1)[0]
            key = body.split(b"=", 1)[0].decode("ascii", "replace").strip()
            units = SCHEMA[key].units if key in SCHEMA else None
            if units and not body.isascii():
                message += f"; '{key}' takes the units " + "/".join(units)
            errors.append(f"{where}: {message}")
            continue
        body = line.decode("ascii").split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"{where}: expected 'section.key = value'")
            continue
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in SCHEMA:
            errors.append(f"{where}: unknown key '{key}'")
        elif key in seen:
            errors.append(f"{where}: duplicate key '{key}'")
        elif not value:
            errors.append(f"{where}: '{key}' has no value")
        else:
            seen.add(key)
            try:
                values[key] = _convert(key, value)
            except ValueError as exc:
                errors.append(f"{where}: {exc}")
    if errors:
        raise ConfigError("\n".join(errors))
    return _build(values, path)


def resolve_noise(cfg: ExperimentConfig,
                  target: float | None) -> ExperimentConfig:
    """Replace the noise level with one calibrated to the overlap target."""
    if target is None:
        return cfg
    return cfg.with_noise_sigma(calibrate_noise(target, cfg))
