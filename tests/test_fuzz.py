"""Fuzz test of the command line on generated config documents and ADC CSVs.

Whatever the input, cli.main returns an exit code and lets no exception
escape (pytest turns numpy's RuntimeWarnings into errors, so a warning
counts as one).  A rejected input exits 1 with every stderr line naming
the file at fault: '<path>:<line>: ...' or '<path>: ...'.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qfbsim import cli
from qfbsim.config import SCHEMA

# a valid value of every key, which the strategies below mangle
VALID = {
    "device.f_q": "6.148 GHz",
    "device.kappa": "6.3 MHz",
    "device.chi": "-1.1 MHz",
    "device.t1": "1.4 us",
    "device.temperature": "114 mK",
    "device.amp_ss": "600 mV",
    "device.noise_sigma": "60 mV",
    "device.offset_i": "13 mV",
    "device.offset_q": "0 mV",
    "calibration.noise_overlap_target": "3 %",
    "pipeline.window_len": "4",
    "pipeline.delay": "10",
    "pipeline.scale_shift": "3",
    "experiment.scenario": "thermal_init",
    "experiment.repetitions": "4096",
    "experiment.master_seed": "11",
    "experiment.threshold": "16 mV",
}
# numbers, and spellings of them that some parser might take
NUMBERS = ["0", "-0", "7", "-7", "010", "1_0", "+7", " 7", "0x10", "٣",
           "1e300", "-1e300", "1.7e308", "1e-300", "nan", "inf", "-inf", "", "-",
           "99999999999999999999", "4.5"]
UNITS = ["GHz", "MHz", "Hz", "s", "ms", "us", "ns", "V", "mV", "K", "mK", "%",
         "", "mv", "µs"]


def test_every_key_has_a_valid_value():
    assert VALID.keys() == SCHEMA.keys()


def _mangled(valid: str):
    number, _, unit = valid.partition(" ")
    return st.one_of(
        st.sampled_from(NUMBERS).map(lambda n: f"{n} {unit}".rstrip()),
        st.sampled_from(UNITS).map(lambda u: f"{number} {u}".rstrip()),
        st.sampled_from(NUMBERS),
        st.text(max_size=6),
    )


@st.composite
def documents(draw) -> bytes:
    keys = draw(st.lists(st.sampled_from(sorted(VALID)), unique=True, max_size=6))
    values = {key: VALID[key] for key in keys}
    for key in draw(st.lists(st.sampled_from(sorted(VALID)), unique=True,
                             max_size=2)):
        values[key] = draw(_mangled(VALID[key]))
    lines = [f"{key} = {value}".encode("utf-8")
             for key, value in values.items()]
    # an unknown key, or stray bytes, at some line
    for extra in draw(st.lists(st.one_of(
            st.sampled_from([b"device.nope = 1 V", b"no equals", b"= 3",
                             b"device.t1 = 1.4 us # \xb5", b"\xff\xfe",
                             b"device.t1 1.4 us"]),
            st.binary(max_size=8)), max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return b"\n".join(lines) + b"\n"


@st.composite
def adc_csvs(draw) -> bytes:
    t0 = 10 * draw(st.integers(-3, 3))
    rows = [[str(t0 + 10 * n), str(raw), str(tr)] for n, (raw, tr) in enumerate(
        draw(st.lists(st.tuples(st.integers(-8192, 8191), st.integers(0, 1)),
                      max_size=40)))]
    if rows and draw(st.booleans()):
        row = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, 2))
        rows[row][column] = draw(st.one_of(st.sampled_from(NUMBERS),
                                           st.integers().map(str)))
    lines = [",".join(row).encode("utf-8") for row in rows]
    if draw(st.booleans()):
        lines.insert(0, b"t_ns,raw,tr")
    if lines and draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] += draw(st.binary(max_size=2))
    return b"\n".join(lines) + b"\n"


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # the argument parser's usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(doc=documents(), csv=adc_csvs())
def test_the_command_line_survives_any_document_and_csv(doc, csv):
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, csv_path = Path(tmp) / "run.cfg", Path(tmp) / "adc.csv"
        doc_path.write_bytes(doc)
        csv_path.write_bytes(csv)
        faulty = re.escape(str(doc_path)) + "|" + re.escape(str(csv_path))
        for argv in (["calibrate-noise", "--config", str(doc_path)],
                     ["simulate-pipeline", "--config", str(doc_path),
                      "--input", str(csv_path)],
                     ["run-experiment", "--config", str(doc_path),
                      "--repetitions", "64", "--jobs", "1",
                      "--out-dir", str(Path(tmp) / "out")]):
            code, err = _main(argv)
            assert code in (0, 1, 2), (argv[0], code, err)
            if code == 2:
                # a well-formed document whose device leaves no g/e
                # separation (amp_ss = 0 V, t1 = 1 ns, ...): the noise
                # calibration fails at run time, as documented
                assert re.fullmatch(r"runtime error: [^\n]*\n", err), err
            if code == 1:
                lines = err.splitlines()
                assert lines, argv[0]
                for line in lines:
                    assert re.match(rf"error: ({faulty})(:\d+)?: ", line), line
