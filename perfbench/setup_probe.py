"""Fresh-process set-up cost of qfbsim, printed in host seconds.

    python3 perfbench/setup_probe.py src/qfbsim/configs/scenario_pi_half.cfg

Times `import qfbsim`, config.load_file and config.resolve_noise (the
noise calibration every Monte Carlo command runs before its first
repetition), starting before the import.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import qfbsim  # noqa: E402,F401
from qfbsim import config  # noqa: E402

cfg, target = config.load_file(sys.argv[1])
config.resolve_noise(cfg, target)
print(time.perf_counter() - START)
