"""One set-up sample: a fresh interpreter imports the stack and makes a first call.

Started by run.py, which times the whole process from spawn to exit.  The
explicit ``scipy.optimize`` import is the one the see-saw polishers make
lazily on their first call.
"""

import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401

import chanbound  # noqa: E402,F401
from chanbound.harness.suites import CampaignConfig, run_suite  # noqa: E402

warnings.simplefilter("ignore")
report = run_suite(CampaignConfig(suite="lemma4", trials=1, seed=int(sys.argv[1])))
if not report.verdicts:
    sys.exit(1)
