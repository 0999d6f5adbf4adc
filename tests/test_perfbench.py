import sys
from pathlib import Path

import cask
import cask.cli  # noqa: F401  (binds every cask module, as perfbench does)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_every_traced_function_exists():
    # A renamed or removed function would make a traced benchmark run exit 2.
    assert tracer.missing_functions(cask) == []
