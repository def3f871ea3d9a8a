"""Child processes that the tests start (`python -m optcoding`, the demos)
import the package from this checkout's `src`, as `pythonpath` in
pyproject.toml makes the test process itself do."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
