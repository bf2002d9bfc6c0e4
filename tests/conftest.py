"""Let the interpreters some tests start import the package from src/.

`pythonpath` in pyproject.toml puts src/ on this process's sys.path only;
the CLI and import-time tests run fresh interpreters, which read
PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
