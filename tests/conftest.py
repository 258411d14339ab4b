"""Let the subprocesses some tests start (``python -m rbed.cli``) import the
package from ``src/`` without an install, as ``pythonpath`` in
``pyproject.toml`` does for the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
