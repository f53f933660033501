"""Let the ``python -m cobweb`` subprocesses the tests start import the
package from ``src`` without an install, as the in-process imports do."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
