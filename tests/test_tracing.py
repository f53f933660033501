"""The traced benchmark replay must keep working against the library.

``perfbench/tracing.install`` wraps cobweb's public functions by name, so
a renamed or deleted one breaks the traced benchmark; this test notices
that from the tier-1 suite.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import cobweb
from cobweb.cli import main
from tracing import Tracer, install

tracer = Tracer()
install(tracer, cobweb)
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["crosscheck", "--max-n", "2"])
names = [name for name, _ in cobweb.crosscheck.CHECKS]
print(json.dumps({"rc": rc, "names": names, "stats": sorted(tracer.stats)}))
"""


def test_traced_crosscheck_runs_and_times_every_check():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    assert len(result["names"]) == 26
    missing = [n for n in result["names"] if f"crosscheck.check.{n}" not in result["stats"]]
    assert missing == []


LAZY_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import cobweb
from tracing import Tracer, install

install(Tracer(), cobweb)
from cobweb import fib, truncate
print(json.dumps({
    "fib": [fib is cobweb.fib_core.fib, hasattr(fib, "__wrapped__")],
    "truncate": [truncate is cobweb.poset.truncate, hasattr(truncate, "__wrapped__")],
}))
"""


def test_names_imported_after_install_are_the_wrappers():
    # the package resolves its names lazily, so a later `from cobweb import fib` sees the rebinding
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCRIPT, str(PERFBENCH)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"fib": [True, True], "truncate": [True, True]}
