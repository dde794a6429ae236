"""The product imports no numpy and no scipy.

Every suite circuit is drawn from :mod:`repro.rng`, so a fresh
interpreter that loads the CLI, the service, the cache, the verifier and
the suite, then maps a circuit with both algorithms, must end with
neither package in ``sys.modules``, installed or not.  The check runs in
a subprocess because the test process itself may import numpy.
"""

import json
import os
import subprocess
import sys

import repro

SCRIPT = """
import json
import sys

import repro.cache.store
import repro.cli
import repro.serve.service
import repro.verify.equiv
from repro.bench import suite
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn

circuit = suite.build("bbara")
turbomap(circuit)
turbosyn(circuit)
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps(loaded))
"""


def test_mapping_loads_neither_numpy_nor_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
