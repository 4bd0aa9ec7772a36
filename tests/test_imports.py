import os
import subprocess
import sys
from pathlib import Path

import tailbound

SRC = str(Path(tailbound.__file__).resolve().parent.parent)


def test_scipy_loads_only_where_needed():
    # scipy costs about 75 MiB and half a second to import; bounds on the
    # closed-form laws, the Beta limit included, never need it
    code = (
        "import sys, tailbound as tb\n"
        "assert 'scipy' not in sys.modules\n"
        "tb.hoeffding_limit([tb.Beta(2.0, 3.0)] * 5, 1.0)\n"
        "tb.hoeffding_bound(tb.EnsembleSpec.iid_replicate("
        "tb.moments_uniform(3, 0, 1), 5), 1.0, 3)\n"
        "assert 'scipy' not in sys.modules\n"
        "tb.mills_theta(1.0)\n"
        "assert 'scipy' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
