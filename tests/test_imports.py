import os
import subprocess
import sys
from pathlib import Path

import tailbound
from tailbound import special

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


def test_numpy_loads_only_to_sample_or_read_data(tmp_path):
    # numpy is two thirds of a CLI command's import time; bounds, grids and
    # closed-form laws never need it, sampling and sample files do
    data = tmp_path / "values.txt"
    data.write_text("0.2\n0.5\n0.9\n", encoding="utf-8")
    code = (
        "import sys, tailbound as tb\n"
        "from tailbound import cli\n"
        "assert 'numpy' not in sys.modules\n"
        "assert cli.main(['bound', '--family', 'both', '--dist', 'uniform',\n"
        "                 '--n', '10', '--t', '0.5:2:4', '--p', '2,3']) == 0\n"
        "assert cli.main(['compare', '--dist', 'beta', '--params',\n"
        "                 'a=2,b=3', '--n', '10', '--t', '1', '--limit']) == 0\n"
        "assert cli.main(['moments', '--dist', 'uniform']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "mode = sys.argv[1]\n"
        "if mode == 'verify':\n"
        "    assert cli.main(['verify', '--dist', 'uniform', '--n', '2',\n"
        "                     '--t', '0.5', '--trials', '1000']) == 0\n"
        "else:\n"
        "    assert cli.main(['moments', '--data', sys.argv[2],\n"
        "                     '--support', '0,1']) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    for mode in ("verify", "data"):
        proc = subprocess.run([sys.executable, "-c", code, mode, str(data)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, (mode, proc.stderr)


def test_residual_alias_for_the_benchmark_tracer(monkeypatch):
    # perfbench/tracing.py counts residual evaluations by wrapping
    # poly_exp_residual at the old kernel module path, and through it every
    # module that holds the same function, special among them
    alias = sys.modules["tailbound._kernels._pyfallback"]
    assert alias.poly_exp_residual is special.poly_exp_residual
    calls = []

    def counted(alpha, x):
        calls.append(x)
        return alias.poly_exp_residual(alpha, x)

    monkeypatch.setattr(special, "poly_exp_residual", counted)
    special.solve_poly_exp((3.0, 1.0, -0.5))
    assert calls
