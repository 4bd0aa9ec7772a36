import os
import re
import subprocess
import sys
from pathlib import Path

import tailbound
from tailbound import special

SRC = str(Path(tailbound.__file__).resolve().parent.parent)


def test_runs_without_scipy():
    # scipy is not a dependency: with every scipy import failing, the
    # library and each CLI subcommand still run
    code = (
        "import sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'blocked import of {name}')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "import tailbound as tb\n"
        "from tailbound import cli\n"
        "assert 0.0 < tb.mills_theta(1.0) < 0.5\n"
        "z = tb.Uniform(0.0, 2.0).moment_vector(3)\n"
        "assert 0.0 < tb.hoeffding_missing_factor([z] * 4, 0.1, 3).bound <= 1.0\n"
        "for argv in (\n"
        "        ['bound', '--family', 'both', '--dist', 'beta', '--params',\n"
        "         'a=2,b=3', '--n', '10', '--t', '0.5:2:4', '--p', '2,3'],\n"
        "        ['compare', '--dist', 'beta', '--params', 'a=2,b=3',\n"
        "         '--n', '10', '--t', '1', '--limit'],\n"
        "        ['sample-size', '--dist', 'uniform', '--t', '0.1',\n"
        "         '--alpha', '0.05', '--p', '3'],\n"
        "        ['moments', '--dist', 'truncexp', '--p', '5'],\n"
        "        ['verify', '--dist', 'uniform', '--n', '2', '--t', '0.5',\n"
        "         '--trials', '1000']):\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_once():
    names = tailbound.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(tailbound, name), name
    # second names for Law(...).moment_vector(p), and references only the
    # tests read, removed
    for name in ("moments_uniform", "moments_bernoulli", "moments_beta",
                 "moments_point", "v_derivatives", "c_factor_via_derivatives",
                 "exact_mgf"):
        assert not hasattr(tailbound, name), name


def _readme_api() -> dict[str, list[str]]:
    """The names README's API section lists, by module: each bullet is
    "- `module`: `name`, ..." with its continuation lines indented."""
    readme = Path(SRC).parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.partition("\n## API\n")[2].partition("\n## ")[0]
    bullets = re.findall(r"^- `([\w.]+)`: (.*\n?(?:  .*\n?)*)", section,
                         re.MULTILINE)
    return {module: re.findall(r"`(\w+)`", names)
            for module, names in bullets}


def test_readme_lists_each_public_name_once_by_module():
    listed = _readme_api()
    names = [name for module_names in listed.values() for name in module_names]
    assert sorted(names) == sorted(tailbound.__all__)
    for module, module_names in listed.items():
        if module != "tailbound":
            assert sorted(module_names) == sorted(sys.modules[module].__all__), \
                module


def test_numpy_loads_only_to_sample(tmp_path):
    # numpy is two thirds of a CLI command's import time; bounds, grids,
    # closed-form laws and sample files never need it, sampling does
    data = tmp_path / "values.txt"
    data.write_text("0.2\n0.5\n0.9\n", encoding="utf-8")
    code = (
        "import sys, tailbound as tb\n"
        "from tailbound import cli\n"
        "data = sys.argv[1]\n"
        "assert 'numpy' not in sys.modules\n"
        "for argv in (\n"
        "        ['bound', '--family', 'both', '--dist', 'uniform',\n"
        "         '--n', '10', '--t', '0.5:2:4', '--p', '2,3'],\n"
        "        ['compare', '--dist', 'beta', '--params', 'a=2,b=3',\n"
        "         '--n', '10', '--t', '1', '--limit'],\n"
        "        ['moments', '--dist', 'uniform'],\n"
        "        ['bound', '--family', 'both', '--data', data,\n"
        "         '--support=-0.5,1', '--n', '10', '--t', '0.5:2:4',\n"
        "         '--p', '2,3'],\n"
        "        ['bound', '--data', data, '--support=-0.5,1', '--n', '10',\n"
        "         '--t', '0.5:2:4', '--p', '1,2', '--two-sided'],\n"
        "        ['compare', '--data', data, '--support', '0,1', '--n', '10',\n"
        "         '--t', '1', '--p', '3'],\n"
        "        ['sample-size', '--data', data, '--support', '0,1',\n"
        "         '--t', '0.1', '--alpha', '0.05', '--p', '3'],\n"
        "        ['moments', '--data', data, '--support', '0,1', '--p', '3']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
        "assert cli.main(['verify', '--dist', 'uniform', '--n', '2',\n"
        "                 '--t', '0.5', '--trials', '1000']) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, str(data)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_residual_alias_for_the_benchmark_tracer(monkeypatch):
    # perfbench/tracing.py counts residual evaluations by wrapping
    # poly_exp_residual at the old kernel module path, and through it every
    # module that holds the same function, special among them
    alias = sys.modules["tailbound._kernels._pyfallback"]
    assert alias.poly_exp_residual is special.poly_exp_residual
    calls = []

    def counted(coeffs, x):
        calls.append(x)
        return alias.poly_exp_residual(coeffs, x)

    monkeypatch.setattr(special, "poly_exp_residual", counted)
    special.solve_poly_exp((2.0, 2.0, 0.0))
    assert calls


def test_cli_import_loads_no_dataclass_machinery_or_json():
    # dataclasses (with the inspect, ast and dis it imports) and json cost
    # every command time; records are plain slotted classes, and only JSON
    # output loads json
    code = (
        "import sys\n"
        "import tailbound.cli as cli\n"
        "for name in ('dataclasses', 'inspect', 'json'):\n"
        "    assert name not in sys.modules, name\n"
        "assert cli.main(['bound', '--family', 'both', '--dist', 'uniform',\n"
        "                 '--n', '10', '--t', '0.5:2:4', '--p', '2,3',\n"
        "                 '--per-var']) == 0\n"
        "assert 'json' not in sys.modules\n"
        "assert cli.main(['moments', '--dist', 'uniform',\n"
        "                 '--format', 'json']) == 0\n"
        "assert 'json' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
