"""levyem runs on numpy alone: no command on any family loads scipy, and
every command gives the same exit code when scipy cannot be imported at all.
Importing it loads no thread pool either.  Each of those checks starts its
own fresh interpreter.  Every name the package exports is one the library
itself uses, apart from a short list of documented entry points."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

STABLE_MODEL = "[model]\nfamily = isotropic_stable\nalpha = 1.5\n"


def run_fresh(tmp_path, script):
    """The last line ``script`` prints in a fresh interpreter, read as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(tmp_path, body):
    """The scipy modules loaded once a fresh interpreter has run ``body``."""
    return run_fresh(tmp_path, "import json, sys\nimport levyem, levyem.cli\n" + body
                     + "\nprint(json.dumps(sorted(k for k in sys.modules"
                     " if k.split('.')[0] == 'scipy')))\n")


def run_cli(tmp_path, command, text):
    """Source that runs ``levyem <command>`` on ``text`` and asserts success."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    return (f"assert levyem.cli.main([{command!r}, '--config', {str(cfg)!r}, "
            f"'--out-dir', {str(tmp_path / command)!r}]) == 0")


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after(tmp_path, "") == []


def test_import_loads_no_thread_pool(tmp_path):
    # Monte Carlo paths run serially, so no executor is imported
    loaded = run_fresh(tmp_path, "import json, sys\nimport levyem, levyem.cli\n"
                       "print(json.dumps(sorted(k for k in sys.modules"
                       " if k.split('.')[0] == 'concurrent')))\n")
    assert loaded == []


def test_stable_converge_loads_no_scipy(tmp_path):
    text = (STABLE_MODEL + "[drift]\nname = cos\n[experiment]\np = 1.0\n"
            "n_list = 4,8,16\nn_ref = 128\npaths = 100\nseed = 3\n")
    assert scipy_modules_after(tmp_path, run_cli(tmp_path, "converge", text)) == []


def test_stable_spectral_loads_no_scipy(tmp_path):
    density = STABLE_MODEL + "[density]\nt_list = 0.1,0.2,0.4,0.8\n"
    kolmogorov = (STABLE_MODEL + "[drift]\nname = cos\n[kolmogorov]\nt = 0.1\n"
                  "points = 256\nn_time = 16\n")
    body = run_cli(tmp_path, "density", density) + "\n" \
        + run_cli(tmp_path, "kolmogorov", kolmogorov)
    assert scipy_modules_after(tmp_path, body) == []


DECOMPOSITION_MODELS = {
    "tempered": "[model]\nfamily = tempered_stable\nalpha = 1.5\nm = 1.0\n",
    "truncated": "[model]\nfamily = truncated_stable\nalpha = 1.5\n",
    "layered": "[model]\nfamily = layered_stable\nalpha = 1.5\nlambda_tail = 2.5\n",
}


@pytest.mark.parametrize("family", sorted(DECOMPOSITION_MODELS))
def test_decomposition_converge_and_sample_load_no_scipy(tmp_path, family):
    # the truncation threshold and the tail masses use private QUADPACK and
    # Brent ports, not scipy.integrate and scipy.optimize
    model = DECOMPOSITION_MODELS[family]
    converge = (model + "[drift]\nname = cos\n[experiment]\np = 1.0\n"
                "n_list = 4,8,16\nn_ref = 128\npaths = 100\nseed = 3\n")
    sample = model + "[sample]\nn = 64\nseed = 3\ncsv = true\n"
    body = run_cli(tmp_path, "converge", converge) + "\n" + run_cli(tmp_path, "sample", sample)
    assert scipy_modules_after(tmp_path, body) == []


FAMILIES = {
    "brownian": "family = brownian\n",
    "isotropic_stable": "family = isotropic_stable\nalpha = 1.5\n",
    "relativistic_stable": "family = relativistic_stable\nalpha = 1.5\nm = 1.0\n",
    "tempered_stable": "family = tempered_stable\nalpha = 1.5\nm = 1.0\n",
    "lamperti_stable": "family = lamperti_stable\nalpha = 1.5\nm = 1.0\n",
    "truncated_stable": "family = truncated_stable\nalpha = 1.5\n",
    "layered_stable": "family = layered_stable\nalpha = 1.5\nlambda_tail = 2.5\n",
    "subordinated_bm": "family = subordinated_bm\nrho = 0.75\n",
}

COMMANDS = {
    "check": "[drift]\nname = cos\n[experiment]\np = 1.0\n",
    "converge": ("[drift]\nname = cos\n[experiment]\np = 1.0\nn_list = 4,8,16\n"
                 "n_ref = 128\npaths = 100\nseed = 3\n"),
    "density": "[density]\nt_list = 0.1,0.2,0.4,0.8\n",
    "kolmogorov": "[drift]\nname = cos\n[kolmogorov]\nt = 0.1\npoints = 256\nn_time = 16\n",
    "sample": "[sample]\nn = 64\nseed = 3\ncsv = true\n",
}

# the exit code of each run with scipy installed: Lamperti noise has no
# increment sampler, so its converge and sample end as typed errors
EXIT_CODES = {f"{family} {command}": 0 for family in FAMILIES for command in COMMANDS}
EXIT_CODES.update({"lamperti_stable converge": 1, "lamperti_stable sample": 1})


def test_every_command_runs_with_scipy_blocked(tmp_path):
    runs = []
    for family, model in FAMILIES.items():
        for command, body in COMMANDS.items():
            cfg = tmp_path / f"{family}-{command}.cfg"
            cfg.write_text("[model]\n" + model + body)
            runs.append((f"{family} {command}",
                         [command, "--config", str(cfg), "--out-dir", str(tmp_path / cfg.stem)]))
    # with None in sys.modules, any import of scipy or a submodule raises
    script = ("import json, sys\nsys.modules['scipy'] = None\nimport levyem.cli\ncodes = {}\n"
              f"for label, argv in {runs!r}:\n"
              "    try:\n"
              "        codes[label] = levyem.cli.main(argv)\n"
              "    except Exception as exc:\n"
              "        codes[label] = f'{type(exc).__name__}: {exc}'\n"
              "print(json.dumps(codes))\n")
    assert run_fresh(tmp_path, script) == EXIT_CODES


# exported names that no library module uses, and why each stays public
UNUSED_EXPORTS = {
    "load_batch": "the documented reader of the replay format that `sample` writes",
    "semigroup_apply": "the benchmark's warm-up calls it; it leaves with the next "
                       "benchmark change",
}


def test_every_export_is_used_by_the_library():
    # a test-only oracle belongs in tests/oracles.py, not in the public surface
    package = SRC / "levyem"
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(exported - used - set(UNUSED_EXPORTS)) == []
