"""scipy is imported on first use: stable-noise runs never load the parts
they do not call.  Each check starts its own fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

STABLE_MODEL = "[model]\nfamily = isotropic_stable\nalpha = 1.5\n"


def scipy_modules_after(tmp_path, body):
    """The scipy modules loaded once a fresh interpreter has run ``body``."""
    script = ("import json, sys\nimport levyem, levyem.cli\n" + body
              + "\nprint(json.dumps(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(tmp_path, command, text):
    """Source that runs ``levyem <command>`` on ``text`` and asserts success."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    return (f"assert levyem.cli.main([{command!r}, '--config', {str(cfg)!r}, "
            f"'--out-dir', {str(tmp_path / command)!r}]) == 0")


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after(tmp_path, "") == []


def test_stable_converge_loads_no_scipy(tmp_path):
    text = (STABLE_MODEL + "[drift]\nname = cos\n[experiment]\np = 1.0\n"
            "n_list = 4,8,16\nn_ref = 128\npaths = 100\nseed = 3\n")
    assert scipy_modules_after(tmp_path, run_cli(tmp_path, "converge", text)) == []


def test_stable_spectral_loads_neither_integrate_nor_optimize(tmp_path):
    density = STABLE_MODEL + "[density]\nt_list = 0.1,0.2,0.4,0.8\n"
    kolmogorov = (STABLE_MODEL + "[drift]\nname = cos\n[kolmogorov]\nt = 0.1\n"
                  "points = 256\nn_time = 16\n")
    body = run_cli(tmp_path, "density", density) + "\n" \
        + run_cli(tmp_path, "kolmogorov", kolmogorov)
    loaded = scipy_modules_after(tmp_path, body)
    assert not [k for k in loaded if k.startswith(("scipy.integrate", "scipy.optimize"))], loaded


def test_stable_spectral_loads_no_scipy(tmp_path):
    # the stable constants use a private port of scipy's Gamma, not scipy.special
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
