"""The README's library quick start runs as users read it, at its own sizes."""

import re
from pathlib import Path

from levyem import cli
from levyem.harness import VERDICT_CONSISTENT, VERDICT_FASTER

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    slope, rate, verdict = capsys.readouterr().out.split()
    # stable 1.5 under a Lipschitz drift at p = 1: min{1, 1 / 1.5, 1}
    assert float(rate) == 1.0 / 1.5
    assert float(slope) > 0.0
    assert verdict in (VERDICT_CONSISTENT, VERDICT_FASTER)


def test_cli_section_documents_every_config_key():
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    undocumented = sorted(f"[{name}] {key}" for name, keys in cli._SECTION_KEYS.items()
                          for key in keys if not re.search(rf"\b{key}\b", section))
    assert not undocumented
