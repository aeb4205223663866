"""What `import davote` and each command load, read off `sys.modules`.

Every check runs in a fresh interpreter, since this test process has
loaded every module long before.  Nothing here is timed: the footprint
itself is the property.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from davote.core import generate_correspondence
from davote.tableau_io import save_tableau

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules the package must never load on its own: `dataclasses` pulls in
# `inspect`, `ast`, `dis` and `tokenize`.
SLOW = {"dataclasses", "inspect"}

# What every command loads, and what a command reading or writing a
# tableau adds: `tableau_io` brings `special` and `results`, the n-voter
# tableau and the result record it reads.
BASE = {"davote", "davote.cli", "davote.core"}
IO = BASE | {"davote.tableau_io", "davote.special", "davote.results"}


def loaded(code: str, cwd: Path) -> set[str]:
    """The `davote` modules and the `SLOW` ones loaded after running `code`."""
    report = (
        "import json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'davote'"
        f" or m in {sorted(SLOW)!r})))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + "\n" + report], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_module_of_the_package(tmp_path):
    assert loaded("import davote", tmp_path) == {"davote"}


def test_star_import_loads_only_the_documented_modules(tmp_path):
    mods = loaded("from davote import *", tmp_path)
    assert not mods & SLOW
    assert "davote.cli" not in mods


@pytest.mark.parametrize(
    "argv,want",
    [
        (["generate", "--p", "3", "--alpha", "2", "--beta", "2"], IO),
        (["generate", "--p", "3", "--alpha", "1", "--beta", "2", "--kind", "form"], IO),
        (["check-distinct", "--p", "3", "--alpha", "2", "--beta", "2"],
         BASE | {"davote.distinctness"}),
        (["oracle", "corr.json"], IO | {"davote.oracle"}),
    ],
    ids=["generate", "generate-form", "check-distinct", "oracle"],
)
def test_a_command_loads_only_its_modules(tmp_path, argv, want):
    save_tableau(generate_correspondence(3, 1, 2), tmp_path / "corr.json")
    code = (
        "import contextlib, io\n"
        "from davote.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert loaded(code, tmp_path) == want


def test_recognition_loads_no_json(tmp_path):
    # `core` imports `json` only inside the formatter that writes it.
    code = "import sys\nimport davote.recognizer\nassert 'json' not in sys.modules\n"
    assert "davote.recognizer" in loaded(code, tmp_path)
