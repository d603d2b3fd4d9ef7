"""The public namespace: every exported name exists, is listed once and is
documented in README; importing the package loads no numpy module it does
not use."""

import os
import re
import subprocess
import sys
from pathlib import Path

import qsd

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_sorted_unique_and_resolves():
    names = qsd.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(qsd, name)] == []


def test_every_exported_name_is_in_readme():
    # in backticks, alone or as the start of a call such as `evolve(rho, h, t)`
    text = README.read_text(encoding="utf-8")
    missing = [name for name in qsd.__all__ if not re.search(rf"`{name}[`(]", text)]
    assert missing == []


def test_every_readme_api_bullet_resolves():
    # each `- `name`` bullet under "## API" names an exported object, once
    text = README.read_text(encoding="utf-8")
    api = text.split("\n## API", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(\w+)", api, flags=re.M)
    assert sorted(bullets) == qsd.__all__


def test_cli_import_leaves_numpy_random_to_numpy():
    # qsd reaches numpy.random only when it draws: importing the CLI loads it
    # only where a bare `import numpy` already does (numpy 1.x loads it eagerly)
    src = Path(qsd.__file__).resolve().parents[1]
    code = (
        "import sys, numpy; eager = 'numpy.random' in sys.modules; "
        "import qsd.cli; print(eager, 'numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    eager, loaded = proc.stdout.split()
    assert loaded == eager
