import re
from pathlib import Path

import uradon as ur


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from uradon import *", namespace)
    missing = [name for name in ur.__all__ if name not in namespace]
    assert not missing


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    version, = re.findall(r'^version\s*=\s*"([^"]+)"', project, re.M)
    assert version == ur.__version__
