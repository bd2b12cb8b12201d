"""Each demo script runs to completion against the current package."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    if hasattr(demo, "OUT"):
        monkeypatch.setattr(demo, "OUT", str(tmp_path))
    demo.main()
