"""Every script in demos/ runs to completion in-process and prints exactly
its recorded output in tests/demo_outputs/<stem>.txt."""

import runpy
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    expected = (HERE / "demo_outputs" / f"{path.stem}.txt").read_text()
    assert capsys.readouterr().out == expected
