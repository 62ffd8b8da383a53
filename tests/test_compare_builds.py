"""scripts/compare_builds.py end to end, on a short draw: a tree compared with
itself shows no difference, and one constant changed in a copy shows up as
unexpected differences, named per function, with exit status 1."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _compare(old: Path, new: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(ROOT / "scripts" / "compare_builds.py"), str(old), str(new), "--draws", "3000"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def test_a_tree_against_itself_shows_no_difference():
    run = _compare(SRC, SRC)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "no unexpected difference"
    assert "3105 calls over" in run.stdout  # 3000 calls, 100 rows and 5 sweeps


def test_a_changed_constant_is_named_per_function(tmp_path):
    new = tmp_path / "src"
    shutil.copytree(SRC / "qplasma", new / "qplasma", ignore=shutil.ignore_patterns("__pycache__"))
    kernels = new / "qplasma" / "kernels.py"
    text = kernels.read_text(encoding="utf-8")
    assert text.count("return 1.5 * xp ** 2") == 1  # the coupling of every model node
    kernels.write_text(text.replace("return 1.5 * xp ** 2", "return 1.25 * xp ** 2"), encoding="utf-8")
    run = _compare(SRC, new)
    assert run.returncode == 1, run.stdout + run.stderr
    summary = run.stdout.split("unexpected differences per function, old outcome -> new outcome:\n", 1)[1]
    for name in ("epsilon_collisional_a", "epsilon_lindhard", "epsilon_mermin", "row_bgk", "row_lindhard"):
        assert f"  {name}: " in summary, name
    assert "  clog_ratio: " not in summary  # a kernel does not use the coupling
    assert run.stdout.splitlines()[-1].endswith(" unexpected difference(s)")


def _tool():
    spec = importlib.util.spec_from_file_location("compare_builds", ROOT / "scripts" / "compare_builds.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_texts_are_one_token_and_counted_apart_from_non_finite_floats():
    tool = _tool()
    assert tool._tokens("0x1.8p+0 'DegenerateQ: q = 0: use it' \"it's\" -inf") == [
        "0x1.8p+0", "'DegenerateQ: q = 0: use it'", "\"it's\"", "-inf"]
    texts = tool.ValueChanges()  # a row node's error text changed, with another word count
    texts.add("= 0x1.8p+0 'DegenerateQ: q = 0: a'", "= 0x1.8p+0 'DegenerateQ: q = 0: b c'")
    assert texts.lines() == ["    no float changed", "    token 1: 1 x, 1 x text"]
    floats = tool.ValueChanges()
    floats.add("= 0x1.8p+0 'E: a'", "= inf 'E: a'")
    floats.add("= 0x1.8p+0 'E: a'", "= 0x1p+0 'E: b'")
    assert floats.lines() == ["    token 0: 2 x, largest change 0.5, relative 0.333, 1 x non-finite",
                              "    token 1: 1 x, 1 x text"]
