"""scripts/compare_builds.py end to end, on a short draw: a tree compared with
itself shows no difference, and one constant changed in a copy shows up as
unexpected differences, named per function, with exit status 1; so does a
finite value that now overflows, unless its function is named as expected."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _compare(old: Path, new: Path, *options: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(ROOT / "scripts" / "compare_builds.py"), str(old), str(new), "--draws", "3000", *options]
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


def test_a_finite_value_that_now_overflows_is_expected_only_where_named(tmp_path):
    new = tmp_path / "src"
    shutil.copytree(SRC / "qplasma", new / "qplasma", ignore=shutil.ignore_patterns("__pycache__"))
    kernels = new / "qplasma" / "kernels.py"
    text = kernels.read_text(encoding="utf-8")
    assert text.count("        return 1.5 * xp ** 2\n") == 1
    # the coupling overflows from xp = 1e150 on, where 1.5 xp^2 is finite up to ~1.3e154
    broken = "        return 1.5 * xp ** 2 if abs(xp) < 1e150 else 1.5 * _square(xp * 1e160, 'xp')\n"
    kernels.write_text(text.replace("        return 1.5 * xp ** 2\n", broken), encoding="utf-8")
    run = _compare(SRC, new)
    assert run.returncode == 1, run.stdout + run.stderr
    summary = run.stdout.split("unexpected differences per function, old outcome -> new outcome:\n", 1)[1]
    assert "  epsilon_lindhard: " in summary and " x value -> NonFiniteResult" in summary
    run = _compare(SRC, new, "--finite-rejects", "epsilon_lindhard")
    assert "  epsilon_lindhard: " not in run.stdout.split("unexpected differences per function", 1)[1]
    assert re.search(r"  epsilon_lindhard: \d+ x finite argument and result now raises NonFiniteResult", run.stdout)


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


def test_a_finite_call_that_now_raises_non_finite_result_is_an_expected_kind():
    tool = _tool()
    now = "! NonFiniteResult: the square of xp = 1e+200 overflows"
    assert tool._rejected("0x0.0p+0 0x1.0p+1", "= 0x1.8p+0", now) == "finite argument and result"
    assert tool._rejected("0x0.0p+0 0x1.0p+1", "= inf", now) == "non-finite result"
    assert tool._rejected("nan 0x1.0p+1", "! ValueError: no", now) == "non-finite argument"
    for old in ("! ValueError: no", "! NonFiniteResult: another text"):  # another class; the same class
        assert tool._rejected("0x0.0p+0 0x1.0p+1", old, now) is None
    assert tool._rejected("0x0.0p+0", "= 0x1.8p+0", "! DenominatorVanishes: |1 - g0| < 1e-30") is None


def test_a_sweep_flattens_node_major_whatever_its_result_stores():
    # the tool compares sweeps through eps[iq][iy], so a result that stores
    # its rows ([iy][iq]) flattens as one that stored eps did
    from qplasma.sweep import SweepConfig, run_sweep

    tool = _tool()
    cfg = SweepConfig("mermin", 0.5, (0.0, 0.1), -1.0, 1.0, 5, 1.0, "unused")  # q = 0 fails in both rows
    result = run_sweep(cfg, write=False)
    assert result.skipped and len(result.rows) == 2
    tokens = tool.flatten(tool.sweep_projection(result))
    values = [v for node in zip(*result.rows) for e in node for v in tool.flatten(e)]
    start = 1 + len(tool.flatten(cfg)) + len(result.q_values)
    assert tokens[0] == "SweepResult" and tokens[start:start + len(values)] == values
    assert values != [v for row in result.rows for e in row for v in tool.flatten(e)]
