"""Sweep machinery and the four CLI subcommands."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from qplasma.cli import main
from qplasma.dielectric import DimensionlessPointA, epsilon_collisional_a, epsilon_lindhard, epsilon_mermin
from qplasma.sweep import MODELS, ConfigError, SweepConfig, _linspace, load_config_file, parse_q_range, run_sweep

ROOT = Path(__file__).resolve().parent.parent


def _cfg(tmp_path, **overrides):
    base = dict(
        model="bgk", x=0.0, y=(0.0, 0.005, 0.01),
        q_min=1.5, q_max=2.5, q_steps=101,
        xp=1.0, output=str(tmp_path / "sweep"), fmt="csv",
    )
    base.update(overrides)
    return SweepConfig(**base)


# ------------------------------------------------------------------ sweeps

def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_linspace_is_bit_identical_to_numpy():
    # subnormal steps take numpy's step == 0 branch (gh-5437); a range
    # wider than the largest double overflows the same way in both
    for lo, hi, n in ((0.0, 1e-320, 4916), (-1e-320, 1e-320, 3), (0.0, 5e-324, 7),
                      (-1e308, 1e308, 5), (1.7e308, 1.7976931348623157e308, 9),
                      (-1.7976931348623157e308, -1e308, 2), (1.5, 2.5, 501), (0.3, 0.1, 2)):
        assert _hex(_linspace(lo, hi, n)) == _hex(np.linspace(lo, hi, n)), (lo, hi, n)
    rng = random.Random(20260)
    special = (0.0, -0.0, 5e-324, 1e-320, -1e-310, 1.0, -2.0, 1e308, -1e308, 1.7976931348623157e308)

    def draw():
        r = rng.random()
        if r < 0.2:
            return rng.choice(special)
        if r < 0.5:
            return rng.uniform(-10.0, 10.0)
        return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-323.0, 308.0)

    for _ in range(4000):
        lo, hi, n = draw(), draw(), rng.choice((2, 3, rng.randint(2, 600)))
        assert _hex(_linspace(lo, hi, n)) == _hex(np.linspace(lo, hi, n)), (lo, hi, n)


def test_sweep_csv_layout(tmp_path):
    res = run_sweep(_cfg(tmp_path))
    text = res.csv_path.read_text()
    lines = text.splitlines()
    assert lines[0] == "q,re_eps_y0,im_eps_y0,re_eps_y0.005,im_eps_y0.005,re_eps_y0.01,im_eps_y0.01"
    assert len(lines) == 1 + 101
    assert "\r" not in text
    # 17 significant digits survive a parse round trip
    first = lines[1].split(",")
    assert float(first[0]) == res.q_values[0]


def test_sweep_nudges_singular_node(tmp_path):
    res = run_sweep(_cfg(tmp_path, q_steps=501))
    assert res.nudged == ((2.0, 2.0 + 1e-6),)
    assert not res.skipped
    assert res.skipped_fraction == 0.0


def test_sweep_repeat_runs_byte_identical(tmp_path):
    a = run_sweep(_cfg(tmp_path, output=str(tmp_path / "a"), fmt="both"))
    b = run_sweep(_cfg(tmp_path, output=str(tmp_path / "b"), fmt="both"))
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    assert a.svg_path.read_bytes() == b.svg_path.read_bytes()


def test_sweep_mermin_handles_static_pole(tmp_path):
    res = run_sweep(_cfg(tmp_path, model="mermin", y=(0.01, 0.1), q_steps=501))
    assert (2.0, 2.0 + 1e-6) in res.nudged
    assert res.skipped_fraction < 0.01


def test_sweep_svg_structure(tmp_path):
    res = run_sweep(_cfg(tmp_path, fmt="svg", q_steps=51))
    text = res.svg_path.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 800 450"' in text
    assert text.count("<polyline") >= 3  # one curve per y (gaps may split)
    assert "y=0.005" in text


def test_sweep_config_validation(tmp_path):
    with pytest.raises(ConfigError, match=r"model must be one of \('bgk', 'mermin', 'lindhard'\)"):
        _cfg(tmp_path, model="rpa")
    with pytest.raises(ConfigError):
        _cfg(tmp_path, q_steps=1)
    with pytest.raises(ConfigError):
        _cfg(tmp_path, model="lindhard", y=(0.0, 0.01))
    with pytest.raises(ConfigError):
        _cfg(tmp_path, fmt="png")
    nan, inf = float("nan"), float("inf")
    for bad in (dict(x=inf), dict(xp=nan), dict(y=(0.0, nan)), dict(y=(inf,)),
                dict(q_max=inf), dict(q_min=-inf), dict(q_min=nan)):
        with pytest.raises(ConfigError):
            _cfg(tmp_path, **bad)
    # two y values printed as the same column label (re_eps_y0.1)
    for ys in ((0.1, 0.1000001), (0.01, 0.01)):
        with pytest.raises(ConfigError, match="distinct column labels"):
            _cfg(tmp_path, y=ys)

def test_parse_q_range():
    assert parse_q_range("1.5:2.5:501") == (1.5, 2.5, 501)
    with pytest.raises(ConfigError):
        parse_q_range("1:2")


def test_load_config_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nmodel = bgk\nx=0\n\ny = 0,0.01  # inline\n")
    assert load_config_file(path) == {"model": "bgk", "x": "0", "y": "0,0.01"}


def test_shipped_configs_parse():
    for name in ("fig1.cfg", "fig2.cfg", "fig3.cfg"):
        values = load_config_file(ROOT / "configs" / name)
        assert values["model"] == "bgk"
        assert values["x"] == "0"
        assert values["q"] == "1.5:2.5:501"


# --------------------------------------------------------------------- CLI

def test_cli_sweep_with_config_and_override(tmp_path, capsys):
    rc = main([
        "sweep", "--config", str(ROOT / "configs" / "fig1.cfg"),
        "--output", str(tmp_path / "fig1"), "--format", "csv",
    ])
    assert rc == 0
    out = capsys.readouterr()
    assert (tmp_path / "fig1.csv").exists()
    assert not (tmp_path / "fig1.svg").exists()  # flag overrode format=both
    assert "nudged" in out.err  # q=2 node warning


def test_cli_sweep_missing_params(capsys):
    rc = main(["sweep", "--model", "bgk"])
    assert rc == 2
    assert "missing sweep parameters" in capsys.readouterr().err


def test_cli_sweep_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text((ROOT / "configs" / "fig1.cfg").read_text() + "fromat = both\n")
    rc = main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "s")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown sweep parameters" in err and "fromat" in err
    assert not (tmp_path / "s.csv").exists()


def test_cli_sweep_bad_flag(tmp_path):
    assert main(["sweep", "--model", "nope", "--x", "0", "--y", "0",
                 "--q", "1:2:10", "--xp", "1", "--output", "/tmp/x"]) == 2
    # non-finite numbers are config errors, not an all-empty CSV
    for flag, value in (("--xp", "nan"), ("--x", "inf"), ("--y", "nan"), ("--q", "1.5:inf:11")):
        argv = {"--model": "bgk", "--x": "0", "--y": "0.01", "--q": "1.5:2.5:11", "--xp": "1",
                "--output": str(tmp_path / "s")}
        argv[flag] = value
        assert main(["sweep", *[tok for pair in argv.items() for tok in pair]]) == 2, flag
    assert not (tmp_path / "s.csv").exists()


def test_cli_compare_near_collisionless_agreement(capsys):
    rc = main(["compare", "--x", "0.5", "--y", "1e-8", "--q", "1.2", "--xp", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("|"):
            assert float(line.split("=")[1]) < 1e-6


def test_cli_compare_static_point(capsys):
    from qplasma.dielectric import epsilon_static_mermin

    rc = main(["compare", "--x", "0", "--y", "0.5", "--q", "1.2", "--xp", "1", "--json"])
    assert rc == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    eps = {r["model"]: complex(r["re"], r["im"]) for r in records if r["kind"] == "epsilon"}
    static = epsilon_static_mermin(0.6, 1.0).epsilon
    assert abs(eps["mermin"] - static) < 1e-14
    assert abs(eps["bgk"] - eps["mermin"]) > 1e-3


def test_cli_compare_json_matches_library(capsys):
    x, y, q, xp = 0.3, 0.1, 1.2, 1.5
    rc = main(["compare", "--x", str(x), "--y", str(y), "--q", str(q), "--xp", str(xp), "--json"])
    assert rc == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    eps = [(r["model"], complex(r["re"], r["im"])) for r in records if r["kind"] == "epsilon"]
    point = DimensionlessPointA(x, y, q, xp)
    assert eps == [
        ("bgk", epsilon_collisional_a(point).epsilon),
        ("mermin", epsilon_mermin(point).epsilon),
        ("lindhard", epsilon_lindhard(x, q, xp).epsilon),
    ]
    assert [model for model, _ in eps] == list(MODELS)


def test_cli_compare_rejects_zero_q(capsys):
    assert main(["compare", "--x", "0.5", "--y", "0.1", "--q", "0", "--xp", "1"]) == 2


def test_cli_compare_propagates_evaluation_error(capsys):
    # x=0, q=2, y=0 sits exactly on the branch point
    rc = main(["compare", "--x", "0", "--y", "0", "--q", "2", "--xp", "1"])
    assert rc == 1
    assert "PoleAtBranchPoint" in capsys.readouterr().err


def test_cli_kohn_dimensionless(capsys):
    rc = main(["kohn", "--x", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "degenerate" in out
    rows = [line for line in out.splitlines() if line.startswith("(")]
    assert len(rows) == 4
    for x in ("nan", "inf"):
        assert main(["kohn", "--x", x]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NonFiniteResult" in captured.err


def test_cli_kohn_physical(capsys):
    rc = main(["kohn", "--omega", "1.8e14", "--kf", "1.2e10", "--vf", "1.5e6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "k1" in out and "k4" in out
    rc2 = main(["kohn"])
    assert rc2 == 2
    for argv in (["--omega", "nan", "--kf", "1e10", "--vf", "1e6"],
                 ["--omega", "1e14", "--kf", "inf", "--vf", "1e6"],
                 ["--omega", "1e14", "--kf", "1e10", "--vf", "nan"]):
        assert main(["kohn", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err


def test_cli_verify(capsys):
    rc = main(["verify", "--points", "10", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "max relative error" in out
    for tol in ("nan", "-1", "0", "inf"):
        assert main(["verify", "--points", "10", "--seed", "3", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err


def test_cli_usage_error_exit_code():
    assert main(["no-such-command"]) == 2

