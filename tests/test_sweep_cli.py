"""Sweep machinery and the four CLI subcommands."""

import gc
import json
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import normal_step

from qplasma.cli import main
from qplasma.dielectric import DimensionlessPointA, epsilon_collisional_a, epsilon_lindhard, epsilon_mermin
from qplasma.svg import line_plot
from qplasma.sweep import FORMATS, MODELS, ConfigError, SweepConfig, _linspace, load_config_file, parse_q_range, run_sweep

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
    # on every grid a caller accepts: its step (hi - lo)/(n - 1) is a normal
    # double; numpy also forms (n - 1)*step, which can overflow, and then
    # overwrites that last node with hi
    for lo, hi, n in ((1.7e308, 1.7976931348623157e308, 9), (-1.7976931348623157e308, -1e308, 2),
                      (1.5, 2.5, 501), (-1e-300, 1e-300, 3), (0.0, 2.2250738585072014e-308, 2)):
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

    checked = 0
    for _ in range(4000):
        (lo, hi), n = sorted((draw(), draw())), rng.choice((2, 3, rng.randint(2, 600)))
        if normal_step(lo, hi, n):
            assert _hex(_linspace(lo, hi, n)) == _hex(np.linspace(lo, hi, n)), (lo, hi, n)
            checked += 1
    assert checked > 3000, checked


@pytest.mark.parametrize("seed", [27, 28])
def test_linspace_of_a_normal_step_stays_in_its_window(seed):
    # lo + i*step rounds twice, yet with a normal step the nodes never
    # descend or leave [lo, hi]; a subnormal step, 3e-323/7 say, rounded a
    # node past hi, and a span that overflows gave nan and inf nodes
    rng = random.Random(seed)
    tiny = sys.float_info.min
    checked = 0
    for _ in range(20000):
        n = rng.choice((2, 3, rng.randint(2, 40), rng.randint(2, 3000)))
        lo = rng.choice((0.0, -0.0, tiny, -tiny, 1.0, -2.0, 1e308, -1.7976931348623157e308,
                         rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-308.0, 308.0)))
        r = rng.random()
        if r < 0.4:  # a step a few times the least normal double, or just below it
            hi = lo + (n - 1) * tiny * rng.uniform(0.5, 4.0)
        elif r < 0.7:  # a few ulps of lo, where nodes repeat
            hi = lo
            for _ in range(rng.randint(1, 64)):
                hi = math.nextafter(hi, math.inf)
        else:
            hi = lo + 10.0 ** rng.uniform(-308.0, 308.0)
        if not normal_step(lo, hi, n):
            continue
        qs = _linspace(lo, hi, n)
        assert len(qs) == n and qs[0] == lo and qs[-1] == hi, (lo, hi, n)
        assert all(a <= b for a, b in zip(qs, qs[1:])), (lo, hi, n)
        checked += 1
    assert checked > 10000, checked


@pytest.mark.parametrize("q_min, q_max, q_steps, step", [
    (-1e308, 1e308, 5, "inf"),  # the span overflows: nodes were nan, inf, inf, inf, 1e+308
    (1e-323, 3e-323, 7, "5e-324"),  # a subnormal step put a node, 3.5e-323, above q_max
    (0.0, 1e-320, 4916, "0.0"),  # a step that underflows to 0
    (-10 ** 308, 10 ** 308, 3, "inf"),  # an int span that int / int would divide
])
def test_sweep_grid_step_must_be_a_normal_double(tmp_path, capsys, q_min, q_max, q_steps, step):
    text = f"the q step (q_max - q_min)/(q_steps - 1) = {step} leaves the normal double range"
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        _cfg(tmp_path, q_min=q_min, q_max=q_max, q_steps=q_steps)
    rc = main(["sweep", "--model", "bgk", "--x", "0", "--y", "0,0.01", f"--q={q_min}:{q_max}:{q_steps}", "--xp", "1",
               "--output", str(tmp_path / "s"), "--format", "both"])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {text}\n"
    assert list(tmp_path.iterdir()) == []


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


def test_sweep_result_keeps_rows_and_derives_eps():
    # rows are [iy][iq] as the model returns them, None where a node was
    # skipped; eps is the node-major view [iq][iy] of the same values
    res = run_sweep(SweepConfig("mermin", 0.5, (0.0, 0.1, 1.0), -1.0, 1.0, 9, 1.0, "unused"), write=False)
    assert len(res.skipped) == 3 and len(res.rows) == 3 and {len(row) for row in res.rows} == {9}
    assert res.eps == tuple(zip(*res.rows))
    assert [(q, y) for q, node in zip(res.q_values, res.eps) for y, e in zip(res.config.y, node) if e is None] == [
        (p.q, p.y) for p in res.skipped]


def test_sweep_allocates_nothing_per_node_for_the_collector():
    # a sweep and both texts keep no container per node alive, so CPython's
    # collector, which counts live tracked containers against its gen-0
    # threshold of 700, is not started by a 4096-node row (a tuple per node,
    # transposed back by each writer, starts it 13 times or more); one start
    # is allowed for the count the test begins with
    cfg = SweepConfig("bgk", 0.3, (0.1,), 0.1, 4.5, 4096, 1.0, "unused")
    run_sweep(cfg, write=False)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(count)
    try:
        res = run_sweep(cfg, write=False)
        res.csv_text()
        res.svg_text()
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert len(starts) <= 1, starts


def test_sweep_svg_of_a_curve_one_ulp_wide():
    # Re eps spans one ulp of 1.0 here, so the y tick step is below the
    # resolution of the tick values; the tick loop must still end
    h = float.fromhex
    cfg = SweepConfig("lindhard", h("0x1.0644896724453p+4"), (0.0,), h("-0x1.ec8912cebd5d1p+4"),
                      h("-0x1.ec8912ce1f4f1p+4"), 24, h("0x1.52162476cc737p-16"), "unused")
    res = run_sweep(cfg, write=False)
    re_eps = {v.real for (v,) in res.eps}
    assert max(re_eps) - min(re_eps) == 2.0 ** -53
    assert res.svg_text().count("<polyline") == 1


def _plot_numbers(text):
    """(every polyline point, every y tick label) of an SVG text, as floats."""
    points = [float(v) for pts in re.findall(r'points="([^"]*)"', text) for v in re.split("[ ,]", pts)]
    return points, [float(t) for t in re.findall(r'text-anchor="end">([^<]*)<', text)]


def test_sweep_svg_is_finite_where_the_span_of_re_eps_overflows():
    # Re eps spans -1.5e308 .. 4.4e307 with no node skipped, so the padded
    # span overflows: the y axis is drawn at a quarter scale, where it wrote
    # nan coordinates and an -inf tick
    res = run_sweep(SweepConfig("lindhard", 1.2, (0.0,), 0.05, 6.0, 201, 9e153, "unused"), write=False)
    re_eps = [v.real for (v,) in res.eps]
    assert not res.skipped and max(re_eps) - min(re_eps) == math.inf
    points, ticks = _plot_numbers(res.svg_text())
    assert len(points) == 2 * 201 and len(ticks) >= 3
    assert all(0.0 <= v <= 800.0 for v in points) and all(math.isfinite(t) for t in ticks)


def test_svg_zero_tick_reads_zero_on_a_wide_axis():
    # tick j is first + j*step, so the zero tick is first + (-first): summing
    # the steps of the quarter-scale axis of -1.5e308 .. 4.4e307 labelled it 9.9792e+291
    res = run_sweep(SweepConfig("lindhard", 1.2, (0.0,), 0.05, 6.0, 201, 9e153, "unused"), write=False)
    labels = re.findall(r'text-anchor="end">([^<]*)<', res.svg_text())
    assert labels == ["-1.2e+308", "-8e+307", "-4e+307", "0", "4e+307"]


def test_svg_line_plot_near_the_double_range_is_finite():
    # extents at +-max, padding that overflows one end only, and constant
    # series beyond 2**53, where y + 1.0 == y left the span 0 and the
    # projection raised ZeroDivisionError
    big = sys.float_info.max
    cases = [[-big, big], [big, big], [-big, -big], [1e20, 1e20], [6.75e307, 1.75e308], [-big, 0.0, None, big]]
    rng = random.Random(27)
    for _ in range(2000):
        ys = [rng.choice((1.0, -1.0)) * big * rng.random() ** rng.choice((0.01, 0.1, 1.0, 10.0)) for _ in range(3)]
        cases.append(ys if rng.random() < 0.8 else [ys[0]] * 3)
    for ys in cases:
        points, ticks = _plot_numbers(line_plot([float(i) for i in range(len(ys))], [("a", ys)], "t", "x", "y"))
        assert points and all(0.0 <= v <= 800.0 for v in points), ys
        assert ticks and all(math.isfinite(t) for t in ticks), ys
    for x in (1e20, -1e300, big):  # one q node drawn: the x span is 0 the same way
        text = line_plot([x, 2.0 * x], [("a", [2.5, None]), ("b", [1.0, None])], "t", "x", "y")
        assert "nan" not in text and "inf" not in text, x


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
    for bad, text in ((dict(q_min=2.5, q_max=1.5), "q range needs q_min < q_max"),
                      (dict(q_min=1.5, q_max=1.5), "q range needs q_min < q_max"),
                      (dict(y=()), "at least one y value is required"),
                      (dict(y=(0.01, -0.01)), "y values must be >= 0"),
                      (dict(xp=-1.0), "xp must be >= 0")):
        with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
            _cfg(tmp_path, **bad)
    # two y values printed as the same column label (re_eps_y0.1)
    for ys in ((0.1, 0.1000001), (0.01, 0.01)):
        with pytest.raises(ConfigError, match="distinct column labels"):
            _cfg(tmp_path, y=ys)

def test_parse_q_range():
    assert parse_q_range("1.5:2.5:501") == (1.5, 2.5, 501)
    with pytest.raises(ConfigError):
        parse_q_range("1:2")
    with pytest.raises(ConfigError, match=r"^bad q range '1:2:x': invalid literal for int\(\)"):
        parse_q_range("1:2:x")


def test_load_config_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nmodel = bgk\nx=0\n\ny = 0,0.01  # inline\n")
    assert load_config_file(path) == {"model": "bgk", "x": "0", "y": "0,0.01"}
    path.write_text("model = bgk\nx 0\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: expected key=value, got 'x 0'$"):
        load_config_file(path)


def test_shipped_configs_parse():
    for name in ("fig1.cfg", "fig2.cfg", "fig3.cfg"):
        values = load_config_file(ROOT / "configs" / name)
        assert values["model"] == "bgk"
        assert values["x"] == "0"
        assert values["q"] == "1.5:2.5:501"


def test_sweep_config_rejects_a_non_integer_q_steps(tmp_path):
    # before: TypeError from _linspace (10.5, 10.0) or from the "< 2" test ("5")
    for steps in (10.5, 10.0, "5", float("nan"), None):
        with pytest.raises(ConfigError, match=r"^q_steps must be an integer, got "):
            _cfg(tmp_path, q_steps=steps)
    with pytest.raises(ConfigError, match=r"^q range needs at least 2 steps, got 1$"):
        _cfg(tmp_path, q_steps=1)
    assert len(run_sweep(_cfg(tmp_path, q_steps=np.int64(5)), write=False).q_values) == 5


@pytest.mark.parametrize("name, written", [
    ("fig_x0.3", ("fig_x0.3.csv", "fig_x0.3.svg")),
    ("x.csv", ("x.csv", "x.svg")),
    ("x.svg", ("x.csv", "x.svg")),
    ("x.csv.csv", ("x.csv.csv", "x.csv.svg")),
])
def test_sweep_output_suffixes_are_appended_to_the_base_name(tmp_path, name, written):
    # before: Path.with_suffix replaced everything after the last dot, so
    # fig_x0.3 wrote fig_x0.csv and a sweep at x0.5 overwrote it
    res = run_sweep(_cfg(tmp_path, output=str(tmp_path / "o" / name), fmt="both", q_steps=11))
    assert (res.csv_path, res.svg_path) == tuple(tmp_path / "o" / w for w in written)
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == sorted(written)


def test_sweeps_with_dotted_names_do_not_overwrite_each_other(tmp_path, capsys):
    for x in ("0.3", "0.5"):
        assert main(["sweep", "--model", "bgk", "--x", x, "--y", "0.1", "--q", "0.5:1.5:3", "--xp", "1",
                     "--output", str(tmp_path / f"fig_x{x}"), "--format", "both"]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / f'fig_x{x}.csv'}\nwrote {tmp_path / f'fig_x{x}.svg'}\n"
    assert (tmp_path / "fig_x0.3.csv").read_text() != (tmp_path / "fig_x0.5.csv").read_text()
    assert len(list(tmp_path.iterdir())) == 4


@pytest.mark.parametrize("output", ["", ".", "..", "o/", "o/.", "o/..", ".csv", "o/.svg"])
def test_sweep_output_without_a_file_name_is_a_config_error(tmp_path, monkeypatch, capsys, output):
    # before: "" and "." were a ValueError traceback (exit 1), and "o/" wrote o.csv beside o
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="^output needs a file name, got "):
        _cfg(tmp_path, output=output)
    rc = main(["sweep", "--model", "bgk", "--x", "0.3", "--y", "0.1", "--q", "0.5:1.5:3", "--xp", "1",
               "--output", output])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: output needs a file name, got {output!r}\n"
    assert list(tmp_path.iterdir()) == []


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


def test_cli_sweep_unparsable_y_is_a_config_error(tmp_path, capsys):
    assert main(["sweep", "--model", "bgk", "--x", "0", "--y", "0,abc", "--q", "1.5:2.5:11", "--xp", "1",
                 "--output", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == "config error: could not convert string to float: 'abc'\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag, value, error", [
    ("--model", "nope", "model must be one of ('bgk', 'mermin', 'lindhard'), got 'nope'"),
    ("--format", "pdf", "format must be one of ('csv', 'svg', 'both'), got 'pdf'"),
])
def test_cli_sweep_model_and_format_are_checked_as_config_values(tmp_path, capsys, flag, value, error):
    argv = {"--model": "bgk", "--x": "0", "--y": "0.01", "--q": "1.5:2.5:11", "--xp": "1",
            "--output": str(tmp_path / "s"), flag: value}
    assert main(["sweep", *[tok for pair in argv.items() for tok in pair]]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_cli_sweep_help_names_every_model_and_format(capsys):
    assert main(["sweep", "--help"]) == 0
    options = capsys.readouterr().out.split("options:", 1)[1]

    def help_words(flag):
        return set(re.findall(r"[a-z]+", options.split(flag, 1)[1].split("\n  -", 1)[0]))

    assert set(MODELS) <= help_words("--model MODEL")
    assert set(FORMATS) <= help_words("--format FORMAT")


def test_cli_sweep_unreadable_config_is_a_config_error(tmp_path, capsys):
    # before: a FileNotFoundError / UnicodeDecodeError traceback and exit 1
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"model = bgk\n# \xe9\n")
    for cfg in (tmp_path / "nonexistent.cfg", latin1):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config_file(cfg)
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {cfg}: ") and err.count("\n") == 1


@pytest.mark.parametrize("output", ["file/sub/s", "dir"], ids=["directory-not-creatable", "csv-is-a-directory"])
def test_cli_sweep_unwritable_output_is_a_usage_error(tmp_path, capsys, output):
    # before: an OSError traceback from mkdir or open
    (tmp_path / "file").write_text("")
    (tmp_path / "dir.csv").mkdir()
    rc = main(["sweep", "--model", "bgk", "--x", "0.3", "--y", "0.1", "--q", "0.5:1.5:3", "--xp", "1",
               "--output", str(tmp_path / output)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("flag", ["--y", "--xp"])
def test_cli_compare_rejects_negative_y_or_xp(capsys, flag):
    argv = {"--x": "0.5", "--y": "0.1", "--q": "1", "--xp": "1", flag: "-1"}
    assert main(["compare", *[tok for pair in argv.items() for tok in pair]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: y and xp must be >= 0\n"


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


@pytest.mark.parametrize("argv, error", [
    (["--omega", "1e14"], "error: physical mode needs --omega, --kf and --vf"),
    (["--omega", "1e14", "--kf", "-1", "--vf", "1e6"], "error: --kf and --vf must be positive"),
    (["--omega", "1e14", "--kf", "1e10", "--vf", "0"], "error: --kf and --vf must be positive"),
])
def test_cli_kohn_physical_usage_errors(capsys, argv, error):
    assert main(["kohn", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == error + "\n"


def test_cli_kohn_physical_mode_notes_an_ignored_x(capsys):
    argv = ["--omega", "1.8e14", "--kf", "1.2e10", "--vf", "1.5e6"]
    assert main(["kohn", *argv, "--x", "0.3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: --x ignored in physical mode\n"
    assert main(["kohn", *argv]) == 0
    assert capsys.readouterr().out == captured.out


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


def test_cli_verify_rejects_no_points(capsys):
    assert main(["verify", "--points", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --points must be >= 1\n"


def test_cli_verify_rejects_negative_seed(capsys):
    # a usage error (exit 2), not the oracle RNG's ValueError (exit 1)
    assert main(["verify", "--points", "10", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be >= 0" in captured.err


def test_cli_usage_error_exit_code():
    assert main(["no-such-command"]) == 2

