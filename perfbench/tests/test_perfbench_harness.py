"""Self-tests of the benchmark harness (not of qplasma).

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, union_length  # noqa: E402


# ------------------------------------------------------- self-time math ----

def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.75)]) == 3.0
    assert union_length([(5.0, 6.0), (0.0, 10.0)]) == 10.0


def test_self_time_on_synthetic_span_tree():
    """Drive the tracer's frame arithmetic with fixed times: op [0, 10] has
    children [1, 3] (itself with a grandchild [1.5, 2.5]) and [4, 5] on its
    own thread, and two overlapping children [6, 8] and [7, 9.5] on a pool
    thread, which count once, as their union [6, 9.5]."""
    tr = Tracer()
    root = tr._enter("op", "bench", True, 0)

    def call(name, layer, t0, t1, inner=None):
        frame = tr._enter(name, layer, False)
        if inner:
            inner()
        tr._exit(*frame[:5], t0, t1)

    call("dielectric.f", "dielectric", 1.0, 3.0, inner=lambda: call("kernels.g", "kernels", 1.5, 2.5))
    call("dielectric.f", "dielectric", 4.0, 5.0)
    pool = threading.Thread(target=lambda: (call("kernels.h", "kernels", 6.0, 8.0),
                                            call("kernels.h", "kernels", 7.0, 9.5)))
    pool.start()
    pool.join(timeout=10)
    assert not pool.is_alive()
    tr._exit(*root[:5], 0.0, 10.0)

    agg = tr.aggregates()
    assert agg[("op", "-")] == [1, 10.0, 3.5]
    assert agg[("dielectric.f", "op")] == [2, 3.0, 2.0]
    assert agg[("kernels.g", "dielectric.f")] == [1, 1.0, 1.0]
    assert agg[("kernels.h", "op")] == [2, 4.5, 4.5]
    assert tr.spans == [(1, "op", 0.0, 10.0, None, 0, 3.5)]


def test_tracer_self_times_add_up_to_op_time():
    """On one thread, the self times of every traced call add up to the
    duration of the ops that contain them."""
    import worker

    tr = Tracer()
    tr.install()
    try:
        for i, p in enumerate(gen.pointwise_pass(3)[:50]):
            with tr.span("op", i):
                try:
                    worker.point_op((p["x"], p["y"], p["q"], p["xp"], p["kf"], p["vf"]))
                except Exception:
                    pass
    finally:
        tr.uninstall()
    agg = tr.aggregates()
    op_total = sum(total for (fn, _), (n, total, own) in agg.items() if fn == "op")
    self_sum = sum(own for (n, total, own) in agg.values())
    assert self_sum == pytest.approx(op_total, rel=1e-9)
    assert any(fn == "kernels.clog_ratio" and caller == "kernels.g_a" for fn, caller in agg)
    assert len(tr.spans) == 50
    from qplasma import dielectric, kernels
    assert not hasattr(kernels.g_a, "__wrapped__") and not hasattr(dielectric.g_a, "__wrapped__")


# -------------------------------------------------------------- the gate ----

def _sweep_record(tmp_path, corrupt: bool):
    slot = tmp_path / "slot"
    slot.mkdir(parents=True)
    files = []
    for ext in ("csv", "svg"):
        data = (ROOT / "out" / f"fig1.{ext}").read_bytes()
        if corrupt and ext == "csv":
            data = data[:100] + bytes([data[100] ^ 1]) + data[101:]
        (slot / f"fig1.{ext}").write_bytes(data)
        files.append(str(slot / f"fig1.{ext}"))
    return {"i": 0, "op": {"kind": "sweep", "fig": 1, "expect_exit": 0}, "rc": 0,
            "stdout": "", "stderr": "", "files": files}


def test_gate_accepts_identical_figure_and_flags_one_corrupted_byte(tmp_path):
    assert gate.check_cli([_sweep_record(tmp_path / "a", corrupt=False)], ROOT / "out", 1e-8) == {}
    bad = gate.check_cli([_sweep_record(tmp_path / "b", corrupt=True)], ROOT / "out", 1e-8)
    assert list(bad) == [0] and "fig1.csv differs" in bad[0]


def test_gate_flags_wrong_error_class():
    op = {"kind": "eval_error", "expect_exit": 1, "expect_error": "PoleAtBranchPoint"}
    right = {"i": 3, "op": op, "rc": 1, "stdout": "",
             "stderr": "evaluation error: PoleAtBranchPoint: clog_ratio argument at branch point +1\n"}
    wrong = dict(right, stderr="evaluation error: DegenerateQ: g_a needs q != 0\n")
    assert gate.check_cli([right], ROOT / "out", 1e-8) == {}
    assert list(gate.check_cli([wrong], ROOT / "out", 1e-8)) == [3]
    mismatch = {"i": 7, "point": {}, "expected": "PoleAtBranchPoint", "got": "DegenerateQ"}
    assert list(gate.check_pointwise([], [mismatch], 1, 1e-8)) == [7]


def test_gate_reference_matches_known_values():
    # static Lindhard at q = 1 (w = 1/2): 1 + 1.5 (1 + (3/4) ln 3) for xp = 1
    import math
    want = 1 + 1.5 * (1 + 0.75 * math.log(3.0))
    assert float(gate.ref_lindhard(0.0, 1.0, 1.0).real) == pytest.approx(want, rel=1e-14)
    assert gate.rel_err([want, 0.0], gate.ref_mermin(0.0, 0.3, 1.0, 1.0)) < 1e-14


# ------------------------------------------------- inputs and definitions ----

def test_generation_is_seeded_and_keeps_the_mix():
    for workload in gen.WORKLOADS:
        a, b, c = (gen.pass_for(workload, s) for s in (5, 5, 6))
        assert a == b and a != c
        assert sorted(op["kind"] for op in a) == sorted(op["kind"] for op in c)

    def row_sizes(seed):
        return sorted(op["q_steps"] for op in gen.grid_pass(seed) if op["kind"] == "sweep" and op["x"] != 0.0
                      and not op["expect_skipped"])

    assert row_sizes(1) == row_sizes(2)
    assert row_sizes(1)[0] == gen.ROW_MIN and row_sizes(1)[-1] == gen.ROW_MAX


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert metrics.tail(values) == (90, 90.0, 10)
    assert metrics.tail(list(range(1, 29)))[1:] == (60.0, 11)
    assert metrics.tail(list(range(1, 70)))[1:] == (85.0, 10)
    assert metrics.tail(list(range(1, 6))) == (5, 100.0, 0)
    assert metrics.tail(list(range(1, 100001)))[1] == 90.0


def test_latencies_are_scaled_by_the_nearest_reference_samples():
    """A host twice as slow doubles both an op and the reference loop
    timed next to it, and the scaled latency stays the same."""
    ref = metrics.REFERENCE_S
    cal_at = [0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    cal = [ref] * 5 + [2 * ref] * 5
    scaled = metrics.at_reference_speed([0.5, 1.0], [1.5, 12.5], cal_at, cal)
    assert scaled == pytest.approx([0.5, 0.5])
    # fewer samples than the window: the median of all of them
    assert metrics.at_reference_speed([0.3], [0.0], [0.0, 1.0, 2.0], [ref, 3 * ref, 3 * ref]) == \
        pytest.approx([0.1])


def test_summary_scales_every_op_and_takes_percentiles_over_op_medians():
    from array import array
    import worker

    ref = metrics.REFERENCE_S
    ops = [{"kind": "a", "points": 10}, {"kind": "b", "points": 30}]
    loop = {"wall": 6.0, "passes": 3, "points": 120, "nominal": ref, "cal_at": array("d", [0.0, 5.0]),
            "cal": array("d", [2 * ref, 2 * ref]),
            "lat": [array("d", [0.2, 0.4, 2.0]), array("d", [0.6, 0.8, 0.7])],
            "at": [array("d", [0.0, 2.0, 4.0]), array("d", [1.0, 3.0, 5.0])]}
    s = worker.summarize(loop, ops)
    assert s["ops"] == 6 and s["distinct_ops"] == 2
    assert s["ops_per_s"] == pytest.approx(6 / 2.35)
    assert s["points_per_s"] == pytest.approx(120 / 2.35)
    # op medians 0.2 and 0.35 (scaled), each counted three times; the
    # median of the six single timings would be 0.325
    assert s["p50_s"] == pytest.approx(0.275)
    assert s["raw_ops_per_s"] == pytest.approx(6 / 4.7)


def test_import_tree_sums_scipy_subtree():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:        40 |         70 |   scipy.integrate",
        "import time:         5 |        230 | qplasma",
    ])
    assert run.import_tree(text) == pytest.approx((230e-6, 70e-6))
