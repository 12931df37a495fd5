"""Tests for operators, media, architecture graphs and boards."""

import pytest

from repro.arch import (
    ArchitectureError,
    ArchitectureGraph,
    Medium,
    MediumKind,
    Operator,
    OperatorKind,
    dual_region_board,
    standalone_fpga_board,
    sundance_board,
)
from repro.dfg.library import DSP_CLASS, FPGA_CLASS


def op(name, kind=OperatorKind.FPGA_STATIC, clock=50.0, device="xc2v2000", region=None):
    return Operator(name, kind, FPGA_CLASS, clock, device=device, region=region)


def test_operator_validation():
    with pytest.raises(ValueError, match="non-empty"):
        Operator("", OperatorKind.PROCESSOR, DSP_CLASS, 200, "c6201")
    with pytest.raises(ValueError, match="clock"):
        Operator("x", OperatorKind.PROCESSOR, DSP_CLASS, 0, "c6201")
    with pytest.raises(ValueError, match="must name its region"):
        op("d", OperatorKind.FPGA_DYNAMIC)
    with pytest.raises(ValueError, match="must not name a region"):
        op("f", OperatorKind.FPGA_STATIC, region="D1")


def test_operator_durations():
    o = op("f", clock=50.0)
    assert o.cycle_time_ns() == pytest.approx(20.0)
    assert o.duration_ns(100) == 2000
    assert o.duration_ns(3) == 60


def test_operator_flags():
    d = op("d", OperatorKind.FPGA_DYNAMIC, region="D1")
    assert d.is_reconfigurable and not d.is_processor
    p = Operator("p", OperatorKind.PROCESSOR, DSP_CLASS, 200, "c6201")
    assert p.is_processor and not p.is_reconfigurable


def test_medium_transfer_times():
    m = Medium("bus", MediumKind.BUS, bandwidth_mbps=100.0, latency_ns=500)
    assert m.transfer_ns(0) == 500
    # 1 MB at 100 MB/s = 10 ms = 10_000_000 ns, plus setup.
    assert m.transfer_ns(1_000_000) == 500 + 10_000_000


def test_medium_validation():
    with pytest.raises(ValueError):
        Medium("m", MediumKind.BUS, 0.0)
    with pytest.raises(ValueError):
        Medium("m", MediumKind.BUS, 10.0, latency_ns=-1)


def test_graph_duplicate_names_rejected():
    g = ArchitectureGraph()
    g.add_operator(op("x"))
    with pytest.raises(ArchitectureError):
        g.add_operator(op("x"))
    with pytest.raises(ArchitectureError):
        g.add_medium(Medium("x", MediumKind.BUS, 10))


def test_route_single_hop():
    g = ArchitectureGraph()
    a = g.add_operator(op("a"))
    b = g.add_operator(op("b"))
    bus = g.add_medium(Medium("bus", MediumKind.BUS, 100.0, 100))
    g.connect(a, bus)
    g.connect(b, bus)
    r = g.route("a", "b")
    assert [m.name for m in r.media] == ["bus"]
    assert r.transfer_ns(1000) == bus.transfer_ns(1000)


def test_route_local_is_free():
    g = ArchitectureGraph()
    g.add_operator(op("a"))
    r = g.route("a", "a")
    assert r.is_local
    assert r.transfer_ns(10**6) == 0


def test_route_multi_hop():
    g = ArchitectureGraph()
    for name in ("a", "b", "c"):
        g.add_operator(op(name))
    m1 = g.add_medium(Medium("m1", MediumKind.BUS, 100.0, 100))
    m2 = g.add_medium(Medium("m2", MediumKind.BUS, 50.0, 200))
    g.connect("a", "m1")
    g.connect("b", "m1")
    g.connect("b", "m2")
    g.connect("c", "m2")
    r = g.route("a", "c")
    assert [m.name for m in r.media] == ["m1", "m2"]
    assert r.transfer_ns(1000) == m1.transfer_ns(1000) + m2.transfer_ns(1000)


def test_route_missing_raises():
    g = ArchitectureGraph()
    g.add_operator(op("a"))
    g.add_operator(op("b"))
    with pytest.raises(ArchitectureError, match="no route"):
        g.route("a", "b")


def test_validate_detects_dangling_medium():
    g = ArchitectureGraph()
    a = g.add_operator(op("a"))
    m = g.add_medium(Medium("m", MediumKind.BUS, 10))
    g.connect(a, m)
    with pytest.raises(ArchitectureError, match="fewer than two"):
        g.validate()


def test_sundance_board_matches_paper():
    board = sundance_board()
    arch = board.architecture
    assert {o.name for o in arch.operators} == {"DSP", "F1", "D1"}
    assert {m.name for m in arch.media} == {"SHB", "IL"}
    assert board.dsp.name == "DSP"
    assert board.regions() == ["D1"]
    # DSP reaches D1 through SHB then IL (two hops).
    r = arch.route("DSP", "D1")
    assert [m.name for m in r.media] == ["SHB", "IL"]
    # FPGA device is the paper's XC2V2000.
    assert board.fpga_device_of("F1").name == "xc2v2000"
    assert board.fpga_device_of("D1").slices == 10_752


def test_fpga_device_lookup_fails_for_dsp():
    board = sundance_board()
    with pytest.raises(KeyError):
        board.fpga_device_of("DSP")


def test_dual_region_board():
    board = dual_region_board()
    assert board.regions() == ["D1", "D2"]
    # Both dynamic parts share the internal link.
    ops_on_il = {o.name for o in board.architecture.operators_on("IL")}
    assert {"F1", "D1", "D2"} <= ops_on_il


def test_board_operators_of_device():
    board = sundance_board()
    names = {o.name for o in board.architecture.operators_of_device("xc2v2000")}
    assert names == {"F1", "D1"}


def test_summary_text():
    board = sundance_board()
    text = board.architecture.summary()
    assert "DSP" in text and "SHB" in text and "IL" in text


def test_validate_detects_unreachable_operator():
    """Two islands: every medium is shared, but nothing links them."""
    g = ArchitectureGraph()
    for name in ("a", "b", "c", "d"):
        g.add_operator(op(name))
    g.add_medium(Medium("m1", MediumKind.BUS, 10))
    g.add_medium(Medium("m2", MediumKind.BUS, 10))
    for o, m in (("a", "m1"), ("b", "m1"), ("c", "m2"), ("d", "m2")):
        g.connect(o, m)
    with pytest.raises(ArchitectureError) as err:
        g.validate()
    message = str(err.value)
    assert "operator 'c' unreachable from 'a'" in message
    assert "operator 'd' unreachable from 'a'" in message
    assert "'b' unreachable" not in message
    assert "fewer than two" not in message


# A tie between three one-hop routes.  The links live in a set, so any
# choice that follows set iteration order changes with the string hash
# seed, which every spawned worker draws afresh.
_TIED_ROUTE_SCRIPT = """
import sys
from repro.arch import ArchitectureGraph, Medium, MediumKind, Operator, OperatorKind
from repro.dfg.library import FPGA_CLASS

g = ArchitectureGraph()
for name in ("P1", "P2"):
    g.add_operator(Operator(name, OperatorKind.FPGA_STATIC, FPGA_CLASS, 50.0, device="xc2v2000"))
for name in ("BUS_A", "BUS_B", "BUS_C"):
    g.add_medium(Medium(name, MediumKind.BUS, 100.0, 100))
links = [(o, m) for o in ("P1", "P2") for m in ("BUS_A", "BUS_B", "BUS_C")]
if sys.argv[1] == "reversed":
    links.reverse()
for o, m in links:
    g.connect(o, m)
print(g.route("P1", "P2"), "|", g.route("P2", "P1"))
"""


def test_tied_route_is_independent_of_hash_seed_and_connect_order():
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    answers = set()
    for hash_seed in ("0", "1", "5", "7"):
        for order in ("forward", "reversed"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            proc = subprocess.run(
                [sys.executable, "-c", _TIED_ROUTE_SCRIPT, order],
                env=env, capture_output=True, text=True, check=True,
            )
            answers.add(proc.stdout.strip())
    assert answers == {"P1 -[BUS_A]-> P2 | P2 -[BUS_A]-> P1"}


def test_tied_multi_hop_route_takes_smallest_vertex_sequence():
    """Two two-hop routes tie; the first differing vertex decides."""
    g = ArchitectureGraph()
    for name in ("P1", "A_hub", "B_hub", "P2"):
        g.add_operator(op(name))
    for name in ("X_bus", "Y_bus", "Z_bus"):
        g.add_medium(Medium(name, MediumKind.BUS, 100.0, 100))
    for o, m in (
        ("P1", "Y_bus"), ("A_hub", "Y_bus"), ("A_hub", "Z_bus"),
        ("P1", "X_bus"), ("B_hub", "X_bus"), ("B_hub", "Z_bus"), ("P2", "Z_bus"),
    ):
        g.connect(o, m)
    # P1-X_bus-B_hub-Z_bus-P2 beats P1-Y_bus-A_hub-Z_bus-P2 at X_bus < Y_bus,
    # while from P2 the routes first differ at A_hub < B_hub.
    assert [m.name for m in g.route("P1", "P2").media] == ["X_bus", "Z_bus"]
    assert [m.name for m in g.route("P2", "P1").media] == ["Z_bus", "Y_bus"]


@pytest.mark.parametrize(
    "factory,routes",
    [
        (
            sundance_board,
            {
                ("DSP", "F1"): ["SHB"],
                ("DSP", "D1"): ["SHB", "IL"],
                ("F1", "DSP"): ["SHB"],
                ("F1", "D1"): ["IL"],
                ("D1", "DSP"): ["IL", "SHB"],
                ("D1", "F1"): ["IL"],
            },
        ),
        (standalone_fpga_board, {("F1", "D1"): ["IL"], ("D1", "F1"): ["IL"]}),
    ],
)
def test_stock_board_routes_are_pinned(factory, routes):
    arch = factory().architecture
    names = [o.name for o in arch.operators]
    assert {(a, b) for a in names for b in names if a != b} == set(routes)
    for (a, b), media in routes.items():
        assert [m.name for m in arch.route(a, b).media] == media
