"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_flow_command():
    code, text = run_cli("flow")
    assert code == 0
    assert "Design flow report" in text
    assert "final makespan" in text


def test_flow_json_command():
    import json

    code, text = run_cli("flow", "--json")
    assert code == 0
    payload = json.loads(text)
    assert payload["graph"] == "mccdma_tx"
    assert payload["board"] == "sundance"
    assert payload["makespan_ns"] > 0
    assert "D1" in payload["regions"]
    assert [s["stage"] for s in payload["stages"]] == [
        "modelisation",
        "adequation",
        "vhdl_generation",
        "modular_backend",
        "adequation_refine",
        "executive",
    ]


def test_flow_profile_flag():
    code, text = run_cli("--profile", "flow")
    assert code == 0
    assert "modelisation" in text
    assert "adequation_refine" in text
    assert "miss" in text
    assert "Design flow report" in text  # report still follows the profile


def test_log_json_flag(tmp_path):
    import json

    target = tmp_path / "events.jsonl"
    code, text = run_cli("--log-json", str(target), "flow")
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 6
    assert {json.loads(line)["stage"] for line in lines} >= {"modelisation", "executive"}


def test_table1_command():
    code, text = run_cli("table1")
    assert code == 0
    assert "Fix-Dynamic modulation implementation comparison" in text
    assert "QAM-16 dyn" in text


def test_macrocode_command():
    code, text = run_cli("macrocode")
    assert code == 0
    assert "loop_" in text and "reconfigure_ D1" in text


def test_vhdl_command(tmp_path):
    code, text = run_cli("vhdl", "--out", str(tmp_path))
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert "static_f1.vhd" in names
    assert "dyn_d1_mod_qpsk.vhd" in names
    assert "tb_dyn_d1_mod_qpsk.vhd" in names
    assert "top.ucf" in names
    # Written files are checkable as a design.
    from repro.codegen import check_vhdl

    files = {
        p.name: p.read_text() for p in tmp_path.iterdir() if p.suffix == ".vhd"
    }
    check_vhdl(files)


def test_simulate_command():
    code, text = run_cli("simulate", "-n", "12", "--pattern", "step")
    assert code == 0
    assert "runtime[" in text
    assert "modulation plan:" in text
    assert "qpsk" in text and "qam16" in text


def test_simulate_with_gantt_and_policy():
    code, text = run_cli(
        "simulate", "-n", "8", "--pattern", "sinus", "--policy", "history", "--gantt"
    )
    assert code == 0
    assert "runtime[history]" in text
    assert "|" in text  # gantt rows


def test_graph_dump_roundtrips(tmp_path):
    from repro.dfg import io as dfg_io

    path = tmp_path / "g.json"
    code, text = run_cli("graph-dump", "--out", str(path))
    assert code == 0 and "wrote" in text
    graph = dfg_io.load(path)
    assert "mod_qpsk" in graph and "ifft" in graph


def test_board_dump_to_stdout():
    code, text = run_cli("board-dump")
    assert code == 0
    assert '"format": "repro-board"' in text
    assert "xc2v2000" in text


def test_export_command(tmp_path):
    code, text = run_cli("export", "--out", str(tmp_path))
    assert code == 0
    assert "artefacts under" in text
    assert (tmp_path / "hdl" / "static_f1.vhd").exists()
    assert (tmp_path / "executive" / "executive.json").exists()
    assert (tmp_path / "reports" / "flow.txt").exists()


def test_case_b_architecture_flag():
    code, text = run_cli("--architecture", "case_b", "flow")
    assert code == 0
    assert "case_b_processor" in text


def test_sweep_serial_one_point():
    code, text = run_cli(
        "sweep", "--jobs", "0", "--devices", "xc2v1000", "--architectures", "case_a"
    )
    assert code == 0
    assert "xc2v1000" in text and "case_a_standalone" in text
    assert "1/1 jobs ok" in text


def test_sweep_json_report(tmp_path):
    import json

    code, text = run_cli(
        "sweep", "--jobs", "0", "--devices", "xc2v1000,xc2v2000",
        "--architectures", "case_a", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    code, text = run_cli(
        "sweep", "--jobs", "0", "--devices", "xc2v1000,xc2v2000",
        "--architectures", "case_a", "--cache-dir", str(tmp_path / "cache"), "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["succeeded"] == 2 and payload["failed"] == 0
    assert [r["job_id"] for r in payload["results"]] == [
        "xc2v1000@case_a_standalone",
        "xc2v2000@case_a_standalone",
    ]
    # Second run over the same cache dir: every stage hits.
    assert payload["cache_hits"] == payload["cache_lookups"]


def test_sweep_profile_covers_parallel_run(tmp_path):
    code, text = run_cli(
        "--profile", "--log-json", str(tmp_path / "events.jsonl"),
        "sweep", "--jobs", "2", "--timeout", "300",
        "--devices", "xc2v1000", "--architectures", "case_a,case_b",
    )
    assert code == 0
    assert "adequation" in text  # worker stage events reached the profile
    assert "sweep:job_finished" in text or "sweep:sweep_completed" in text
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert any('"sweep:sweep_completed"' in line for line in lines)


def test_sweep_unknown_device_is_a_clean_error():
    code, text = run_cli("sweep", "--jobs", "0", "--devices", "xc9999")
    assert code == 2
    assert text.startswith("error:") and "xc9999" in text


def test_sweep_unknown_architecture_is_a_clean_error():
    code, text = run_cli("sweep", "--jobs", "0", "--architectures", "case_z")
    assert code == 2
    assert text.startswith("error:") and "case_z" in text
    assert "case_a" in text  # the error lists the known choices


def test_linklevel_table_and_json():
    import json

    code, text = run_cli(
        "linklevel", "--snr", "0:8:4", "--frames", "8", "--batch", "4",
        "--strategies", "qpsk,adaptive",
    )
    assert code == 0
    assert "qpsk:" in text and "adaptive:" in text
    assert text.count("snr") == 6  # 3 SNR points x 2 strategies
    code, text = run_cli(
        "linklevel", "--snr", "0,6", "--frames", "8", "--batch", "4",
        "--strategies", "qpsk", "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert [row["snr_db"] for row in payload["qpsk"]] == [0.0, 6.0]
    assert all(row["n_frames"] == 8 for row in payload["qpsk"])


def test_linklevel_reference_path_matches_batched():
    """``repro linklevel --json`` equals the per-frame oracle engine run
    point by point with the CLI's per-point seeds."""
    import json

    import numpy as np
    from oracles.link_engine import PerFrameLinkEngine

    from repro.mccdma.engine import LinkEngineConfig
    from repro.mccdma.transmitter import MCCDMAConfig

    code, text = run_cli(
        "linklevel", "--snr", "2,5", "--frames", "8", "--batch", "4",
        "--strategies", "adaptive", "--users", "3", "--seed", "0", "--json",
    )
    assert code == 0
    oracle = PerFrameLinkEngine(
        MCCDMAConfig(user_codes=(0, 1, 2)), LinkEngineConfig(batch_frames=4)
    )
    expected = []
    for i, snr_db in enumerate([2.0, 5.0]):
        seed = np.random.SeedSequence(0, spawn_key=(i,))
        result = oracle.simulate_point("adaptive", snr_db, 8, seed=seed)
        expected.append({"snr_db": snr_db, **result.to_dict(), "ber": result.ber})
    assert json.loads(text) == {"adaptive": expected}


def test_linklevel_profile_shows_engine_events(tmp_path):
    code, text = run_cli(
        "--profile", "--log-json", str(tmp_path / "events.jsonl"),
        "linklevel", "--snr", "4", "--frames", "8", "--batch", "4",
        "--strategies", "qpsk",
    )
    assert code == 0
    assert "link:batch" in text and "link:point" in text
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert any('"link:point"' in line for line in lines)


def test_linklevel_bad_grid_and_strategy_are_clean_errors():
    code, text = run_cli("linklevel", "--snr", "0:8")
    assert code == 2 and text.startswith("error:")
    code, text = run_cli("linklevel", "--strategies", "bpsk")
    assert code == 2 and "bpsk" in text


def test_trace_flag_writes_chrome_trace_and_manifest(tmp_path):
    import json

    from repro.obs import Telemetry, validate_trace_file

    trace_path = tmp_path / "run.json"
    code, text = run_cli("--trace", str(trace_path), "flow")
    assert code == 0
    assert "wrote trace" in text
    assert validate_trace_file(trace_path) == []
    payload = json.loads(trace_path.read_text())
    names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
    assert any(n.startswith("flow:") for n in names)
    assert any(n.startswith("stage:") for n in names)
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["command"] == "flow"
    assert manifest["argv"][0] == "repro"
    run = Telemetry.from_rows(manifest["metrics"]).store("run")
    assert "flow.stages_total" in run.series_names()


def test_trace_command_runs_sim_and_renders_gantt(tmp_path):
    from repro.obs import validate_trace_file

    trace_path = tmp_path / "t.json"
    svg_path = tmp_path / "t.svg"
    code, text = run_cli(
        "trace", "-n", "12", "--out", str(trace_path), "--svg", str(svg_path)
    )
    assert code == 0
    assert "runtime[on_select]" in text
    assert "D1 |" in text  # the Fig. 4 residency row
    assert "*=prefetch" in text
    assert svg_path.read_text().startswith("<svg")
    assert validate_trace_file(trace_path) == []


def test_trace_check_mode(tmp_path):
    good = tmp_path / "good.json"
    run_cli("--trace", str(good), "table1")
    code, text = run_cli("trace", "--check", str(good))
    assert code == 0 and "OK" in text

    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"name": "x"}]}')
    code, text = run_cli("trace", "--check", str(bad))
    assert code == 1
    assert "INVALID" in text


def test_traced_sweep_contains_worker_and_reconfig_spans(tmp_path):
    import json

    from repro.obs import Telemetry, validate_trace_file

    trace_path = tmp_path / "sweep.json"
    code, text = run_cli(
        "--trace", str(trace_path),
        "sweep", "--jobs", "2", "--timeout", "300",
        "--devices", "xc2v1000", "--architectures", "case_a",
    )
    assert code == 0
    assert validate_trace_file(trace_path) == []
    payload = json.loads(trace_path.read_text())
    events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["span_id"]: e for e in events if "span_id" in e["args"]}
    attempts = [e for e in events if e["name"].startswith("attempt:")]
    assert attempts
    for event in attempts:  # worker spans resolve to engine-side job spans
        parent = by_id[event["args"]["parent_id"]]
        assert parent["name"].startswith("job:")
    # --trace implies per-point simulations: reconfiguration spans appear.
    kinds = {e["name"].split(":")[0] for e in events}
    assert "load" in kinds and "resident" in kinds
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    run = Telemetry.from_rows(manifest["metrics"]).store("run")
    assert "reconfig.demand_requests" in run.series_names()


# -- fleet command ----------------------------------------------------------


def test_fleet_command_prints_frontier_table():
    code, text = run_cli(
        "fleet", "--boards", "4", "--requests", "20", "--policy", "none,history"
    )
    assert code == 0
    assert "fleet[none/poisson]" in text
    assert "fleet[history/poisson]" in text
    assert "policy" in text and "hit rate" in text and "digest" in text


def test_fleet_json_output():
    import json

    code, text = run_cli(
        "fleet", "--boards", "3", "--requests", "15", "--policy", "lru",
        "--traffic", "thrash", "--seed", "7", "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert set(payload) == {"lru"}
    report = payload["lru"]
    assert report["n_boards"] == 3
    assert report["total_requests"] == 45
    assert report["traffic"] == "thrash"
    assert len(report["digest"]) == 64


def test_fleet_rejects_unknown_policy_at_parse_time(capsys):
    with pytest.raises(SystemExit):
        run_cli("fleet", "--policy", "oracle")
    err = capsys.readouterr().err
    assert "unknown policy 'oracle'" in err
    assert "belady" in err  # the error lists the registry


def test_sweep_rejects_clairvoyant_policy(capsys):
    with pytest.raises(SystemExit):
        run_cli("sweep", "--simulate-policy", "belady")
    err = capsys.readouterr().err
    assert "clairvoyant" in err


def test_simulate_policy_accepts_registry_names():
    code, text = run_cli("simulate", "--policy", "markov", "-n", "6")
    assert code == 0
    assert "runtime[markov]" in text


def test_fleet_trace_bridges_per_board_lanes(tmp_path):
    import json

    from repro.obs import validate_trace_file

    trace_path = tmp_path / "fleet.json"
    code, _ = run_cli(
        "--trace", str(trace_path),
        "fleet", "--boards", "4", "--requests", "15",
        "--policy", "fixed", "--trace-boards", "2",
    )
    assert code == 0
    assert validate_trace_file(trace_path) == []
    payload = json.loads(trace_path.read_text())
    lanes = {
        e["args"]["name"]
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    # Each traced board gets its own Perfetto lane, named by board id.
    assert {"b0000 [sim time]", "b0001 [sim time]"} <= lanes


def test_search_command():
    code, text = run_cli("search", "--budget", "25", "--seed", "1")
    assert code == 0
    assert "search report: multiregion2x2" in text
    assert "fixed k=1" in text
    assert "gain vs best fixed" in text


def test_search_json_command():
    import json

    code, text = run_cli(
        "search", "--budget", "20", "--seed", "2", "--method", "greedy", "--json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["method"] == "greedy"
    assert payload["gain"] <= 1.0
    assert payload["result"]["digest"] == json.loads(text)["result"]["digest"]


def test_search_same_seed_same_digest():
    import json

    _, a = run_cli("search", "--budget", "20", "--seed", "5", "--json")
    _, b = run_cli("search", "--budget", "20", "--seed", "5", "--json")
    assert json.loads(a)["result"]["digest"] == json.loads(b)["result"]["digest"]


def test_search_rejects_unknown_device():
    code, text = run_cli("search", "--budget", "5", "--device", "xc9999")
    assert code == 2
    assert "xc9999" in text


def test_search_traced_writes_trace_and_manifest(tmp_path):
    import json

    from repro.obs import Telemetry, validate_trace_file

    trace_path = tmp_path / "search.json"
    code, text = run_cli(
        "--trace", str(trace_path), "search", "--budget", "15", "--seed", "0"
    )
    assert code == 0
    assert validate_trace_file(trace_path) == []
    names = {e["name"] for e in json.loads(trace_path.read_text())["traceEvents"]}
    assert "search:anneal" in names
    manifest = json.loads((tmp_path / "search.manifest.json").read_text())
    run = Telemetry.from_rows(manifest["metrics"]).store("run")
    assert run.total("search.evaluations") >= 15


# -- fleet telemetry / dashboard / tail / bench-check ------------------------


def test_fleet_live_renders_policy_rows_and_sparklines():
    code, text = run_cli(
        "fleet", "--live", "--ascii", "--boards", "6", "--requests", "40",
        "--policy", "lru,none", "--engine", "fast",
    )
    assert code == 0
    assert "fleet 2/2 policies" in text
    assert "hit%" in text and "p99 stall" in text  # per-policy hit rate / p99
    assert "policy=lru" in text and "policy=none" in text
    assert "fleet.port_util" in text  # non-panel series get their own rows


def test_fleet_slo_breach_sets_exit_code_three():
    code, text = run_cli(
        "fleet", "--boards", "4", "--requests", "30", "--policy", "none",
        "--engine", "fast", "--slo-hit-floor", "1.01",  # unsatisfiable
    )
    assert code == 3
    assert "SLO BREACH" in text
    assert "hit-rate-floor" in text


def test_fleet_slo_pass_keeps_exit_code_zero():
    code, text = run_cli(
        "fleet", "--boards", "4", "--requests", "30", "--policy", "lru",
        "--engine", "fast", "--slo-hit-floor", "0.0",
    )
    assert code == 0
    assert "no breaches" in text


def test_fleet_telemetry_jsonl_roundtrips_through_tail(tmp_path):
    stream = tmp_path / "fleet.jsonl"
    code, text = run_cli(
        "fleet", "--boards", "5", "--requests", "40", "--policy", "lru",
        "--engine", "fast", "--telemetry", str(stream),
    )
    assert code == 0
    assert f"wrote telemetry {stream}" in text
    code, text = run_cli("tail", str(stream), "--ascii")
    assert code == 0
    assert "policy=lru" in text and "p99 stall" in text


def test_tail_missing_and_malformed_files_exit_two(tmp_path):
    code, text = run_cli("tail", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "cannot read" in text
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": 999, "meta": true, "window": 1}\n', encoding="utf-8")
    code, text = run_cli("tail", str(bad))
    assert code == 2
    assert "error" in text


def test_bench_check_gate_passes_and_fails_on_injected_regression(tmp_path):
    import json as _json

    history = tmp_path / "HISTORY.jsonl"
    row = {
        "schema": 1, "bench": "fleet_throughput", "metric": "fast.requests_per_sec",
        "higher_is_better": True, "unit": "req/s", "smoke": False,
        "recorded_at": "2026-08-09T00:00:00+00:00", "host": {}, "detail": {},
    }
    with history.open("w", encoding="utf-8") as f:
        for value in (100.0, 101.0, 99.0, 100.0):
            f.write(_json.dumps({**row, "value": value}) + "\n")
    code, text = run_cli("bench-check", "--history", str(history))
    assert code == 0
    assert "-> ok" in text

    with history.open("a", encoding="utf-8") as f:
        f.write(_json.dumps({**row, "value": 80.0}) + "\n")  # injected -20%
    code, text = run_cli("bench-check", "--history", str(history))
    assert code == 1
    assert "regression" in text


def test_bench_check_backfill_seeds_from_results_dir(tmp_path):
    import json as _json

    results = tmp_path / "results"
    results.mkdir()
    (results / "BENCH_fleet_throughput.json").write_text(
        _json.dumps({"headline": {"fast": {"requests_per_sec": 50.0}}}),
        encoding="utf-8",
    )
    history = tmp_path / "HISTORY.jsonl"
    code, text = run_cli(
        "bench-check", "--backfill", "--results-dir", str(results),
        "--history", str(history), "--check-after-backfill",
    )
    assert code == 0
    assert "backfilled 1 entries" in text
    assert "no prior entries" in text  # single entry: insufficient history
