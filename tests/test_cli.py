"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands_exist():
    parser = build_parser()
    args = parser.parse_args(["run", "e2", "--users", "10"])
    assert args.experiment == "e2"
    assert args.users == 10
    args = parser.parse_args(["headline", "--seed", "3"])
    assert args.seed == 3


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "e99"])


@pytest.mark.parametrize("flag, value", [
    ("--jobs", "0"),
    ("--shards", "-1"),
    ("--max-shards", "0"),
    ("--beat-interval", "0"),
])
def test_non_positive_execution_flag_is_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["headline", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be positive" in err
    assert "Traceback" not in err


def test_beat_interval_at_the_stall_window_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["headline", "--progress", "--beat-interval", "45"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be below stall_after_s" in err
    assert "Traceback" not in err


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "e12" in out and "Table 2" in out


def test_run_e2_command(capsys):
    assert main(["run", "e2"]) == 0
    out = capsys.readouterr().out
    assert "per-ad energy" in out
    assert "[e2 took" in out


def test_trace_command(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    code = main(["trace", str(path), "--users", "12", "--days", "3",
                 "--train-days", "1", "--seed", "21"])
    assert code == 0
    assert path.exists()
    out = capsys.readouterr().out
    assert "12 users" in out

    from repro.traces.io import read_trace
    trace = read_trace(path)
    assert trace.n_users == 12
    assert trace.n_days == 3


def test_report_command_subset(tmp_path, capsys):
    path = tmp_path / "report.md"
    code = main(["report", str(path), "--only", "e2", "--users", "10"])
    assert code == 0
    text = path.read_text()
    assert "Reproduction report" in text
    assert "e2" in text and "per-ad energy" in text


def test_headline_command_small(capsys):
    code = main(["headline", "--users", "12", "--days", "6",
                 "--train-days", "3", "--seed", "15"])
    assert code == 0
    out = capsys.readouterr().out
    assert "energy savings" in out
    assert "SLA violation rate" in out


def test_headline_with_trace_writes_artifacts(tmp_path, capsys):
    code = main(["headline", "--users", "12", "--days", "6",
                 "--train-days", "3", "--seed", "15",
                 "--trace", "--metrics-out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "run artifacts:" in out
    run_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    names = {p.name for p in run_dirs[0].iterdir()}
    assert names == {"run.json", "trace.jsonl", "trace.chrome.json"}

    assert main(["obs", "validate",
                 str(run_dirs[0] / "trace.jsonl")]) == 0
    assert main(["obs", "summarize", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in ("exchange.auctions.held", "server.plan.assignments",
                 "server.rescues", "client.beacons", "radio.wakeups"):
        assert name in out


def test_cli_options_do_not_leak_between_calls(tmp_path, capsys):
    """Each invocation installs its own process defaults: a plain run
    after a ``--metrics-out --jobs --backend`` run in the same process
    writes no artifacts and runs with the default execution knobs."""
    from repro.runner import ExecOptions, default_exec_options

    args = ["headline", "--users", "12", "--days", "6",
            "--train-days", "3", "--seed", "15"]
    assert main(args + ["--metrics-out", str(tmp_path),
                        "--jobs", "2", "--backend", "batched"]) == 0
    assert "x 2 worker(s)" in capsys.readouterr().out
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "run artifacts:" not in out
    assert "x 1 worker(s)" in out
    (run_dir,) = tmp_path.iterdir()
    # An untraced run directory holds its one run.json and nothing else.
    assert [p.name for p in run_dir.iterdir()] == ["run.json"]
    assert default_exec_options() == ExecOptions()


def _metric_lines(out):
    # Drop the trailing "[N shard(s) x M worker(s), T s]" wall-clock line.
    return [line for line in out.splitlines() if "worker(s)" not in line]


def test_headline_with_faults_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"loss_prob": 0.3, "outage_rate_per_day": 4.0, '
                    '"outage_duration_s": 900.0}')
    args = ["headline", "--users", "12", "--days", "6",
            "--train-days", "3", "--seed", "15"]
    assert main(args) == 0
    clean = _metric_lines(capsys.readouterr().out)
    assert main(args + ["--faults", str(plan)]) == 0
    faulty = _metric_lines(capsys.readouterr().out)
    # The plan must change the numbers; omitting it must not.
    assert faulty != clean
    assert any("energy savings" in line for line in faulty)
    assert main(args) == 0
    assert _metric_lines(capsys.readouterr().out) == clean


def test_faults_flag_rejects_bad_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"loss_prob": 7.0}')
    with pytest.raises(SystemExit) as exc:
        main(["headline", "--users", "12", "--days", "6",
              "--train-days", "3", "--faults", str(plan)])
    assert exc.value.code == 2
    assert "loss_prob must be in [0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("flag, text, named", [
    ("--faults", '{"loss_prob": "0.1"}', "key 'loss_prob'"),
    ("--faults", '{"loss_prob": 0.1', "not valid JSON"),
    ("--faults", None, "cannot read"),
    ("--chaos", "{seed: 1}", "not valid JSON"),
    ("--chaos", '{"kill_prob": true}', "key 'kill_prob'"),
])
def test_bad_plan_file_is_one_line_usage_error(tmp_path, capsys, flag,
                                               text, named):
    plan = tmp_path / "plan.json"
    if text is not None:
        plan.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["headline", flag, str(plan)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [row for row in err.splitlines() if "error:" in row]
    assert f"argument {flag}: {plan}: " in line and named in line
    assert "Traceback" not in err


# ---------------------------------------------------------------------
# obs summarize error handling
# ---------------------------------------------------------------------


def test_summarize_missing_path_is_one_line_error(tmp_path, capsys):
    code = main(["obs", "summarize", str(tmp_path / "nowhere")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no such file" in err


def _run_json(tmp_path, capsys):
    """A valid ``run.json`` payload from one real run, plus its dir."""
    assert main(["headline", "--users", "12", "--days", "6",
                 "--train-days", "3", "--seed", "15",
                 "--metrics-out", str(tmp_path / "runs")]) == 0
    capsys.readouterr()
    (run_dir,) = (tmp_path / "runs").iterdir()
    return run_dir, json.loads((run_dir / "run.json").read_text())


def _summarize_error(run_dir, capsys):
    """Run ``obs summarize`` expecting a one-line error; return it."""
    assert main(["obs", "summarize", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    return err


def test_summarize_empty_metrics_file_is_one_line_error(tmp_path, capsys):
    run_dir, payload = _run_json(tmp_path, capsys)
    (run_dir / "run.json").write_text("")
    assert "empty run.json" in _summarize_error(run_dir, capsys)
    payload["metrics"] = {}
    (run_dir / "run.json").write_text(json.dumps(payload))
    err = _summarize_error(run_dir, capsys)
    assert "section 'metrics'" in err and "missing key 'counters'" in err


def test_summarize_schema_mismatch_is_one_line_error(tmp_path, capsys):
    run_dir, payload = _run_json(tmp_path, capsys)
    faults = [
        ({"schema": "repro.obs.trace"}, "schema mismatch"),
        ({"version": 2}, "schema mismatch"),
        ({"resources": None}, "key 'resources' must be an object"),
        ({"resources": {"cpu_time_s": 1.0}},
         "section 'resources': missing key 'peak_rss_bytes'"),
        ({"elapsed_s": "1.5"}, "key 'elapsed_s' must be a number"),
        ({"record": {**payload["record"], "seed": "7"}},
         "section 'record': key 'seed' must be an integer"),
        ({"profile": {"merge": {"calls": 1}}}, "phase 'merge'"),
        ({"metrics": {**payload["metrics"], "counters": {"a.b": 1}}},
         "counter_totals disagree"),
    ]
    for change, needle in faults:
        (run_dir / "run.json").write_text(json.dumps({**payload, **change}))
        assert needle in _summarize_error(run_dir, capsys), change
    broken = dict(payload)
    del broken["config"]
    (run_dir / "run.json").write_text(json.dumps(broken))
    assert "missing key 'config'" in _summarize_error(run_dir, capsys)
    (run_dir / "run.json").write_text("[1, 2]")
    assert "run.json must be an object" in _summarize_error(run_dir, capsys)
    # The retired one-file-per-section layout is rejected, not skipped.
    (run_dir / "run.json").unlink()
    (run_dir / "manifest.json").write_text("{}")
    assert "retired manifest.json" in _summarize_error(
        tmp_path / "runs", capsys)


def test_summarize_invalid_manifest_json_is_one_line_error(tmp_path,
                                                           capsys):
    run_dir = tmp_path / "run-000-headline"
    run_dir.mkdir()
    (run_dir / "run.json").write_text("{broken")
    assert "not valid JSON" in _summarize_error(run_dir, capsys)


# ---------------------------------------------------------------------
# obs ledger
# ---------------------------------------------------------------------


def _run_with_ledger(path, seed="15"):
    return main(["headline", "--users", "12", "--days", "6",
                 "--train-days", "3", "--seed", seed,
                 "--ledger", str(path)])


def test_ledger_cli_list_show_regress_round_trip(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.jsonl"
    assert _run_with_ledger(ledger_path) == 0
    assert _run_with_ledger(ledger_path) == 0
    capsys.readouterr()

    assert main(["obs", "ledger", "--ledger-path", str(ledger_path),
                 "list"]) == 0
    out = capsys.readouterr().out
    assert "headline" in out and out.strip().count("\n") == 1

    assert main(["obs", "ledger", "--ledger-path", str(ledger_path),
                 "show", "latest"]) == 0
    out = capsys.readouterr().out
    assert "throughput.users_total" in out
    assert "metrics digest" in out

    assert main(["obs", "ledger", "--ledger-path", str(ledger_path),
                 "diff", "1", "2"]) == 0
    assert "agree" in capsys.readouterr().out

    # A clean re-run regresses clean.
    assert main(["obs", "ledger", "--ledger-path", str(ledger_path),
                 "regress"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_ledger_cli_regress_fails_on_injected_counter_regression(
        tmp_path, capsys):
    import json

    ledger_path = tmp_path / "ledger.jsonl"
    assert _run_with_ledger(ledger_path) == 0
    capsys.readouterr()

    # Forge a "regressed build": same identity, one counter drifted.
    from repro.obs.ledger import Ledger
    ledger = Ledger(ledger_path)
    baseline = ledger.resolve("latest")
    payload = baseline.to_jsonable()
    payload["counter_totals"]["server.rescues"] = (
        payload["counter_totals"].get("server.rescues", 0.0) + 1.0)
    payload["seq"] = baseline.seq + 1
    with ledger_path.open("a") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")

    code = main(["obs", "ledger", "--ledger-path", str(ledger_path),
                 "regress"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "server.rescues" in out


def test_ledger_cli_regress_empty_and_no_baseline(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.jsonl"
    # Missing ledger: hard error.
    assert main(["obs", "ledger", "--ledger-path", str(ledger_path),
                 "regress"]) == 1
    assert "error:" in capsys.readouterr().err

    # One record: nothing to compare — fails unless --allow-empty.
    assert _run_with_ledger(ledger_path) == 0
    capsys.readouterr()
    assert main(["obs", "ledger", "--ledger-path", str(ledger_path),
                 "regress"]) == 1
    assert "no run key had a baseline" in capsys.readouterr().err
    assert main(["obs", "ledger", "--ledger-path", str(ledger_path),
                 "regress", "--allow-empty"]) == 0


def test_ledger_cli_regress_against_explicit_baseline(tmp_path, capsys):
    baseline_path = tmp_path / "baseline.jsonl"
    current_path = tmp_path / "current.jsonl"
    assert _run_with_ledger(baseline_path) == 0
    assert _run_with_ledger(current_path) == 0
    capsys.readouterr()
    assert main(["obs", "ledger", "--ledger-path", str(current_path),
                 "regress", "--baseline", str(baseline_path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_ledger_cli_show_bad_ref_is_one_line_error(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.jsonl"
    assert _run_with_ledger(ledger_path) == 0
    capsys.readouterr()
    assert main(["obs", "ledger", "--ledger-path", str(ledger_path),
                 "show", "zzzz"]) == 1
    assert capsys.readouterr().err.startswith("error:")
