"""CLI tests: python -m repro ..."""

import pytest

from repro.cli import main


def test_list_prints_all_artifacts(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("table1", "fig8+table5", "fig15+table9", "ablation-qos"):
        assert exp_id in out


def test_reproduce_only_filter(capsys):
    assert main(["reproduce", "--only", "table1"]) == 0
    out = capsys.readouterr().out
    assert "[table1]" in out
    assert "BM-Store" in out


def test_reproduce_unknown_filter_errors(capsys):
    assert main(["reproduce", "--only", "nonexistent"]) == 2


def test_fio_command_runs_case(capsys):
    assert main(["fio", "--scheme", "native", "--case", "rand-w-1"]) == 0
    out = capsys.readouterr().out
    assert "KIOPS" in out and "rand-w-1" in out


def test_fio_rejects_unknown_scheme(capsys):
    assert main(["fio", "--scheme", "warp-drive"]) == 2


def test_fio_rejects_unknown_case(capsys):
    assert main(["fio", "--scheme", "native", "--case", "bogus"]) == 2


def test_stats_command_prints_stage_and_namespace_stats(capsys):
    assert main(["stats", "--scheme", "bmstore", "--case", "rand-w-1"]) == 0
    out = capsys.readouterr().out
    assert "per-stage latency" in out
    assert "ssd_dma" in out and "doorbell" in out
    assert "per-namespace I/O" in out and "KIOPS" in out
    assert "spans:" in out


def test_stats_json_dump_is_parseable(capsys):
    import json

    assert main(["stats", "--scheme", "native", "--case", "rand-w-1",
                 "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["spans"]["recorded"] > 0
    assert any(k.startswith("io_latency_ns") for k in snap["histograms"])


def test_stats_rejects_unknown_scheme(capsys):
    assert main(["stats", "--scheme", "warp-drive"]) == 2


def test_tco_command(capsys):
    assert main(["tco"]) == 0
    out = capsys.readouterr().out
    assert "-11.3%" in out and "+14.3%" in out


def test_package_metadata():
    import repro

    assert repro.__version__
    assert "BM-Store" in repro.__paper__


def test_version_flag_matches_package(capsys):
    import pytest
    import repro

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"repro {repro.__version__}" in capsys.readouterr().out


def test_version_matches_pyproject():
    import pathlib

    import repro

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text()
    assert 'version = {attr = "repro.__version__"}' in text
    assert repro.__version__ == "0.1.0"


def test_fio_json_is_parseable_and_deterministic(capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_TIME_SCALE", "0.2")
    assert main(["fio", "--scheme", "native", "--case", "rand-w-1",
                 "--json"]) == 0
    first = capsys.readouterr().out
    out = json.loads(first)
    assert out["scheme"] == "native" and out["case"] == "rand-w-1"
    assert out["ios"] > 0 and out["errors"] == 0
    assert main(["fio", "--scheme", "native", "--case", "rand-w-1",
                 "--json"]) == 0
    assert capsys.readouterr().out == first


def test_fio_faults_preset_counts_injections(capsys, monkeypatch):
    import json

    # full-scale windows so the preset's 10 ms fault time lands in-run
    monkeypatch.delenv("REPRO_TIME_SCALE", raising=False)
    assert main(["fio", "--scheme", "bmstore", "--case", "rand-r-1",
                 "--faults", "cmd-drop", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["faults"] == "cmd-drop"
    injected = sum(
        v for k, v in out["fault_counters"].items()
        if k.startswith("faults_injected")
    )
    assert injected >= 1
    assert any(k.startswith("driver_timeouts")
               for k in out["fault_counters"])


def test_fio_rejects_unknown_faults_preset(capsys):
    assert main(["fio", "--scheme", "bmstore", "--faults", "nope"]) == 2


# the presets target the bmstore world: its backend port bssd0 and its
# engine's slot 0; a world without them refuses the plan as it is armed
UNSERVABLE = [("native", "link-flap", "bssd0"), ("native", "hot-remove", "engine"),
              ("vfio-vm", "width-degrade", "bssd0"), ("spdk-vm", "pt-hot-remove", "engine")]


@pytest.mark.parametrize("scheme,preset,needle", UNSERVABLE)
def test_fio_rejects_a_fault_plan_the_world_cannot_serve(capsys, scheme, preset, needle):
    assert main(["fio", "--scheme", scheme, "--case", "rand-r-1",
                 "--faults", preset]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and needle in err


@pytest.mark.parametrize("scheme,preset,needle", UNSERVABLE)
def test_grid_rejects_a_fault_plan_the_world_cannot_serve(capsys, scheme, preset, needle):
    assert main(["grid", "--schemes", scheme, "--cases", "rand-r-1",
                 "--faults", preset, "--workers", "1"]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and needle in err


def test_faults_command_reports_recovery(capsys):
    import json

    assert main(["faults", "--only", "cmd-drop", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["experiment_id"] == "fault-recovery"
    [row] = out["rows"]
    assert row["fault"] == "cmd-drop"
    assert row["recovered"] is True
    assert row["recovery_ms"] >= 0
    assert row["injected"] >= 1


def test_faults_command_unknown_class(capsys):
    assert main(["faults", "--only", "asteroid"]) == 2


def test_reproduce_json_output(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_TIME_SCALE", "0.2")
    path = tmp_path / "rows.json"
    assert main(["reproduce", "--only", "table1", "--json", str(path)]) == 0
    [payload] = json.loads(path.read_text())
    assert payload["experiment_id"] == "table1"
    assert payload["rows"]


def test_reproduce_quick_runs_the_curated_subset(capsys, monkeypatch):
    from repro.cli import QUICK_EXPERIMENT_IDS

    monkeypatch.setenv("REPRO_TIME_SCALE", "0.2")
    # narrow further with --only to keep the test fast; --quick must
    # intersect with the filter, not override it
    assert main(["reproduce", "--quick", "--only", "table1"]) == 0
    out = capsys.readouterr().out
    assert "[table1]" in out
    assert "table1" in QUICK_EXPERIMENT_IDS
    # fig10 exists in the registry but is not in the quick subset
    assert main(["reproduce", "--quick", "--only", "fig10"]) == 2
    assert "fig10" not in QUICK_EXPERIMENT_IDS


def test_grid_command_parallel_matches_sequential(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_TIME_SCALE", "0.1")
    seq_path, par_path = tmp_path / "seq.json", tmp_path / "par.json"
    base = ["grid", "--schemes", "native,bmstore", "--cases", "rand-w-1",
            "--seed", "3"]
    assert main(base + ["--workers", "1", "--json", str(seq_path)]) == 0
    assert main(base + ["--workers", "4", "--json", str(par_path)]) == 0
    assert seq_path.read_bytes() == par_path.read_bytes()
    import json

    payloads = json.loads(seq_path.read_text())
    assert [p["scheme"] for p in payloads] == ["native", "bmstore"]
    assert all(p["seed"] == 3 and p["ios"] > 0 for p in payloads)
    assert all("snapshot" not in p for p in payloads)  # opt-in via flag


def test_grid_rejects_unknown_scheme_and_case(capsys):
    assert main(["grid", "--schemes", "warp-drive", "--cases", "rand-w-1"]) == 2
    assert main(["grid", "--schemes", "native", "--cases", "bogus"]) == 2
    assert main(["grid", "--schemes", "native", "--cases", "rand-w-1",
                 "--faults", "nope"]) == 2


def test_bench_writes_snapshot_and_passes_self_check(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_TIME_SCALE", "0.05")
    out = tmp_path / "bench.json"
    assert main(["bench", "--cases", "rand-w-1", "--schemes", "native",
                 "--out", str(out)]) == 0
    snap = json.loads(out.read_text())
    assert snap["kind"] == "repro-bench"
    assert snap["obs_mode"] == "counters"
    [run] = snap["runs"]
    assert run["scheme"] == "native" and run["case"] == "rand-w-1"
    assert run["sim_events"] > 0 and run["events_per_sec"] > 0
    text = capsys.readouterr().out
    assert "events/s" in text
    # a snapshot always passes a check against itself
    out2 = tmp_path / "bench2.json"
    assert main(["bench", "--cases", "rand-w-1", "--schemes", "native",
                 "--out", str(out2), "--check", str(out)]) == 0


def test_bench_check_fails_on_regression(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_TIME_SCALE", "0.05")
    out = tmp_path / "bench.json"
    assert main(["bench", "--cases", "rand-w-1", "--schemes", "native",
                 "--out", str(out)]) == 0
    snap = json.loads(out.read_text())
    # forge a baseline whose kernel was impossibly fast
    snap["runs"][0]["events_per_sec"] *= 10
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(snap))
    out2 = tmp_path / "bench2.json"
    assert main(["bench", "--cases", "rand-w-1", "--schemes", "native",
                 "--out", str(out2), "--check", str(baseline)]) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_bench_check_rejects_time_scale_mismatch(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_TIME_SCALE", "0.05")
    out = tmp_path / "bench.json"
    assert main(["bench", "--cases", "rand-w-1", "--schemes", "native",
                 "--out", str(out)]) == 0
    snap = json.loads(out.read_text())
    snap["time_scale"] = 1.0
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(snap))
    out2 = tmp_path / "bench2.json"
    assert main(["bench", "--cases", "rand-w-1", "--schemes", "native",
                 "--out", str(out2), "--check", str(baseline)]) == 1
    assert "time_scale" in capsys.readouterr().err


def test_faults_list_enumerates_presets(capsys):
    assert main(["faults", "--list"]) == 0
    out = capsys.readouterr().out
    for preset in ("media-burst", "die-stall", "cmd-drop", "link-flap",
                   "width-degrade", "hot-remove"):
        assert preset in out


def test_fio_and_grid_faults_list(capsys):
    assert main(["fio", "--scheme", "bmstore", "--faults", "list"]) == 0
    assert "hot-remove" in capsys.readouterr().out
    assert main(["grid", "--schemes", "native", "--cases", "rand-w-1",
                 "--faults", "list"]) == 0
    assert "cmd-drop" in capsys.readouterr().out


def test_fleet_command_quick_run(capsys):
    assert main(["fleet", "--servers", "4", "--racks", "2", "--tenants", "6",
                 "--quick"]) == 0
    out = capsys.readouterr().out
    assert "fleet: 4 servers / 2 racks" in out
    assert "rolling upgrade: 2 waves" in out
    assert "SLO violations" in out


def test_fleet_json_to_stdout(capsys):
    import json

    assert main(["fleet", "--servers", "4", "--racks", "2", "--tenants", "6",
                 "--quick", "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fleet"]["servers"] == 4
    assert report["summary"]["servers_upgraded"] == 4
    assert report["summary"]["upgrades_ok"] is True


def test_fleet_rejects_bad_inputs(capsys):
    assert main(["fleet", "--policy", "warp", "--quick"]) == 2
    assert main(["fleet", "--faults", "asteroid", "--quick"]) == 2
    assert main(["fleet", "--servers", "0", "--quick"]) == 2


def test_fleet_migrate_flag_reacts_to_hot_removal(capsys):
    import json

    assert main(["fleet", "--servers", "4", "--racks", "2", "--tenants", "6",
                 "--quick", "--faults", "hot-remove", "--migrate",
                 "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["migrated_servers"] == 1
    assert report["summary"]["migrated_tenants"] >= 1
    assert report["maintenance"]["reaction"] == "migrate"
    assert all(m["mode"] == "migrate"
               for m in report["maintenance"]["moves"])
    # the rendered report names the migrated server
    assert main(["fleet", "--servers", "4", "--racks", "2", "--tenants", "6",
                 "--quick", "--faults", "hot-remove",
                 "--reaction", "migrate"]) == 0
    assert "live-migrated" in capsys.readouterr().out


def test_volumes_command_runs_and_is_zero_copy(capsys):
    import json

    assert main(["volumes", "--cells", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        assert row["cow_faults_pre"] == 0     # cloning copied nothing
        assert row["cow_faults"] > 0          # first writes faulted
    assert main(["volumes", "--cells", "1"]) == 0
    assert "cow_faults" in capsys.readouterr().out


def test_bench_check_missing_baseline_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TIME_SCALE", "0.05")
    out = tmp_path / "bench.json"
    assert main(["bench", "--cases", "rand-w-1", "--schemes", "native",
                 "--out", str(out), "--check", str(tmp_path / "no.json")]) == 2
