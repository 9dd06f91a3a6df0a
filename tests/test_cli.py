import argparse
import builtins
import csv
import errno
import json
import os
import re
import time
from pathlib import Path

import pytest

from wifitrace import cli, profileio
from wifitrace import evaluation as ev
from wifitrace.cli import main
from wifitrace.detection import ContactReport, DetectionConfig
from wifitrace.exchange import (DEFAULT_RETENTION_DAYS, ProfileStore, SyncState,
                                serve_in_thread)
from wifitrace.model import ProcessedProfile, SignalProfile, SignalVector
from wifitrace.profileio import read_profile, write_profile
from wifitrace.simulator import make_site


STUDY_CFG = """
[environment]
preset = office

[study]
seeds = 1
proximities = 1 2
calibration_proximity = 2
"""

SCENARIO_CFG = """
[environment]
preset = office
seed = 11

[case]
waypoints = 0,15,15 600,15,15
sampling_period = 60
lifespan = 1800
label = case-cli

[user]
waypoints = 900,15,15 1500,15,15
sampling_period = 60
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1]) if out else {}
    return code, summary


@pytest.fixture(params=["fresh", "advanced"])
def state(tmp_path, request) -> Path:
    """A device's state directory, fresh or with its cursor already moved."""
    if request.param == "advanced":
        SyncState(tmp_path / "state").advance(1)
    return tmp_path / "state"


def files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.glob("*")}


def test_simulate_emits_files(tmp_path, capsys):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    code, summary = run_cli(capsys, "simulate", cfg, "--out",
                            str(tmp_path / "out"))
    assert code == 0
    user = read_profile(summary["user"])
    assert isinstance(user, SignalProfile) and len(user) == 10
    processed = read_profile(summary["processed"])
    assert isinstance(processed, ProcessedProfile)
    truth = Path(summary["truth"]).read_text().splitlines()
    assert truth[0] == "vcontact-truth/1" and len(truth) == 11


def test_calibrate_writes_curve_and_summary(tmp_path, capsys):
    cfg = write(tmp_path, "study.cfg", STUDY_CFG)
    code, summary = run_cli(capsys, "calibrate", cfg, "--out",
                            str(tmp_path / "out"))
    assert code == 0
    assert 0 < summary["intersection_alpha"] <= 1
    lines = Path(summary["csv"]).read_text().splitlines()
    assert lines[0] == "alpha,precision,recall,f1"
    assert len(lines) == 101
    # the study config's one seed and calibration proximity
    data = ev.collect_proximity_data(*make_site("office", seed=1))
    scores, truth = data.scores(), data.truth(2.0)
    points = ev.sweep_scores(scores, truth)
    assert len(points) == 100
    with open(summary["csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{key: str(value) for key, value in ev.point_row(p).items()}
                    for p in points]
    best = ev.calibrate(scores, truth)
    assert summary == dict(
        command="calibrate", preset="office", k=2.0, seed=1, csv=summary["csv"],
        **ev.point_row(best, "intersection_alpha"))


def test_config_error_exit_code_is_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.cfg", "[environment]\nseed = 1\n")
    assert main(["calibrate", bad]) == 2
    assert main(["simulate", str(tmp_path / "missing.cfg")]) == 2
    assert main(["proximity-study", bad]) == 2
    # a study takes its seeds from [study] and its site from the preset only
    seeded = write(tmp_path, "seeded.cfg", STUDY_CFG.replace(
        "preset = office\n", "preset = office\nseed = 3\n"))
    assert main(["calibrate", seeded]) == 2
    explicit = write(tmp_path, "explicit.cfg", STUDY_CFG.replace(
        "preset = office\n", "preset = office\nap_count = 9\n"))
    assert main(["calibrate", explicit]) == 2


def test_proximity_study_writes_one_row_per_proximity(tmp_path, capsys):
    cfg = write(tmp_path, "study.cfg", STUDY_CFG)
    code, summary = run_cli(capsys, "proximity-study", cfg, "--out",
                            str(tmp_path / "out"))
    assert code == 0
    with open(summary["csv"], newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ev.CSV_COLUMNS["proximity"]
    # the config's one seed at each of its proximities
    assert [(r["seed"], float(r["k"])) for r in rows] == [("1", 1.0),
                                                           ("1", 2.0)]
    assert summary["rows"] == len(rows)
    mean_f1 = sum(float(r["f1"]) for r in rows) / len(rows)
    assert summary["mean_f1"] == round(mean_f1, 4)


def test_inout_study_runs(tmp_path, capsys):
    cfg = write(tmp_path, "study.cfg", STUDY_CFG)
    code, summary = run_cli(capsys, "inout-study", cfg, "--out",
                            str(tmp_path / "out"))
    assert code == 0
    lines = Path(summary["csv"]).read_text().splitlines()
    assert lines[0] == "seed,alpha,precision,recall"
    assert len(lines) == 2


def test_publish_and_sync_round_trip(tmp_path, capsys):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    code, paths = run_cli(capsys, "simulate", cfg, "--out",
                          str(tmp_path / "sim"))
    assert code == 0

    store = ProfileStore(tmp_path / "server-data")
    with serve_in_thread(store) as server:
        code, summary = run_cli(capsys, "publish", paths["processed"],
                                "--endpoint", server.endpoint)
        assert code == 0 and summary["record_id"] == 1

        report_path = tmp_path / "report.txt"
        code, summary = run_cli(
            capsys, "sync", "--endpoint", server.endpoint,
            "--profile", paths["user"], "--state", str(tmp_path / "state"),
            "--report", str(report_path))
        assert code == 0
        assert summary["cursor"] == 1
        assert summary["episodes"] == 1  # user arrived within the lifespan
        assert report_path.read_text().startswith("vcontact-report/1")
    # a relay restarted over the same data knows the record only from its
    # log, and a fresh device gets the same report from it
    with serve_in_thread(ProfileStore(tmp_path / "server-data")) as server:
        again = tmp_path / "again.txt"
        code, _ = run_cli(
            capsys, "sync", "--endpoint", server.endpoint, "--profile",
            paths["user"], "--state", str(tmp_path / "fresh"),
            "--report", str(again))
    assert code == 0 and again.read_bytes() == report_path.read_bytes()


def test_unwritable_report_leaves_the_cursor_unchanged(tmp_path, capsys):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    _, paths = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "sim"))
    state = tmp_path / "state"
    with serve_in_thread(ProfileStore(tmp_path / "server-data")) as server:
        sync = ["sync", "--endpoint", server.endpoint, "--profile",
                paths["user"], "--state", str(state), "--report"]
        run_cli(capsys, "publish", paths["processed"],
                "--endpoint", server.endpoint)
        for unwritable in (tmp_path / "missing" / "r.txt", tmp_path):
            code, _ = run_cli(capsys, *sync, str(unwritable))
            assert code == 2 and not (state / "cursor").exists()
        report = tmp_path / "report.txt"
        report.write_text("an older, longer report\n" * 100)
        # a sync that fails keeps the old report
        dead = [sync[0], "--endpoint", "http://127.0.0.1:1", *sync[3:]]
        assert main([*dead, str(report)]) == 1
        assert report.read_text() == "an older, longer report\n" * 100
        code, summary = run_cli(capsys, *sync, str(report))
    assert code == 0 and summary["cursor"] == 1 and summary["episodes"] == 1
    text = report.read_text()
    assert text.startswith("vcontact-report/1\n") and "older" not in text


def test_a_report_that_cannot_be_written_keeps_the_records_for_later(
        tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    _, paths = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "sim"))
    device = tmp_path / "device"
    device.mkdir()
    report = device / "report.txt"
    report.write_text("an older report\n")
    real_open = open

    class FullDisk:
        """A file in the device's directory whose every write fails."""

        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    def full_disk(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return FullDisk(fh) if Path(file).parent == device else fh

    with serve_in_thread(ProfileStore(tmp_path / "relay")) as server:
        run_cli(capsys, "publish", paths["processed"],
                "--endpoint", server.endpoint)
        sync = ["sync", "--endpoint", server.endpoint, "--profile",
                paths["user"], "--state", str(tmp_path / "state"),
                "--report", str(report)]
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", full_disk)
            assert main(sync) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "state" / "cursor").exists()
        assert files(device) == {"report.txt": b"an older report\n"}
        # the retry still finds the record the failed sync fetched
        code, summary = run_cli(capsys, *sync)
    assert code == 0 and summary["cursor"] == 1
    assert (summary["contacts"], summary["episodes"]) == (10, 1)
    assert report.read_bytes().startswith(b"vcontact-report/1\n")


def test_the_report_replaces_the_old_one_before_the_cursor_moves(
        tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    _, paths = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "sim"))
    replaced, real_replace = [], os.replace

    def replace(src, dst):
        replaced.append(Path(dst).name)
        real_replace(src, dst)

    with serve_in_thread(ProfileStore(tmp_path / "relay")) as server:
        run_cli(capsys, "publish", paths["processed"],
                "--endpoint", server.endpoint)
        monkeypatch.setattr(os, "replace", replace)
        code, _ = run_cli(capsys, "sync", "--endpoint", server.endpoint,
                          "--profile", paths["user"],
                          "--state", str(tmp_path / "state"),
                          "--report", str(tmp_path / "report.txt"))
    # each through a fsynced temporary file (see test_exchange.py), so a
    # crash between the two leaves the records to the next sync
    assert code == 0 and replaced == ["report.txt", "cursor"]


def test_sync_without_flags_uses_the_detection_defaults(tmp_path, capsys,
                                                       monkeypatch):
    write_profile(tmp_path / "user.signal", SignalProfile([]))
    configs = []

    def fake_round(endpoint, since, profile, cfg):
        configs.append(cfg)
        return ContactReport((), ()), None

    monkeypatch.setattr(cli, "fetch_and_match", fake_round)
    code, _ = run_cli(capsys, "sync", "--endpoint", "http://relay.invalid",
                      "--profile", str(tmp_path / "user.signal"),
                      "--state", str(tmp_path / "state"))
    assert code == 0 and configs == [DetectionConfig()]


# the command line as a user sees it: for each subcommand its help, its
# positionals, and each option as (flags, default, type, required, help)
SURFACE = {
    "simulate": ("emit profiles + ground truth for a scenario", ["config"], [
        (["--out"], "out", None, False, None)]),
    "calibrate": ("threshold sweep at one proximity", ["config"], [
        (["--out"], "out", None, False, None),
        (["--k"], None, float, False, "contact proximity in meters")]),
    "proximity-study": ("metrics versus proximity", ["config"], [
        (["--out"], "out", None, False, None)]),
    "inout-study": ("infected-area in/out detection", ["config"], [
        (["--out"], "out", None, False, None)]),
    "robustness": ("filter/noise/device/sampling tables", ["config"], [
        (["--out"], "out", None, False, None)]),
    "serve": ("run the profile exchange server", [], [
        (["--host"], "127.0.0.1", None, False, None),
        (["--port"], 8330, int, False, None),
        (["--data-dir"], None, None, True, None),
        (["--token"], None, None, False,
         "upload token (or set WIFITRACE_UPLOAD_TOKEN)"),
        (["--retention-days"], 28, float, False, None)]),
    "publish": ("upload a processed profile file", ["file"], [
        (["--endpoint"], None, None, True, None),
        (["--token"], None, None, False, None)]),
    "sync": ("fetch new profiles and match locally", [], [
        (["--endpoint"], None, None, True, None),
        (["--profile"], None, None, True, "local raw scan profile"),
        (["--state"], None, None, True, "cursor state directory"),
        (["--report"], None, None, False, "write the full report here"),
        (["--alpha"], 0.2, float, False, None),
        (["--window"], 600, int, False, None),
        (["--min-exposure"], 300, int, False, None),
        (["--period"], 60, int, False, None)]),
}


def test_the_command_line_surface_is_as_documented():
    # the parser's actions, not --help text, whose layout depends on the
    # terminal width and the Python version
    parser = cli.build_parser()
    assert parser.prog == "wifitrace"
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    found = {}
    for name, command in sub.choices.items():
        actions = [a for a in command._actions
                   if not isinstance(a, argparse._HelpAction)]
        found[name] = (
            helps[name],
            [a.dest for a in actions if not a.option_strings],
            [(a.option_strings, a.default, a.type, a.required, a.help)
             for a in actions if a.option_strings])
    assert found == SURFACE


def test_serve_retention_defaults_to_the_store_default():
    args = cli.build_parser().parse_args(["serve", "--data-dir", "d"])
    assert args.retention_days == DEFAULT_RETENTION_DAYS


@pytest.mark.parametrize("flag, value, message", [
    ("--port", "70000", "port must be in 0..65535"),
    ("--port", "-1", "port must be in 0..65535"),
    ("--retention-days", "0", "retention_days must be > 0"),
    ("--retention-days", "-1", "retention_days must be > 0"),
    ("--retention-days", "nan", "retention_days must be > 0"),
])
def test_serve_rejects_bad_settings_before_starting(tmp_path, capsys,
                                                    monkeypatch, flag, value,
                                                    message):
    # a relay that started would serve until killed
    monkeypatch.setattr(cli, "ExchangeServer",
                        lambda *args, **kwargs: pytest.fail("relay started"))
    data = tmp_path / "relay"
    assert main(["serve", "--port", "0", "--data-dir", str(data),
                 flag, value]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {message}")
    assert not data.exists()


def test_sync_rejects_processed_profile_as_user_data(tmp_path, capsys, state):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    _, paths = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "sim"))
    report = tmp_path / "report.txt"
    report.write_text("an older report\n")
    before = files(state)
    code = main(["sync", "--endpoint", "http://127.0.0.1:1",
                 "--profile", paths["processed"],
                 "--state", str(state), "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"profile error: {paths['processed']}: not a raw signal profile"]
    assert files(state) == before
    assert report.read_text() == "an older report\n"


def test_malformed_profile_is_a_profile_error(tmp_path, capsys, state):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    _, paths = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "sim"))
    lines = Path(paths["user"]).read_bytes().split(b"\n")
    lines[3] = re.sub(rb":-?[0-9]+", b":-05", lines[3], count=1)
    bad = tmp_path / "bad.signal"
    bad.write_bytes(b"\n".join(lines))
    report = tmp_path / "report.txt"
    report.write_text("an older report\n")
    before = files(state)
    code = main(["sync", "--endpoint", "http://127.0.0.1:1", "--profile",
                 str(bad), "--state", str(state), "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"profile error: {bad}: line 4: bad rssi '-05'"]
    assert files(state) == before
    assert report.read_text() == "an older report\n"


def test_malformed_processed_profile_names_its_own_fault(tmp_path, capsys,
                                                        state):
    # refused as user data only once it parses: first its own parse error
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    _, paths = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "sim"))
    lines = Path(paths["processed"]).read_bytes().split(b"\n")
    lines[2] = re.sub(rb":-?[0-9]+\.\.", b":-05..", lines[2], count=1)
    bad = tmp_path / "bad.processed"
    bad.write_bytes(b"\n".join(lines))
    report = tmp_path / "report.txt"
    report.write_text("an older report\n")
    before = files(state)
    code = main(["sync", "--endpoint", "http://127.0.0.1:1", "--profile",
                 str(bad), "--state", str(state), "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"profile error: {bad}: line 3: bad rssi range '-05'"]
    assert files(state) == before
    assert report.read_text() == "an older report\n"


def test_sync_matches_without_building_scan_objects(tmp_path, capsys,
                                                    monkeypatch):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    _, paths = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "sim"))

    def refuse(*args, **kwargs):
        raise AssertionError("the sync round built a scan object")

    with serve_in_thread(ProfileStore(tmp_path / "relay")) as server:
        run_cli(capsys, "publish", paths["processed"],
                "--endpoint", server.endpoint)

        def sync(name):
            return run_cli(capsys, "sync", "--endpoint", server.endpoint,
                           "--profile", paths["user"],
                           "--state", str(tmp_path / name),
                           "--report", str(tmp_path / f"{name}.txt"))

        plain = sync("plain")
        for owner, name in ((SignalVector, "__post_init__"),
                            (SignalVector, "_trusted"),
                            (SignalProfile, "__post_init__"),
                            (profileio, "parse_profile")):
            monkeypatch.setattr(owner, name, refuse)
        straight = sync("straight")
    assert plain[0] == 0 and plain[1]["episodes"] == 1
    assert straight == plain
    assert ((tmp_path / "straight.txt").read_bytes()
            == (tmp_path / "plain.txt").read_bytes())


def test_unreadable_input_file_is_exit_2(tmp_path, capsys):
    dead = ["--endpoint", "http://127.0.0.1:1"]
    assert main(["publish", str(tmp_path), *dead]) == 2
    assert main(["sync", "--profile", str(tmp_path),
                 "--state", str(tmp_path / "state"), *dead]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("config error: ") for e in err)


def test_exchange_error_exit_code_is_1(tmp_path, capsys):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    _, paths = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "sim"))
    code = main(["publish", paths["processed"],
                 "--endpoint", "http://127.0.0.1:1"])
    assert code == 1


@pytest.mark.parametrize("text", [
    "preset = office\n",  # no section header
    "[environment]\npreset = office\n[environment]\npreset = mall\n",
])
def test_malformed_config_file_is_a_config_error(tmp_path, capsys, text):
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["calibrate", cfg]) == 2
    assert main(["simulate", cfg]) == 2


@pytest.mark.parametrize("knob, message", [
    ("filter_rate = 0.5", "unknown [robustness] key 'filter_rate'"),
    ("filter_rates = 0.0 1.5", "rate must be in [0, 1]"),
    ("device_pairs = 0:1.0 -3:0.9:1", "bad value '-3:0.9:1'"),
    ("noise_stds = 0 nan", "noise std must be finite and >= 0, got nan"),
    ("noise_stds = inf", "noise std must be finite and >= 0, got inf"),
    ("sampling_periods = 10 0", "sampling period must be positive, got 0"),
    ("device_pairs = 0:1 nan:0.9", "bias must be finite"),
    ("device_pairs = 0:1 3:0", "detect_rate must be in (0, 1]"),
])
def test_robustness_rejects_bad_knobs(tmp_path, capsys, knob, message):
    cfg = write(tmp_path, "study.cfg", f"{STUDY_CFG}\n[robustness]\n{knob}\n")
    assert main(["robustness", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    # rejected with the config, before any seed is simulated
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["calibrate", "proximity-study",
                                     "inout-study", "robustness"])
def test_study_rejects_unknown_keys(tmp_path, capsys, command):
    cfg = write(tmp_path, "study.cfg", STUDY_CFG.replace("seeds", "seed"))
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown [study] key 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["seeds", "proximities"])
@pytest.mark.parametrize("command", ["calibrate", "proximity-study",
                                     "inout-study", "robustness"])
def test_study_rejects_empty_lists(tmp_path, capsys, command, key):
    cfg = write(tmp_path, "study.cfg",
                re.sub(rf"^{key} = .*$", f"{key} =", STUDY_CFG, flags=re.M))
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert "must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, message", [
    ("proximities = nan -1", "proximity must be finite and > 0, got nan"),
    ("proximities = 1 -1", "proximity must be finite and > 0, got -1.0"),
    ("calibration_proximity = inf", "proximity must be finite and > 0, got inf"),
    ("proximity = 0", "proximity must be finite and > 0, got 0.0"),
    ("alpha = 7", "alpha must be in (0, 1], got 7.0"),
    ("alpha = nan", "alpha must be in (0, 1], got nan"),
    ("seeds = 1 -1", "seed must be in [0, 2**64), got -1"),
    ("seeds = 18446744073709551616",
     "seed must be in [0, 2**64), got 18446744073709551616"),
])
@pytest.mark.parametrize("command", ["calibrate", "proximity-study",
                                     "inout-study", "robustness"])
def test_study_rejects_out_of_range_values(tmp_path, capsys, command,
                                           setting, message):
    key = setting.split(" = ")[0]
    text = re.sub(rf"^{key} = .*\n", "", STUDY_CFG, flags=re.M)
    cfg = write(tmp_path, "study.cfg",
                text.replace("[study]\n", f"[study]\n{setting}\n"))
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    # rejected with the config, before any seed is simulated
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("environment, message", [
    ("preset = nowhere", "unknown site preset 'nowhere'"),
    ("preset = office\npath_loss_exponent = 9",
     "path_loss_exponent must be in [1.5, 6]"),
    ("preset = office\nshadowing_std = nan",
     "shadowing_std must be finite and >= 0"),
])
@pytest.mark.parametrize("command", ["calibrate", "proximity-study",
                                     "inout-study", "robustness"])
def test_study_with_a_bad_environment_leaves_no_directory(
        tmp_path, capsys, command, environment, message):
    cfg = write(tmp_path, "study.cfg",
                STUDY_CFG.replace("preset = office", environment))
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    # the site is built with the config, before --out is made
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", ["nan", "inf", "0", "-2"])
def test_calibrate_rejects_an_out_of_range_k(tmp_path, capsys, k):
    cfg = write(tmp_path, "study.cfg", STUDY_CFG)
    assert main(["calibrate", cfg, "--k", k,
                 "--out", str(tmp_path / "out")]) == 2
    assert "proximity must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, message", [
    ("noise_std = -3", "noise std must be finite and >= 0, got -3.0"),
    ("noise_std = nan", "noise std must be finite and >= 0, got nan"),
    ("noise_std = inf", "noise std must be finite and >= 0, got inf"),
    ("filter_rate = -0.5", "filter rate must be in [0, 1], got -0.5"),
    ("filter_rate = 1.5", "filter rate must be in [0, 1], got 1.5"),
])
def test_scenario_rejects_out_of_range_perturb_values(tmp_path, capsys,
                                                      setting, message):
    cfg = write(tmp_path, "scenario.cfg",
                f"{SCENARIO_CFG}\n[perturb]\n{setting}\n")
    assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    # rejected with the config, before any scan is simulated
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("sampling_period = 60\nlifespan", "sampling_period = 0\nlifespan",
     "sampling_period must be positive"),
    ("lifespan = 1800", "lifespan = -5", "lifespan"),
    ("0,15,15 600,15,15", "0,15,15 600,nan,15", "finite"),
])
def test_simulate_that_fails_leaves_no_directory(tmp_path, capsys, old, new,
                                                 message):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG.replace(old, new))
    assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key", [
    ("environment", "ap_cuont"),
    ("case", "lifespan_s"),
    ("user", "lifespan"),  # the lifespan belongs to the case
    ("perturb", "noise"),
])
def test_scenario_rejects_unknown_keys(tmp_path, capsys, section, key):
    text = SCENARIO_CFG + "\n[perturb]\n"
    cfg = write(tmp_path, "scenario.cfg", text.replace(
        f"[{section}]\n", f"[{section}]\n{key} = 0.9\n"))
    assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"unknown [{section}] key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [("simulate", SCENARIO_CFG),
                                           ("calibrate", STUDY_CFG)])
def test_unknown_sections_are_rejected(tmp_path, capsys, command, text):
    # a misspelt section must not run with its defaults
    cfg = write(tmp_path, "typo.cfg", text + "\n[detetcion]\nalpha = 0.9\n")
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown section(s) ['detetcion']" in capsys.readouterr().err
    # [DEFAULT] is not a section: its keys show up in every section instead
    cfg = write(tmp_path, "default.cfg", "[DEFAULT]\nnote = x\n" + text)
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 0


def test_scenario_rejects_a_detection_section(tmp_path, capsys):
    # matching is configured where it runs: sync's flags, not a scenario
    cfg = write(tmp_path, "scenario.cfg",
                SCENARIO_CFG + "\n[detection]\nalpha = 0.9\n")
    assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: unknown section(s) ['detection']")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["ap_count = 5", "area = 0,0,1,1",
                                 "site_seed = 2"])
def test_scenario_rejects_preset_with_explicit_site(tmp_path, capsys, key):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG.replace(
        "preset = office\n", f"preset = office\n{key}\n"))
    assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "a preset or an explicit site" in capsys.readouterr().err


def test_robustness_knobs_ignore_default_section_keys(tmp_path, capsys):
    cfg = write(tmp_path, "study.cfg", "[DEFAULT]\nnote = x\n" + STUDY_CFG
                + "\n[robustness]\nfilter_rates = 0.5\nnoise_stds =\n"
                "sampling_periods =\ndevice_pairs = 0:1\n")
    code, summary = run_cli(capsys, "robustness", cfg, "--out",
                            str(tmp_path / "out"))
    assert code == 0
    rows = Path(summary["filter"]).read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("1,0.5,")


def test_bad_relay_record_is_an_exchange_error(tmp_path, capsys):
    cfg = write(tmp_path, "scenario.cfg", SCENARIO_CFG)
    _, paths = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "sim"))
    # a well-framed record whose payload does not parse; replay only reads
    # the frames, so the relay serves it as it is
    payload = b"vcontact/1 processed\nt=0..60 zz:1..2\n"
    relay_dir = tmp_path / "relay"
    relay_dir.mkdir()
    (relay_dir / ProfileStore.LOG_NAME).write_bytes(
        b"record id=1 at=%d len=%d\n%s\n" % (int(time.time()), len(payload),
                                             payload))
    state = tmp_path / "state"
    with serve_in_thread(ProfileStore(relay_dir)) as server:
        code = main(["sync", "--endpoint", server.endpoint,
                     "--profile", paths["user"], "--state", str(state)])
    assert code == 1
    assert "record 1: line 2: bad signal id 'zz'" in capsys.readouterr().err
    assert not (state / "cursor").exists()
