import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plethlab
from plethlab import cli, plethysm

# subprocesses import the package from the same src as this process
_SRC = str(Path(cli.__file__).resolve().parents[1])
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))),
}


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "plethlab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_ENV,
    )
    return proc


def records(proc):
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_coeff_command():
    proc = run_cli("coeff", "--nu", "4", "--lambda", "2", "--mu", "2")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["command"] == "coeff"
    assert rec["output"] == 1
    assert rec["inputs"] == {"nu": "4", "lambda": "2", "mu": "2"}
    assert rec["engine"].startswith("plethlab-")
    assert "wall_ms" not in rec


def test_coeff_with_oracle_cross_check():
    proc = run_cli("coeff", "--nu", "2,2", "--lambda", "2", "--mu", "1,1", "--oracle")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["verification"]["ok"] is True


def test_lr_command():
    proc = run_cli("lr", "--nu", "3,2,1", "--lambda", "2,1", "--mu", "2,1")
    assert proc.returncode == 0
    assert records(proc)[0]["output"] == 2


def test_plethysm_command():
    proc = run_cli("plethysm", "--lambda", "1,1", "--mu", "2", "--oracle")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["output"]["expansion"] == {"3,1": 1}
    assert rec["verification"]["ok"] is True


def test_sequence_command_matches_known_family():
    proc = run_cli(
        "sequence", "--sigma", "2,1", "--tau", "2,1", "--l", "1", "--m", "1",
        "--jmax", "4",
    )
    assert proc.returncode == 0
    (rec,) = records(proc)
    out = rec["output"]
    assert out["values"] == [1, 1, 1, 1, 1]
    assert out["stabilization_index"] == 0
    assert out["window_confirmed"] is True


def test_sequence_csv_format():
    proc = run_cli(
        "sequence", "--sigma", "4", "--tau", "2", "--l", "2", "--m", "2",
        "--jmax", "2", "--format", "csv",
    )
    assert proc.returncode == 0
    assert proc.stdout == "j,value\n0,1\n1,1\n2,1\n"


def test_usage_errors_exit_2():
    assert run_cli("coeff", "--nu", "1,2", "--lambda", "2", "--mu", "2").returncode == 2
    assert run_cli("coeff", "--nu", "4", "--lambda", "2").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert (
        run_cli("sequence", "--sigma", "1", "--tau", "1", "--l", "3", "--m", "2").returncode
        == 2
    )


def test_scan_outputs_are_byte_identical():
    args = ("scan", "--tau-sizes", "0,1", "--m", "2", "--jmax", "6", "--window", "3")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert records(a)[-1]["aggregate"]["not_stabilized"] == []


def test_scan_emits_conjectured_violation_but_passes():
    proc = run_cli("scan", "--tau-sizes", "0", "--m", "2", "--jmax", "5", "--window", "3")
    assert proc.returncode == 0
    warnings = [r for r in records(proc) if "warning" in r]
    assert len(warnings) == 1
    assert warnings[0]["cell"]["l"] == 1 and warnings[0]["cell"]["m"] == 2


def test_timing_flag_adds_wall_time():
    proc = run_cli("--timing", "coeff", "--nu", "4", "--lambda", "2", "--mu", "2")
    (rec,) = records(proc)
    assert isinstance(rec["wall_ms"], int)


def test_cache_round_trip_and_transparency(tmp_path):
    cache = tmp_path / "coefficients.tsv"
    base = run_cli("verify")
    with_cold_cache = run_cli("--cache", str(cache), "verify")
    assert cache.exists() and cache.stat().st_size > 0
    with_warm_cache = run_cli("--cache", str(cache), "verify")
    assert base.returncode == 0
    assert base.stdout == with_cold_cache.stdout == with_warm_cache.stdout
    for line in cache.read_text(encoding="utf-8").splitlines():
        key, value = line.split("\t")
        assert len(key.split("|")) == 3
        int(value)


def test_corrupt_cache_is_ignored_with_warning(tmp_path):
    cache = tmp_path / "coefficients.tsv"
    cache.write_text("not a record\n4|2|2\t1\nbad|key\tNaN\n", encoding="utf-8")
    proc = run_cli("--cache", str(cache), "coeff", "--nu", "4", "--lambda", "2", "--mu", "2")
    assert proc.returncode == 0
    assert records(proc)[0]["output"] == 1
    assert "corrupt cache line" in proc.stderr


def test_records_round_trip_through_serialization():
    proc = run_cli("coeff", "--nu", "4", "--lambda", "2", "--mu", "2")
    line = proc.stdout.strip()
    rec = json.loads(line)
    assert json.dumps(rec, sort_keys=True, separators=(",", ":")) == line


_FAILING_SAVE = """
import resource
import signal
import sys
from pathlib import Path

from plethlab import cli

cache = Path(sys.argv[1])
# writes past 4 KiB fail with EFBIG instead of killing the process
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
try:
    cli._save_cache(cache, {f"{n}|{n}|1": n for n in range(1, 2000)})
except OSError:
    pass
else:
    sys.exit("the oversized write did not fail")
"""


def test_cache_write_failing_partway_leaves_the_old_store(tmp_path):
    cache = tmp_path / "coefficients.tsv"
    cli._save_cache(cache, {"4|2|2": 1, "2,2|2|1,1": 1})
    old = cache.read_bytes()
    assert old == b"2,2|2|1,1\t1\n4|2|2\t1\n"
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_SAVE, str(cache)],
        capture_output=True,
        text=True,
        env=_ENV,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert cache.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [cache.name]


# ---------------------------------------------------------------------------
# In-process runs: the oracle failure paths and where --timing adds wall_ms
# ---------------------------------------------------------------------------


def run_main(capsys, *args):
    code = cli.main(list(args))
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_cache_is_written_only_when_the_run_adds_entries(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "coefficients.tsv"
    saves = []
    save = cli._save_cache

    def counted(path, store):
        saves.append(len(store))
        save(path, store)

    monkeypatch.setattr(cli, "_save_cache", counted)
    args = ("--cache", str(cache), "coeff", "--nu", "4,2", "--lambda", "3", "--mu", "2")
    cold_code, cold = run_main(capsys, *args)
    assert cold_code == cli.EXIT_OK and len(saves) == 1 and saves[0] > 0
    stored = cache.read_bytes()
    warm_code, warm = run_main(capsys, *args)
    assert (warm_code, warm) == (cold_code, cold)
    assert len(saves) == 1 and cache.read_bytes() == stored


def test_default_scan_output_is_pinned(capsys):
    # the scan users run by default, byte for byte
    assert cli.main(["scan"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 604
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "e0bd7861d99a8fc3bd144e62f02c22bc363333973e76ce6fea2ebc98c9ef686c"
    )


def test_m4_scan_output_is_pinned(capsys):
    # m = 4 goes through the row tables, where the envelope prunes the most
    # shapes; no benchmark digest covers it
    assert cli.main(["scan", "--m", "4", "--tau-sizes", "0,1,2,3"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1406
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "ebe0b7a008589582a07bdafcf928a2d5424540cc07b44f957f3f9f3ae7918f42"
    )


def test_m5_scan_output_is_pinned(capsys):
    # m = 5 row tables, built by horizontal strips of five ribbons
    assert cli.main(["scan", "--m", "5", "--tau-sizes", "0,1,2", "--jmax", "9"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 553
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f77e980af446c75f06bec043b3eaf3cd3ca16f59acf3d8faa0a8547873475720"
    )


def test_thick_scan_output_is_pinned(capsys, monkeypatch):
    # tau sizes of 6 reach outer hooks with min(rows, columns) = 6; the row
    # route answers them all, so character pairing is never reached
    def fallback(*args):
        raise AssertionError(f"character pairing reached for {args}")

    monkeypatch.setattr(plethysm, "_coefficient_by_characters", fallback)
    args = ["scan", "--tau-sizes", "6", "--m", "2", "--l", "1", "--jmax", "6", "--window", "3"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 848
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "82e260fb13f7dd25015d2d0f45bbc0ac0f20b49beee67038a80ef40677e93184"
    )


@pytest.mark.parametrize(
    "args, values, digest",
    [
        # lambda_j has more than three rows from j = 3 on, so these values
        # come from the e tables
        (
            ["--sigma", "5,4", "--tau", "3", "--l", "2"],
            [0, 2, 3, 3, 3, 3, 3, 3, 3],
            "09969e23a2c1e90606bb88d9ada9d4e77625e9247f3dc69f48afcf52d1e16595",
        ),
        (
            ["--sigma", "5,4", "--tau", "3", "--l", "2", "--format", "csv"],
            [0, 2, 3, 3, 3, 3, 3, 3, 3],
            "249950bab8b4fb43bddc7d513f1fe29e48bb418979b65f4f2c9dc88308a68931",
        ),
        (
            ["--sigma", "4,2,1/1", "--tau", "2,1/1", "--l", "3"],
            [1, 3, 3, 3, 3, 3, 3, 3, 3],
            "027c68b55d6571f97a625b6e1aabc9b8204eb1b6afe683ad9db41c009b68b162",
        ),
    ],
    ids=["straight", "straight-csv", "skew"],
)
def test_m3_sequence_output_is_pinned(args, values, digest):
    # a fresh process, so coefficient_sequence warms the row tables itself
    # rather than finding them warmed by a scan's batch
    proc = run_cli("sequence", *args, "--m", "3", "--jmax", "8")
    assert proc.returncode == 0, proc.stderr
    if "csv" in args:
        rows = proc.stdout.splitlines()
        assert rows[0] == "j,value"
        assert [int(row.split(",")[1]) for row in rows[1:]] == values
    else:
        assert records(proc)[0]["output"]["values"] == values
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_coeff_oracle_mismatch_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "plethysm_oracle", lambda lam, mu: {})
    code, (rec,) = run_main(capsys, "coeff", "--nu", "4", "--lambda", "2", "--mu", "2", "--oracle")
    assert code == cli.EXIT_VERIFICATION
    assert rec["output"] == 1
    assert rec["verification"] == {"oracle": 0, "ok": False}


def test_coeff_oracle_compares_empty_shapes(monkeypatch, capsys):
    # nu|lambda|mu triples with an empty shape, and what the oracle says
    for lam, mu, expected in (("2", "0", 1), ("0", "2", 1), ("2,1", "0", 0)):
        code, (rec,) = run_main(capsys, "coeff", "--nu", "0", "--lambda", lam, "--mu", mu, "--oracle")
        assert code == cli.EXIT_OK
        assert rec["output"] == expected
        assert rec["verification"] == {"oracle": expected, "ok": True}
    # three empty shapes: the documented convention gap, no comparison made
    code, (rec,) = run_main(capsys, "coeff", "--nu", "0", "--lambda", "0", "--mu", "0", "--oracle")
    assert code == cli.EXIT_OK
    assert rec["verification"] == {"oracle": None, "ok": True}
    monkeypatch.setattr(cli, "plethysm_oracle", lambda lam, mu: {})
    code, (rec,) = run_main(capsys, "coeff", "--nu", "0", "--lambda", "2", "--mu", "0", "--oracle")
    assert code == cli.EXIT_VERIFICATION
    assert rec["verification"] == {"oracle": 0, "ok": False}


def test_scan_l_that_fits_no_m_is_a_usage_error(capsys):
    assert cli.main(["scan", "--m", "2", "--tau-sizes", "1", "--l", "5"]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert "l=5" in out.err
    # l = 3 fits m = 3, so the scan runs that row size alone
    code, recs = run_main(
        capsys, "scan", "--m", "2,3", "--tau-sizes", "1", "--l", "3", "--jmax", "6", "--window", "3"
    )
    assert code == cli.EXIT_OK
    assert [(r["cell"]["l"], r["cell"]["m"]) for r in recs[:-1]] == [(3, 3)] * 3
    assert recs[-1]["aggregate"]["cells"] == 3


def test_scan_l_values_are_a_set_like_m_and_tau_sizes(capsys):
    # a repeated l is one l, and the order given does not matter
    code, recs = run_main(capsys, "scan", "--l", "1,1", "--m", "2", "--tau-sizes", "1")
    assert code == cli.EXIT_OK
    assert [(r["cell"]["target"], r["cell"]["l"]) for r in recs[:-1]] == [("2", 1), ("1,1", 1)]
    assert recs[-1]["aggregate"]["cells"] == 2
    outputs = []
    for l in ("2,0", "0,2"):
        assert cli.main(["scan", "--l", l, "--m", "2", "--tau-sizes", "1"]) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_closed_output_pipe_exits_141_without_a_traceback(tmp_path):
    # the default scan writes more than a pipe buffer holds, so a write after
    # the reader has gone fails; the grown cache is still saved
    cache = tmp_path / "coefficients.tsv"
    with subprocess.Popen(
        [sys.executable, "-m", "plethlab.cli", "--cache", str(cache), "scan"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_ENV,
    ) as proc:
        assert proc.stdout.readline().startswith(b'{"cell":')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert b"Traceback" not in err, err.decode()
    assert cache.stat().st_size > 0


def test_scan_bad_m_is_a_usage_error_that_names_it(capsys):
    for m in ("-1", "0"):
        assert cli.main(["scan", "--m", m, "--tau-sizes", "1"]) == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: m must be a positive integer, got {m}\n"


def test_scan_empty_list_is_a_usage_error_that_names_it(capsys):
    for option in ("--m", "--tau-sizes", "--l"):
        assert cli.main(["scan", option, ""]) == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {option} needs at least one integer\n"


def test_scan_malformed_list_is_a_usage_error_that_names_it(capsys):
    for option, text in (("--m", "2,"), ("--tau-sizes", "x"), ("--l", "1,,2")):
        assert cli.main(["scan", option, text]) == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {option} needs comma-separated integers, got {text!r}\n"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # every CLI call pays for this import; -S keeps site's own imports out
    code = "import sys, plethlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_engine_tag_carries_the_pyproject_version():
    # every JSONL record names its engine by this version
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert plethlab.__version__ == version
    assert cli._ENGINE_TAG == f"plethlab-{version}"


def test_scan_negative_tau_size_is_a_usage_error_that_names_it(capsys):
    assert cli.main(["scan", "--m", "2", "--tau-sizes", "1,-2"]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: tau sizes must be nonnegative, got -2\n"


def test_plethysm_oracle_mismatch_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "plethysm_oracle", lambda lam, mu: {})
    code, (rec,) = run_main(capsys, "plethysm", "--lambda", "1,1", "--mu", "2", "--oracle")
    assert code == cli.EXIT_VERIFICATION
    assert rec["output"]["expansion"] == {"3,1": 1}
    assert rec["verification"] == {"ok": False}


def test_plethysm_without_oracle_has_no_verification(capsys):
    code, (rec,) = run_main(capsys, "plethysm", "--lambda", "2", "--mu", "2")
    assert code == cli.EXIT_OK
    assert rec["output"]["expansion"] == {"2,2": 1, "4": 1}
    assert "verification" not in rec


def test_verify_reports_the_failing_check_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "plethysm_oracle", lambda lam, mu: {})
    code, recs = run_main(capsys, "verify")
    assert code == cli.EXIT_VERIFICATION
    checks = {r["check"]: r for r in recs[:-1]}
    assert checks.pop("oracle_equivalence") == {
        "command": "verify",
        "check": "oracle_equivalence",
        "cases": 0,
        "ok": False,
        "engine": cli._ENGINE_TAG,
    }
    assert len(checks) == 5
    assert all(r["ok"] and r["cases"] > 0 for r in checks.values())
    assert recs[-1]["summary"] == {"ok": False}


def test_verify_case_counts_and_where_timing_goes(capsys):
    code, recs = run_main(capsys, "--timing", "verify")
    assert code == cli.EXIT_OK
    assert {r["check"]: r["cases"] for r in recs[:-1]} == {
        "oracle_equivalence": 73,
        "classical_anchors": 4,
        "involution": 29,
        "lr_symmetry": 1110,
        "reduction_matches_direct": 28,
        "growth_identity": 123,
    }
    assert [isinstance(r.get("wall_ms"), int) for r in recs] == [True] * 6 + [False]
    code, recs = run_main(
        capsys, "--timing", "scan", "--tau-sizes", "0", "--m", "2", "--jmax", "5", "--window", "3"
    )
    assert code == cli.EXIT_OK
    assert any("warning" in r for r in recs)
    assert "aggregate" in recs[-1] and isinstance(recs[-1]["wall_ms"], int)
    assert all("wall_ms" not in r for r in recs[:-1])
