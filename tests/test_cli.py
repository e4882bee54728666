import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordbialg import cli, relations, scans
from wordbialg.cli import ContentCache, main, resolve_relation
from wordbialg.scans import packed_contents

from test_scans import _counting_forks, _no_child_left, _within


def run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "wordbialg.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def test_classes_json():
    proc = run_cli(
        "classes", "--relation", "exotic-knuth", "--max-len", "4", "--format", "json"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["class_counts"] == [1, 1, 3, 9, 31]


def test_classes_generic_path():
    proc = run_cli(
        "classes", "--relation", "k-knuth", "--alphabet", "3",
        "--max-len", "4", "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["lengths"][2]["packed_words"] == 3


def test_classes_generic_path_defaults_alphabet_to_max_len():
    # every packed word of length 4 needs 4 letters; a 3-letter default
    # would report 51 words and 13 classes
    proc = run_cli(
        "classes", "--relation", "k-knuth", "--max-len", "4", "--format", "json"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["lengths"][4]["packed_words"] == 75
    assert payload["lengths"][4]["classes"] == 23
    assert payload["bounds"] == {"alphabet": 4, "max_len": 4, "headroom": 2}


def test_classes_requires_extended_for_long_lengths():
    proc = run_cli("classes", "--relation", "exotic-knuth", "--max-len", "8")
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "args",
    [
        ["classes", "--extended", "--max-len", "16"],
        ["conjectures", "--which", "exotic-sym", "--extended", "--max-len", "16"],
    ],
)
def test_uncodable_length_refused_before_any_work(args):
    # the level fill stops at 15: the refusal comes before length 0, not
    # after hours of work on the lengths below it
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "wordbialg.cli", *args],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 4 and not proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "not 16" in proc.stderr


def test_json_outputs_are_byte_stable():
    args = [
        "check", "--relation", "hecke", "--alphabet", "2",
        "--max-len", "4", "--format", "json",
    ]
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_check_cap_on_the_certificates_exits_3():
    # knuth at alphabet 3, max_len 6 closes 1,093 words; the headroom and
    # finite-type certificates close 3,280
    args = ["check", "--relation", "knuth", "--format", "json"]
    proc = run_cli(*args, "--cap", "2000")
    assert proc.returncode == 3
    assert "exceeds cap 2000" in proc.stderr and not proc.stdout
    assert run_cli(*args, "--cap", "3280").returncode == 0


def test_check_verdicts():
    proc = run_cli(
        "check", "--relation", "k-knuth", "--alphabet", "2",
        "--max-len", "4", "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert payload["algebraic"]["status"] == "pass"
    assert payload["uniformly_algebraic"]["status"] == "pass"
    assert payload["p_algebraic"]["status"] == "pass"
    assert payload["homogeneous"] is False
    assert payload["headroom_stable"] is True


def test_check_custom_presentation(tmp_path):
    spec = {
        "name": "swap-only",
        "generators": [["12", "21"]],
        "uniform": False,
    }
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(
        "check", "--relation", str(path), "--alphabet", "3",
        "--max-len", "4", "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert payload["algebraic"]["status"] == "pass"
    assert payload["uniformly_algebraic"]["status"] == "fail"


def test_coxeter_shorthand_and_json():
    pres = resolve_relation("coxeter-gap2")
    assert pres.coxeter.value(1, 3) == 3
    assert pres.coxeter.value(1, 2) == 2


def test_coxeter_json_presentation(tmp_path):
    spec = {
        "name": "universal",
        "coxeter_m": {"default": "inf", "overrides": []},
    }
    path = tmp_path / "cox.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(
        "check", "--relation", str(path), "--alphabet", "2",
        "--max-len", "3", "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert payload["algebraic"]["status"] == "pass"


def test_psi_word():
    proc = run_cli("psi", "--word", "312", "--character", "le", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["fundamental"] == [{"comp": [1, 2], "coeff": "1"}]


def test_psi_class():
    proc = run_cli(
        "psi", "--class-of", "2211", "--relation", "knuth",
        "--character", "le", "--degree", "4", "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert payload["schur"]["terms"] == [{"partition": [2, 2], "coeff": "1"}]
    assert payload["schur_positive"] is True


@pytest.mark.parametrize(
    "source", [["--word", "123"], ["--class-of", "12", "--relation", "hecke"]]
)
def test_psi_degree_zero_is_honoured(source, capsys):
    assert main(["psi", *source, "--degree", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 0
    assert payload["monomial"] == {"degree": 0, "terms": []}


@pytest.mark.parametrize(
    "source",
    [
        ["--word", ""],
        ["--class-of", "", "--relation", "knuth"],
        ["--class-of", "", "--relation", "hecke"],
    ],
)
def test_psi_of_the_empty_word_is_one(source, capsys):
    assert main(["psi", *source, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["monomial"]["terms"] == [{"comp": [], "coeff": "1"}]
    assert payload["schur"]["terms"] == [{"partition": [], "coeff": "1"}]


def test_psi_requires_input():
    assert main(["psi", "--character", "le"]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "--word", "0"],
        ["psi", "--word", "abc"],
        ["psi", "--character", "xx"],
        ["psi", "--word", "12", "--character", "xx"],
        ["psi", "--class-of", "1a"],
        ["psi", "--class-of", "12345", "--relation", "knuth", "--degree", "2"],
        ["psi", "--class-of", "1212121", "--relation", "hecke", "--degree", "4"],
        ["psi"],
        ["classes", "--relation", "no-such-relation"],
        ["check"],
        ["classes", "--max-len", "x"],
        ["classes", "--max-len", "-1"],
        ["check", "--relation", "knuth", "--alphabet", "0"],
        ["psi", "--word", "312", "--degree", "-3"],
        ["psi", "--class-of", "1", "--relation", "hecke", "--degree", "-1"],
        ["psi", "--word", "312", "--headroom", "-1"],
        ["classes", "--cap", "0"],
        ["classes", "--jobs", "0"],
        ["check", "--relation", "knuth", "--prime", "0"],
        ["conjectures", "--which", "nothing"],
        ["no-such-command"],
        [],
        # csv lists rows, and these answers have none
        ["check", "--relation", "knuth", "--max-len", "3", "--format", "csv"],
        ["psi", "--word", "312", "--format", "csv"],
        ["verify", "--suite", "identities", "--format", "csv"],
        ["conjectures", "--which", "weak-hecke", "--max-len", "3", "--format", "csv"],
        ["conjectures", "--which", "buch-samuel", "--max-len", "3", "--format", "csv"],
        # options the command does not read
        ["verify", "--suite", "axioms", "--max-len", "9"],
        ["conjectures", "--which", "exotic-sym", "--relation", "knuth"],
        ["check", "--relation", "knuth", "--jobs", "2"],
        ["psi", "--word", "312", "--cache-dir", "x"],
        # the closure path runs in one process and keeps no cache
        ["classes", "--relation", "knuth", "--alphabet", "3", "--jobs", "2"],
        ["classes", "--relation", "hecke", "--max-len", "3", "--jobs", "2"],
    ],
)
def test_input_errors_exit_with_the_usage_code(argv):
    proc = run_cli(*argv)
    assert proc.returncode == cli.EXIT_USAGE == 4
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1 and not proc.stdout


def test_classes_closure_path_refuses_jobs_and_cache_dir(tmp_path):
    cache = tmp_path / "X"
    proc = run_cli(
        "classes", "--relation", "knuth", "--alphabet", "3", "--max-len", "4",
        "--cache-dir", str(cache), "--jobs", "2",
    )
    assert proc.returncode == cli.EXIT_USAGE
    assert "--jobs" in proc.stderr and len(proc.stderr.strip().splitlines()) == 1
    assert not cache.exists()
    proc = run_cli(
        "classes", "--relation", "knuth", "--headroom", "1", "--max-len", "4",
        "--cache-dir", str(cache),
    )
    assert proc.returncode == cli.EXIT_USAGE and "--cache-dir" in proc.stderr
    assert not cache.exists()


@pytest.mark.parametrize(
    "spec",
    [
        ["knuth"],
        {"coxeter_m": 3},
        {"coxeter_m": {"overrides": [[1, 2]]}},
        {"union_of": [5]},
        {"union_of": "knuth"},
        {"builtin": ["knuth"]},
        {"generators": [[1, 2]]},
        {"generators": [["12"]]},
        {"union_of": ["hecke"], "generators": [["1", ""]]},
        "no-such-relation",
    ],
)
def test_malformed_relation_files_exit_with_the_usage_code(tmp_path, spec):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("classes", "--relation", str(path), "--max-len", "3")
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1 and not proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        # the Hecke class of 1213 grows without bound in the length
        ["psi", "--class-of", "1213", "--relation", "hecke", "--degree", "40",
         "--cap", "5000"],
        # the doubled union-find lists 3,145,726 run-reduced words of length <= 20
        ["conjectures", "--which", "weak-hecke", "--alphabet", "3", "--max-len", "9"],
        # huge bounds: the universe is weighed without computing its size
        ["check", "--relation", "knuth", "--max-len", "5000"],
        ["check", "--relation", "knuth", "--max-len", "10000000"],
        ["check", "--relation", "knuth", "--max-len", "100000000"],
        ["classes", "--relation", "hecke", "--extended", "--max-len", "100000"],
        ["conjectures", "--which", "weak-hecke", "--max-len", "100000000"],
        ["conjectures", "--which", "weak-hecke", "--alphabet", "1", "--max-len", "100000000"],
        # a universe of one word, but a billion letters to pair in the tables
        ["check", "--relation", "knuth", "--alphabet", "1000000000", "--max-len", "0"],
    ],
)
def test_capped_requests_exit_3(argv):
    proc = run_cli(*argv, timeout=5)
    assert proc.returncode == cli.EXIT_RESOURCE_CAP
    assert "exceeds cap" in proc.stderr and "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1 and not proc.stdout
    assert len(proc.stderr) < 200


@pytest.mark.parametrize(
    "argv",
    [
        # 2^39 coefficients at length 40 alone, for a class of 42 words
        ["psi", "--class-of", "1", "--relation", "hecke", "--degree", "40",
         "--cap", "1000"],
        ["psi", "--word", "1212121212121212121212121"],
        # the level fill of length 12 holds the 1,622,632,573 packed words of 11
        ["classes", "--relation", "exotic-knuth", "--max-len", "12", "--extended",
         "--cap", "10"],
        # the 7,087,261 packed words of length 9 exceed the default cap
        ["classes", "--relation", "exotic-knuth", "--max-len", "10", "--extended"],
        ["conjectures", "--which", "exotic-sym", "--max-len", "10", "--extended",
         "--cap", "10"],
    ],
)
def test_oversized_images_and_contents_are_refused_before_any_work(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "wordbialg.cli", *argv],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == cli.EXIT_RESOURCE_CAP and not proc.stdout
    assert "exceeds cap" in proc.stderr and "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_generators_longer_than_the_bound_are_not_listed():
    # k-knuth's generators have three letters, so at --max-len 0 (words of
    # at most two letters with the headroom) none of their injections into
    # 300 letters is listed; listing them took minutes and gigabytes
    proc = run_cli(
        "classes", "--relation", "k-knuth", "--alphabet", "300", "--max-len", "0",
        "--format", "json", timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["class_counts"] == [1]


def test_fill_weight_skips_the_finished_lengths():
    # one rank per packed word one length down: 11, 12 and 21 for length 3
    assert scans.fill_weight(3, {}) == 3 and scans.fill_weight(0, {}) == 0
    assert scans.fill_weight(9, {}) == 545_835 and scans.fill_weight(10, {}) == 7_087_261
    assert scans.fill_weight(3, {(1, 1, 1): {}}) == 3
    assert scans.fill_weight(3, dict.fromkeys(packed_contents(3))) == 0


def test_capped_class_exits_before_listing_it():
    # at the default cap the Hecke class of 1213 within length 42 is weighed
    # by its run fibers and refused before any fiber is listed; a wrapper
    # interpreter reads the peak RSS of its only child, the CLI
    probe = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'wordbialg.cli', 'psi',"
        " '--class-of', '1213', '--relation', 'hecke', '--degree', '40'],"
        " capture_output=True, text=True)\n"
        "sys.stdout.write(proc.stderr)\n"
        "print(proc.returncode, proc.stdout == '',"
        " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    *stderr, last = out
    code, quiet, peak_kb = last.split()
    assert int(code) == cli.EXIT_RESOURCE_CAP and quiet == "True"
    assert len(stderr) == 1 and "exceeds cap 2000000" in stderr[0]
    assert int(peak_kb) < 150 * 1024


@pytest.mark.parametrize("failure", ["killed", "memory"])
def test_a_failed_scan_child_exits_3_without_a_traceback(monkeypatch, capsys, failure):
    # forks forced on any host; the child of length 7 fails on its second content
    _counting_forks(monkeypatch)
    scan = scans._scan_content
    doomed, parent = packed_contents(7)[3], os.getpid()

    def failing(content):
        if content == doomed and os.getpid() != parent:
            if failure == "killed":  # as the OOM killer would end it
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError
        return scan(content)

    monkeypatch.setattr(scans, "_scan_content", failing)
    argv = ["conjectures", "--which", "exotic-sym", "--max-len", "7", "--extended", "--jobs", "2"]
    with _within(30):
        assert main(argv) == cli.EXIT_RESOURCE_CAP == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert ("killed by signal" if failure == "killed" else "out of memory") in err
    assert _no_child_left()


def test_closed_stdout_exits_with_the_broken_pipe_code():
    # the reader closes the pipe before the answer is written, as ``| head``
    # does once it has its lines
    proc = subprocess.Popen(
        [sys.executable, "-m", "wordbialg.cli", "check", "--relation", "hecke",
         "--alphabet", "3", "--max-len", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE
    assert stderr == ""


def test_conjectures_weak_hecke():
    proc = run_cli(
        "conjectures", "--which", "weak-hecke", "--alphabet", "3",
        "--max-len", "3", "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["mismatches"] == []


def test_conjectures_exotic_small():
    proc = run_cli(
        "conjectures", "--which", "exotic-schur-positive",
        "--max-len", "4", "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["all_symmetric"] and payload["all_schur_positive"]


@pytest.mark.parametrize("suite", ["axioms", "duality", "oracles", "identities"])
def test_verify_suites(suite):
    assert main(["verify", "--suite", suite, "--format", "json"]) == 0


def test_classes_csv():
    proc = run_cli(
        "classes", "--relation", "exotic-knuth", "--max-len", "3",
        "--format", "csv",
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "length,packed_words,classes"
    assert lines[-1] == "3,13,9"


def test_scan_cache_resume(tmp_path):
    args = [
        "conjectures", "--which", "exotic-sym", "--max-len", "3",
        "--cache-dir", str(tmp_path), "--format", "json",
    ]
    first = run_cli(*args)
    cached = run_cli(*args)
    assert first.returncode == cached.returncode == 0
    assert json.loads(first.stdout) == json.loads(cached.stdout)
    assert list(tmp_path.iterdir())


def test_scan_cache_resume_csv_is_byte_identical(tmp_path, capsys):
    args = [
        "conjectures", "--which", "exotic-sym", "--max-len", "4",
        "--format", "csv",
    ]
    assert main(args) == 0
    fresh = capsys.readouterr().out
    assert fresh.count("\n") == 1 + (1 + 1 + 3 + 9 + 31)  # header, classes
    cached = args + ["--cache-dir", str(tmp_path)]
    assert main(cached) == 0
    assert capsys.readouterr().out == fresh
    (path,) = tmp_path.iterdir()
    rows = path.read_bytes().splitlines(keepends=True)
    # an interrupted run: two contents cached, the rest recomputed
    path.write_bytes(b"".join(rows[:2]))
    assert main(cached) == 0
    assert capsys.readouterr().out == fresh
    assert len(path.read_bytes().splitlines()) == len(rows)
    # every content cached
    assert main(cached) == 0
    assert capsys.readouterr().out == fresh


@pytest.mark.parametrize("cut", [1, 9])
def test_content_cache_drops_torn_tail(tmp_path, cut):
    signature = {"command": "test"}
    cache = ContentCache(str(tmp_path), signature)
    for content in [(1,), (2,), (1, 1)]:
        cache.record(content, {"classes": 1})
    data = open(cache.path, "rb").read()
    # an append interrupted before the end of the last row
    with open(cache.path, "wb") as fh:
        fh.write(data[:-cut])
    resumed = ContentCache(str(tmp_path), signature)
    assert set(resumed.done) == {(1,), (2,)}
    resumed.record((1, 1), {"classes": 1})
    assert open(cache.path, "rb").read() == data
    assert set(ContentCache(str(tmp_path), signature).done) == {(1,), (2,), (1, 1)}


def test_scan_resumes_after_torn_cache_row(tmp_path, capsys):
    args = [
        "conjectures", "--which", "exotic-sym", "--max-len", "4",
        "--cache-dir", str(tmp_path), "--format", "json",
    ]
    assert main(args) == 0
    fresh = capsys.readouterr().out
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - len(data.splitlines()[-1]) // 2 - 1])
    assert main(args) == 0
    assert capsys.readouterr().out == fresh
    assert path.read_bytes().count(b"\n") == data.count(b"\n")


def test_content_cache_ignores_stale_versions(tmp_path, monkeypatch):
    signature = {"command": "test"}
    row = json.dumps({"content": [1], "classes": 99}) + "\n"
    # the file an engine without a cache version would have written
    (tmp_path / f"scan-{cli._cache_key(signature)}.jsonl").write_text(row)
    assert ContentCache(str(tmp_path), signature).done == {}
    ContentCache(str(tmp_path), signature).record((1,), {"classes": 1})
    assert set(ContentCache(str(tmp_path), signature).done) == {(1,)}
    monkeypatch.setattr(cli, "CACHE_VERSION", cli.CACHE_VERSION + 1)
    assert ContentCache(str(tmp_path), signature).done == {}


def test_version_3_cache_rows_resume_with_nothing_recomputed(tmp_path, monkeypatch):
    # rows as CACHE_VERSION 3 writes them, under the file names it gives
    # them: a change to the version, the key or the row layout recomputes
    assert cli.CACHE_VERSION == 3
    counts = {"command": "classes", "relation": "exotic-knuth", "length": 3}
    (tmp_path / "scan-bdd98456f067dfd3.jsonl").write_text(
        '{"classes": 4, "content": [1, 1, 1], "words": 6}\n'
        '{"classes": 1, "content": [1, 2], "words": 3}\n'
        '{"classes": 3, "content": [2, 1], "words": 3}\n'
        '{"classes": 1, "content": [3], "words": 1}\n'
    )
    verdicts = {
        "command": "conjectures", "which": "exotic-sym", "bases": ["Q"], "max_len": 3,
    }
    row = '{"classes": %d, "content": %s, "non_positive": [], "non_symmetric": [], '
    row += '"positive": %d, "symmetric": %d}\n'
    (tmp_path / "scan-c7b744046f39c0f5.jsonl").write_text(
        "".join(row % (n, content, n, n) for content, n in
                [([1, 1, 1], 4), ([1, 2], 1), ([2, 1], 3), ([3], 1)])
    )
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    peak = ("gt", "le")
    fresh = scans.positivity_scan_homogeneous("exotic-knuth", 3, peak, ("Q",))

    def recompute(content):
        raise AssertionError(f"content {content} recomputed")

    monkeypatch.setattr(scans, "_count_content", recompute)
    monkeypatch.setattr(scans, "_scan_content", recompute)
    cache = ContentCache(str(tmp_path), counts)
    assert scans.packed_class_count("exotic-knuth", 3, cache=cache) == (9, 13)
    cache = ContentCache(str(tmp_path), verdicts)
    resumed = scans.positivity_scan_homogeneous(
        "exotic-knuth", 3, peak, ("Q",), cache=cache
    )
    assert resumed == fresh
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


def _load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("stage", ["count_stage", "scan_stage"])
def test_reproduce_extended_resumes_an_interrupted_stage(tmp_path, monkeypatch, stage):
    run = getattr(_load_script("reproduce_extended"), stage)
    fresh = run(6, 1, None)
    record = ContentCache.record
    recorded = []

    def interrupted(self, content, payload):
        if len(recorded) == 3:
            raise KeyboardInterrupt
        recorded.append(content)
        record(self, content, payload)

    monkeypatch.setattr(ContentCache, "record", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(6, 1, str(tmp_path))

    def counting(self, content, payload):
        recorded.append(content)
        record(self, content, payload)

    # the resumed run computes only the contents the first one did not record
    monkeypatch.setattr(ContentCache, "record", counting)
    assert run(6, 1, str(tmp_path)) == fresh
    assert sorted(recorded) == sorted(packed_contents(6))
    recorded.clear()
    assert run(6, 1, str(tmp_path)) == fresh
    assert recorded == []


def test_classes_splits_by_content_for_builtins_only(tmp_path, capsys):
    # a built-in, named or as a {"builtin": ...} file, takes the content-sliced
    # scan, whose bounds carry no headroom; the same pairs under another
    # name close a universe
    builtin = tmp_path / "builtin.json"
    builtin.write_text(json.dumps({"builtin": "knuth"}))
    pairs = [["213", "231"], ["212", "221"], ["132", "312"], ["121", "211"]]
    explicit = tmp_path / "explicit.json"
    explicit.write_text(
        json.dumps({"name": "pairs", "uniform": True, "generators": pairs})
    )
    # and other pairs under a built-in's name are not that built-in
    impostor = tmp_path / "impostor.json"
    impostor.write_text(
        json.dumps({"name": "knuth", "uniform": True, "generators": [["12", "21"]]})
    )
    payloads = []
    for spec in ("knuth", str(builtin), str(explicit), str(impostor)):
        args = ["classes", "--relation", spec, "--max-len", "4", "--format", "json"]
        assert main(args) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    named, from_file, closed, commutation = payloads
    assert "headroom" not in named["bounds"] and named == from_file
    assert closed["bounds"]["headroom"] == 0
    assert closed["class_counts"] == named["class_counts"] == [1, 1, 3, 9, 33]
    assert commutation["bounds"]["headroom"] == 0
    assert commutation["class_counts"] == [1, 1, 2, 4, 8]


def test_classes_closes_a_builtin_over_the_given_bounds(capsys):
    # --alphabet or --headroom take the closure over those bounds, not the
    # content-sliced scan, which holds neither
    inst = relations.close(relations.builtin_relation("knuth"), 2, 4)
    two_letters = [len(inst.packed_classes(n)) for n in range(5)]
    assert two_letters == [1, 1, 3, 5, 8]
    for flag, value, bounds, counts in (
        ("--alphabet", "2", {"alphabet": 2, "max_len": 4, "headroom": 0}, two_letters),
        ("--headroom", "1", {"alphabet": 4, "max_len": 4, "headroom": 1}, [1, 1, 3, 9, 33]),
    ):
        argv = ["classes", "--relation", "knuth", flag, value, "--max-len", "4"]
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bounds"] == bounds and payload["class_counts"] == counts


def _limit_address_space():
    limit = 1_500_000_000
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("name", ["knuth", "hecke", "k-knuth", "exotic-knuth"])
def test_class_of_far_apart_letters_compiles_only_the_seed_letters(name):
    # the rewrites are compiled over the letters 1 and 100000 alone, not
    # over every letter up to 100000, so the class answers in 1.5 GB
    def psi(seed, **limits):
        proc = subprocess.run(
            [sys.executable, "-m", "wordbialg.cli", "psi", "--class-of", seed,
             "--relation", name, "--format", "json"],
            capture_output=True, text=True, timeout=60, **limits,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        del payload["class_of"]
        return payload

    far = psi("1,100000", preexec_fn=_limit_address_space)
    if name != "hecke":  # uniform relations see only the order of the letters
        assert far == psi("12")
    else:  # 1 and 100000 commute as 1 and 3 do
        assert far == psi("13")


def test_classify_builtins_script_matches_the_library():
    # the script's table, row by row, against the library's own checks
    script = Path(__file__).resolve().parent.parent / "scripts" / "classify_builtins.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--alphabet", "3", "--max-len", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    rows = {
        cells[0]: [cell == "yes" for cell in cells[1:6]]
        for cells in map(str.split, proc.stdout.splitlines()[2:])
    }
    presentations = [relations.builtin_relation(n) for n in relations.BUILTIN_NAMES]
    presentations.append(
        relations.coxeter_relation(relations.gap_braid_m(2), "coxeter-gap2")
    )
    assert list(rows) == [pres.name for pres in presentations]
    for pres in presentations:
        inst = relations.close(pres, 3, 4)
        assert rows[pres.name] == [
            relations.is_homogeneous_observed(inst),
            relations.check_algebraic(inst)["status"] == "pass",
            relations.check_uniformly_algebraic(inst)["status"] == "pass",
            relations.check_p_algebraic(inst)["status"] == "pass",
            relations.is_finite_type_bounded(inst)["stable"],
        ], pres.name


def test_reproduce_extended_counts_share_the_classes_cache(tmp_path, monkeypatch, capsys):
    # the script's count stage resumes from the rows `classes --extended` wrote
    opened = []

    def count(name, length, jobs=1, cache=None):
        opened.append(cache.path)
        return 0, 0

    script = _load_script("reproduce_extended")
    monkeypatch.setattr(scans, "packed_class_count", count)
    monkeypatch.setattr(script, "packed_class_count", count)
    args = ["classes", "--max-len", "8", "--extended", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    script.count_stage(8, 1, str(tmp_path))
    assert opened[-2] == opened[-1] and Path(opened[-1]).parent == tmp_path


def _commands():
    """Each subcommand's parser, by name."""
    (action,) = [
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _options(parser):
    return [a for a in parser._actions if a.option_strings and a.dest != "help"]


def test_the_commands_declare_34_options():
    counts = {name: len(_options(p)) for name, p in _commands().items()}
    assert counts == {"classes": 9, "check": 7, "psi": 8, "conjectures": 8, "verify": 2}


class _Reads:
    """Parsed options that note which of them a command reads."""

    def __init__(self, values):
        self.values, self.read = values, set()

    def __getattr__(self, name):
        self.read.add(name)
        return self.values[name]


@pytest.mark.parametrize(
    "runs",
    [
        # one run per branch of the command, refusals included
        [
            ["classes", "--max-len", "3"],
            ["classes", "--relation", "k-knuth", "--max-len", "2"],
            ["classes", "--max-len", "8"],
            ["classes", "--max-len", "8", "--extended", "--cap", "10"],
        ],
        [["check", "--relation", "knuth", "--alphabet", "2", "--max-len", "2"]],
        [["psi", "--word", "12"], ["psi", "--class-of", "12", "--relation", "hecke"]],
        [
            ["conjectures", "--which", "weak-hecke", "--max-len", "2"],
            ["conjectures", "--which", "exotic-sym", "--max-len", "2"],
            ["conjectures", "--which", "exotic-sym", "--max-len", "8"],
        ],
        [["verify", "--suite", "identities"]],
    ],
)
def test_each_command_declares_the_options_it_reads(runs, capsys):
    parser = cli.build_parser()
    read = set()
    for argv in runs:
        args = _Reads(vars(parser.parse_args(argv)))
        with contextlib.suppress(cli.Refusal):
            args.func(args)
        read |= args.read
    assert read - {"func"} == {a.dest for a in _options(_commands()[runs[0][0]])}


# each option's (valid, invalid) values: one in eight draws is invalid
_INTEGERS = (("0", "1", "2", "3", str(10**9)), ("-1", "x", "1.5"))
_WORDS = (("312", "1212", "21", ""), ("0", "1a"))
_VALUES = {
    "relation": (("knuth", "hecke", "k-knuth", "exotic-knuth", "coxeter-gap2"), ("none",)),
    "word": _WORDS,
    "class_of": _WORDS,
    "character": (("le", "gt-le", "lt-ge"), ("xx",)),
    "cache_dir": (("CACHE",), ("CACHE",)),
    # no pool wider than the CPUs, no cap above the default
    "jobs": (("1", str(min(2, scans._usable_cpus()))), ("0", "-1", "x")),
    "cap": (("1", "3", "1000", str(relations.DEFAULT_CAP)), ("0", "-1", "x")),
}


@st.composite
def _argv(draw):
    """A subcommand with a draw of its own options: required ones always,
    the others at random."""
    name, parser = draw(st.sampled_from(sorted(_commands().items())))
    argv = [name]
    for action in _options(parser):
        if not (action.required or draw(st.booleans())):
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            good, bad = (
                (action.choices, ("none",)) if action.choices
                else _VALUES.get(action.dest, _INTEGERS)
            )
            argv.append(draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 7 else good)))
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
@example(argv=["check", "--relation", "knuth", "--alphabet", str(10**9),
               "--max-len", "0", "--headroom", "0"])
@example(argv=["conjectures", "--which", "weak-hecke", "--alphabet", "1",
               "--max-len", str(10**9)])
@example(argv=["psi", "--class-of", "1212", "--relation", "hecke", "--degree", str(10**9)])
@example(argv=["psi", "--class-of", "", "--relation", "hecke", "--headroom", str(10**9)])
def test_random_argv_exits_with_a_documented_code(argv, tmp_path_factory):
    argv = [str(tmp_path_factory.getbasetemp() / "cache") if a == "CACHE" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse's usage errors
            code = stop.code
    assert time.perf_counter() - t0 < 5, argv
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code in (3, 4):
        assert err.getvalue().count("\n") == 1 and not out.getvalue(), argv


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"`wordbialg ([a-z]+ --[^`]*)`", section)
    assert len(examples) >= 4
    for line in examples:
        assert main(line.split()) == 0, line
