import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import locsol
from locsol import cache, cli
from locsol.cache import CacheStore, load_verdicts, save_verdicts
from locsol.cli import main
from locsol.solubility import clear_caches
from locsol.verification import ItemResult


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:   # argparse exits with 2 on bad usage
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_insoluble_at_two(capsys):
    code, out, _ = run(capsys, "decide", "-k", "2", "-p", "2", "1", "1", "1")
    assert code == 1
    assert "insoluble" in out


def test_decide_soluble_with_checkable_witness(capsys):
    for k, p, coefficients in ((2, 2, ("1", "1", "3")),
                               (5, 5, ("1", "2", "3", "4", "6"))):
        code, out, _ = run(capsys, "decide", "-k", str(k), "-p", str(p),
                           "--format", "json", *coefficients)
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "soluble"
        level = rec["certificate_level"]
        total = sum(a * w**k for a, w in zip(rec["witness_form"],
                                             rec["witness"]))
        assert total % p**level == 0
        assert any(w % p for w in rec["witness"])


def test_decide_no_witness_flag(capsys):
    code, out, _ = run(capsys, "decide", "-k", "2", "-p", "2",
                       "--no-witness", "1", "1", "3")
    assert code == 0
    assert "witness" not in out


def test_decide_everywhere(capsys):
    code, out, _ = run(capsys, "decide", "-k", "2", "1", "1", "1", "1")
    assert code == 1
    assert "place real: insoluble" in out
    assert "overall: insoluble" in out
    code, out, _ = run(capsys, "decide", "-k", "2", "1", "1", "-3", "1")
    assert code == 0
    assert "overall: soluble" in out


def test_decide_everywhere_skips_a_prime_that_cannot_obstruct(capsys):
    # 1, 1, 1 are three units at p = 3, which is not pathological for
    # k = 2, so only p = 2 is tested
    code, out, _ = run(capsys, "decide", "-k", "2", "--format", "json",
                       "1", "1", "-3", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["tested_primes"] == [2]
    assert [v["place"] for v in rec["verdicts"]] == ["real", 2]
    code, out, _ = run(capsys, "decide", "-k", "2", "1", "1", "-3", "1")
    assert code == 0
    assert "place 2:" in out and "place 3" not in out
    code, out, _ = run(capsys, "decide", "-k", "2", "--format", "json",
                       "1", "1", "1", "1")
    assert code == 1
    assert json.loads(out)["tested_primes"] == [2]


def test_decide_real_only(capsys):
    code, out, _ = run(capsys, "decide", "-k", "2", "--real", "1", "-2", "3")
    assert code == 0
    code, _, _ = run(capsys, "decide", "-k", "2", "--real", "1", "2", "3")
    assert code == 1


def test_decide_rejects_composite_place(capsys):
    code, _, err = run(capsys, "decide", "-k", "2", "-p", "4", "1", "1", "1")
    assert code == 2
    assert err.startswith("error: ")


def test_decide_refuses_a_sieve_past_the_cap(capsys):
    # the pathological primes of k = 10^4 lie below about 10^16
    code, _, err = run(capsys, "decide", "-k", "10000", "1", "1", "1")
    assert code == 2
    assert err.startswith("error: ")


def test_route_options_are_usage_errors(capsys):
    for argv in (("decide", "-k", "2", "-p", "3", "1", "1", "1",
                  "--route", "dp"),
                 ("rho", "-n", "2", "-k", "2", "-p", "3", "--route", "enum")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "unrecognized arguments: --route" in err, argv


def test_rho_closed_form_text(capsys):
    # the paper's value at p = k = 2, reached by enumeration
    code, out, _ = run(capsys, "rho", "-n", "2", "-k", "2", "-p", "2")
    assert code == 0
    assert "7/12" in out and "[enumeration]" in out


def test_rho_enum_route_json(capsys):
    code, out, _ = run(capsys, "rho", "-n", "2", "-k", "2", "-p", "2",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert (rec["numerator"], rec["denominator"]) == (7, 12)
    assert rec["route"] == "enumeration"


def test_rho_auto_falls_back_to_enumeration(capsys):
    # no recorded formula for k = 5: rho takes the generic sum at every
    # p not dividing 5, the pathological p = 11 included, where it equals
    # enumeration, and enumerates at p = 5
    from locsol.density import rho_p_exact

    def rho(p):
        code, out, _ = run(capsys, "rho", "-n", "2", "-k", "5", "-p", p,
                           "--format", "json")
        assert code == 0
        return json.loads(out)

    auto, enum = rho("11"), rho_p_exact(2, 5, 11).value
    assert auto["route"] == "generic-sum"
    assert (auto["numerator"], auto["denominator"]) == \
        (enum.numerator, enum.denominator)
    assert rho("5")["route"] == "enumeration"


def test_rho_infinity(capsys):
    code, out, _ = run(capsys, "rho", "-n", "3", "-k", "2", "--infinity")
    assert code == 0
    assert "7/8" in out


def test_rho_needs_a_place(capsys):
    code, _, err = run(capsys, "rho", "-n", "3", "-k", "2")
    assert code == 2
    assert "one of" in err


def test_rho_takes_one_place(capsys):
    for place in (("-p", "2", "--infinity"), ("-p", "2", "--loc"),
                  ("--infinity", "--loc")):
        code, out, err = run(capsys, "rho", "-n", "3", "-k", "2", *place)
        assert code == 2 and out == "", place
        assert "not allowed with" in err, place


def test_decide_takes_one_place(capsys):
    code, out, err = run(capsys, "decide", "-k", "2", "-p", "2", "--real",
                         "1", "1", "1")
    assert code == 2 and out == ""
    assert "not allowed with" in err


def test_rho_loc_interval_json(capsys):
    code, out, _ = run(capsys, "rho", "-n", "3", "-k", "3", "--loc",
                       "--cutoff", "2000", "--digits", "4",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    lo = Fraction(rec["lo"]["num"], rec["lo"]["den"])
    hi = Fraction(rec["hi"]["num"], rec["hi"]["den"])
    assert lo < Fraction(8964 + 1, 10**4) and hi > Fraction(8964, 10**4)
    assert hi - lo < Fraction(1, 100)
    assert rec["decimal"]["lo"].startswith("0.89")
    assert "local-global" in rec["note"]


def test_rho_loc_plane_case_is_zero(capsys):
    code, out, _ = run(capsys, "rho", "-n", "2", "-k", "3", "--loc")
    assert code == 0
    assert "[0.000000, 0.000000]" in out


def test_text_bounds_round_outward(capsys):
    # rounding to nearest gave 0.826758 and 0.720408, above the lower ends
    code, out, _ = run(capsys, "rho", "-n", "3", "-k", "2", "--loc")
    assert code == 0
    assert "finite-prime part in [0.826757, 0.826882]" in out
    code, out, _ = run(capsys, "survey", "-n", "3", "-k", "2", "--box", "2",
                       "--reference", "--cutoff", "300")
    assert code == 0
    assert "vs certified [0.720407, 0.724040]" in out


def test_survey_exhaustive_text(capsys):
    code, out, _ = run(capsys, "survey", "-n", "3", "-k", "2", "--box", "2")
    assert code == 0
    assert "79/81" in out


def test_survey_csv_stdout_streams_once(capsys):
    code, out, _ = run(capsys, "survey", "-n", "3", "-k", "2", "--box", "2",
                       "--csv", "-")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n,k,H,mode")
    assert lines[1].split(",")[:7] == ["3", "2", "2", "exhaustive", "",
                                      "81", "79"]


def test_survey_sweep_json(capsys):
    code, out, _ = run(capsys, "survey", "-n", "2", "-k", "2", "--box", "2",
                       "--sweep", "3,4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["H"] for r in rows] == [2, 3, 4]
    assert [r["total"] for r in rows] == [27, 125, 343]


def test_survey_sweep_rejects_a_bad_height(capsys):
    code, out, err = run(capsys, "survey", "-n", "2", "-k", "2", "--box", "2",
                         "--sweep", "3,x")
    assert code == 2 and out == ""
    assert "--sweep" in err and "'3,x'" in err


def test_survey_with_reference(capsys):
    code, out, _ = run(capsys, "survey", "-n", "3", "-k", "2", "--box", "2",
                       "--reference", "--cutoff", "300", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["ref_lo"]["num"] > 0
    ref = Fraction(row["ref_hi"]["num"], row["ref_hi"]["den"])
    assert Fraction(7, 10) < ref < Fraction(3, 4)


# recorded before survey_box stopped carrying the certified interval: the
# CLI now hands it to the renderers itself
SURVEY_FORMS = {
    "text": ("--reference", "--format", "text"),
    "json": ("--reference", "--format", "json"),
    "csv": ("--reference", "--format", "csv"),
    "csv-stdout": ("--reference", "--csv", "-"),
    "json-no-reference": ("--format", "json"),
}
SURVEY_PINS = {
    "text": "b4f401ec203f5792758828fb497d94613562756554d04140d18c6cc0947f720c",
    "json": "15c55b2130ebc8b624902d5048d1017939a32112829b08fc27a635219a1f630c",
    "csv": "580943241fd39e556c2409b4d4b5b8f57ffdae3fb69e1bd518aee2facc9e161d",
    "csv-stdout":
        "580943241fd39e556c2409b4d4b5b8f57ffdae3fb69e1bd518aee2facc9e161d",
    "json-no-reference":
        "9b4b5e3c3dcbc1cfaacd305ccf3875035163d24a17c7ab3f3267b16f730ddf1a",
}


@pytest.mark.parametrize("form", list(SURVEY_FORMS))
def test_survey_output_is_pinned(capsys, monkeypatch, form):
    monkeypatch.delenv("LOCSOL_CACHE_DIR", raising=False)
    code, out, _ = run(capsys, "survey", "-n", "3", "-k", "2", "--box", "2",
                       "--sweep", "3", "--cutoff", "300", *SURVEY_FORMS[form])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SURVEY_PINS[form]


def test_survey_csv_file_is_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("LOCSOL_CACHE_DIR", raising=False)
    path = tmp_path / "survey.csv"
    code, out, _ = run(capsys, "survey", "-n", "3", "-k", "2", "--box", "2",
                       "--sweep", "3", "--cutoff", "300", "--reference",
                       "--csv", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SURVEY_PINS["csv"]
    # the rows still go to stdout in the requested format
    assert hashlib.sha256(out.encode()).hexdigest() == SURVEY_PINS["text"]


def test_survey_csv_to_an_unwritable_path_is_a_usage_error(capsys,
                                                          tmp_path):
    # used to end in a FileNotFoundError traceback and exit code 1
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "survey", "-n", "2", "-k", "2", "--box",
                         "2", "--csv", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.exists()


def test_survey_csv_to_a_missing_directory_fails_before_the_survey(
        capsys, monkeypatch, tmp_path):
    def no_survey(*args, **kwargs):
        raise AssertionError("the survey ran before the path was checked")
    monkeypatch.setattr(cli, "convergence_sweep", no_survey)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "survey", "-n", "2", "-k", "2", "--box",
                         "2", "--csv", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_survey_csv_to_a_directory_fails_before_the_survey(
        capsys, monkeypatch, tmp_path):
    # used to run the whole survey and fail only at the open
    def no_survey(*args, **kwargs):
        raise AssertionError("the survey ran before the path was checked")
    monkeypatch.setattr(cli, "convergence_sweep", no_survey)
    code, out, err = run(capsys, "survey", "-n", "2", "-k", "2", "--box",
                         "2", "--csv", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_survey_csv_stdout_with_json_is_refused_before_the_survey(
        capsys, monkeypatch):
    # used to exit 0 and print CSV, ignoring --format json
    def no_survey(*args, **kwargs):
        raise AssertionError("the survey ran before the options were checked")
    monkeypatch.setattr(cli, "convergence_sweep", no_survey)
    code, out, err = run(capsys, "survey", "-n", "2", "-k", "2", "--box",
                         "2", "--csv", "-", "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--format json" in err


def test_survey_sample_needs_seed(capsys):
    code, _, err = run(capsys, "survey", "-n", "2", "-k", "2", "--box", "5",
                       "--mode", "sample", "--samples", "10")
    assert code == 2
    assert err.startswith("error: ")


def test_survey_refuses_fewer_than_one_job(capsys):
    code, out, err = run(capsys, "survey", "-n", "2", "-k", "2", "--box",
                         "2", "--jobs", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "-k", "2", "-p", "5",
                       "1", "-2", "5")
    assert code == 0
    assert out.strip() == "III"
    code, out, _ = run(capsys, "classify", "-k", "2", "-p", "5",
                       "--format", "json", "1", "1", "1")
    assert json.loads(out)["type"] == "I"


def test_orbit_json_recovers_source(capsys):
    code, out, _ = run(capsys, "orbit", "-k", "2", "-p", "5",
                       "--format", "json", "50", "1", "-4")
    assert code == 0
    rec = json.loads(out)
    assert rec["exponents"] == sorted(rec["exponents"])
    shifts = rec["witness"]["power_shifts"]
    scalar = rec["witness"]["scalar_exponent"]
    for src, shift, red in zip((50, 1, -4), shifts,
                               rec["reduced_entries"]):
        assert src == 5**(2 * shift + scalar) * red


def test_orbit_text(capsys):
    code, out, _ = run(capsys, "orbit", "-k", "2", "-p", "5", "50", "1", "-4")
    assert code == 0
    assert "normal form at p=5" in out
    assert "group element" in out


def test_orbit_output_is_pinned(capsys, monkeypatch):
    # recorded before the orbit record was built straight from the one
    # reduction pass: p | k, p = 2, p = 10007, n = 1, valuations up to 9
    monkeypatch.delenv("LOCSOL_CACHE_DIR", raising=False)
    rng = Random(7)
    rows = []
    for _ in range(300):
        k = rng.randint(2, 6)
        p = rng.choice((2, 3, 5, 7, 13, 31, 10007))
        n = rng.randint(1, 4)
        entries = [str(rng.choice((-1, 1)) * p**rng.randint(0, 9)
                       * rng.randint(1, 10**5)) for _ in range(n + 1)]
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "orbit", "-k", str(k), "-p", str(p),
                               "--format", fmt, "--", *entries)
            rows.append((code, out))
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "5fe750c2062346f821df714b38574e3db8ced3507667f4e57208b7f6b5409576")


def test_cache_dir_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCSOL_CACHE_DIR", str(tmp_path))
    clear_caches()
    cold = run(capsys, "decide", "-k", "2", "-p", "2", "--no-witness",
               "1", "1", "3")
    stored = load_verdicts(CacheStore(tmp_path))
    assert len(stored) >= 1
    clear_caches()
    warm = run(capsys, "decide", "-k", "2", "-p", "2", "--no-witness",
               "1", "1", "3")
    assert warm == cold
    clear_caches()


def test_a_command_that_decides_nothing_new_keeps_the_cache_file(
        capsys, tmp_path):
    clear_caches()
    run(capsys, "--cache-dir", str(tmp_path), "decide", "-k", "2", "-p", "2",
        "1", "1", "3")
    path = tmp_path / "verdicts.json"
    before = path.stat().st_ino, path.read_bytes()
    for command in (("rho", "-n", "3", "-k", "2", "--infinity"),
                    ("rho", "-n", "2", "-k", "2", "-p", "2"),
                    ("rho", "-n", "3", "-k", "2", "--loc", "--cutoff", "100"),
                    ("classify", "-k", "2", "-p", "2", "1", "1", "3"),
                    ("orbit", "-k", "2", "-p", "2", "1", "1", "3")):
        code, _, _ = run(capsys, "--cache-dir", str(tmp_path), *command)
        assert code == 0
        assert (path.stat().st_ino, path.read_bytes()) == before
    clear_caches()


def test_corrupt_cache_warns_and_recovers(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCSOL_CACHE_DIR", str(tmp_path))
    (tmp_path / "verdicts.json").write_text("garbage\n")
    clear_caches()
    code, out, err = run(capsys, "decide", "-k", "2", "-p", "2",
                         "--no-witness", "1", "1", "3")
    assert code == 0
    assert "warning: ignoring unusable cache" in err
    # the rewrite drops the garbage, so the store reads cleanly again
    assert len(load_verdicts(CacheStore(tmp_path))) >= 1
    clear_caches()


def test_unusable_cache_dir_warns_and_keeps_the_exit_code(capsys, tmp_path,
                                                         monkeypatch):
    monkeypatch.delenv("LOCSOL_CACHE_DIR", raising=False)
    clear_caches()
    plain = run(capsys, "decide", "-k", "2", "-p", "2", "1", "1", "1")
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    # verdicts.json as a directory: reading and saving both fail
    (tmp_path / "store" / "verdicts.json").mkdir(parents=True)
    for cache_dir in (not_a_dir, tmp_path / "store"):
        clear_caches()
        code, out, err = run(capsys, "--cache-dir", str(cache_dir), "decide",
                             "-k", "2", "-p", "2", "1", "1", "1")
        assert (code, out) == plain[:2] and code == 1
        assert err.count("warning: ignoring unusable cache") == (
            1 if cache_dir == not_a_dir else 2)
    clear_caches()


@pytest.mark.skipif(cache.fcntl is None, reason="no flock here")
def test_a_cache_dir_without_a_usable_lock_warns_on_save(capsys, tmp_path,
                                                        monkeypatch):
    monkeypatch.delenv("LOCSOL_CACHE_DIR", raising=False)
    # the lock file cannot be opened, as in a directory one cannot write
    (tmp_path / "verdicts.lock").mkdir()
    clear_caches()
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "decide",
                         "-k", "2", "-p", "2", "1", "1", "3")
    assert code == 0 and "soluble" in out
    assert err.count("warning: ignoring unusable cache") == 1
    assert not (tmp_path / "verdicts.json").exists()
    clear_caches()


def test_verify_paper_flags_a_corrupt_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCSOL_CACHE_DIR", str(tmp_path))
    save_verdicts(CacheStore(tmp_path), {(2, 2, ((0, 1),)): "soluble"})
    path = tmp_path / "verdicts.json"
    path.write_bytes(path.read_bytes().replace(b'"soluble"', b'"insoluble"'))
    clear_caches()
    code, out, err = run(capsys, "verify-paper", "--subset", "cubic")
    assert code == 1
    lines = out.strip().splitlines()
    statuses = {}
    for line in lines:
        word, rest = line.split(" ", 1)
        statuses[rest.split(" ")[0]] = word
    assert statuses["cache-integrity"] == "FAIL"
    failing = [name for name, word in statuses.items() if word == "FAIL"]
    assert failing == ["cache-integrity"]
    assert "skipped" in next(l for l in lines if "survey-midpoint" in l)
    clear_caches()


def test_verify_paper_json_reports_each_item(capsys, monkeypatch):
    def suite(subset, cache_store=None):
        assert subset == "quadratic"
        return [ItemResult("first", True, "all agree", 1.23456),
                ItemResult("second", False, "one differs", 0.987)]
    monkeypatch.setattr(cli, "run_suite", suite)
    code, out, _ = run(capsys, "verify-paper", "--subset", "quadratic",
                       "--format", "json")
    assert code == 1
    assert json.loads(out) == [
        {"name": "first", "passed": True, "detail": "all agree",
         "elapsed": 1.23},
        {"name": "second", "passed": False, "detail": "one differs",
         "elapsed": 0.99}]


def test_public_names_resolve():
    for name in locsol.__all__:
        assert getattr(locsol, name) is not None, name


def child(*argv):
    """Run python with argv in a fresh process on the tests' locsol."""
    src = Path(locsol.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=path))


def test_import_locsol_loads_no_tooling_module():
    # the checks, the oracle, the command line and the disk cache load
    # only when asked for, which keeps `import locsol` light
    proc = child("-c", "import sys, locsol; print(*sys.modules)")
    assert proc.returncode == 0
    loaded = set(proc.stdout.split())
    assert "locsol.solubility" in loaded
    assert not loaded & {"locsol.verification", "locsol.oracle",
                         "locsol.cli", "locsol.cache"}
    # the benchmark worker's imports: the cache needs none of the checks
    proc = child("-c", "import sys, locsol, locsol.cache; "
                       "print(*sys.modules)")
    assert proc.returncode == 0
    loaded = set(proc.stdout.split())
    assert "locsol.cache" in loaded
    assert not loaded & {"locsol.verification", "locsol.oracle",
                         "locsol.cli"}


def test_import_starts_no_process_pool_machinery():
    # survey_box imports the pool only when it runs one (jobs > 1)
    proc = child("-c", "import sys, locsol, locsol.cli; "
                       "print('concurrent.futures.process' in sys.modules, "
                       "'multiprocessing' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False False\n")


def test_installed_entry_point():
    # the child imports the same package as the tests, installed or not
    proc = child("-m", "locsol", "rho", "-n", "2", "-k", "2", "-p", "2")
    assert proc.returncode == 0
    assert "7/12" in proc.stdout


def test_witnesses_above_the_scan_limit_load_no_sympy():
    # k-th roots mod p > 3000, for the pair and for the curve point, are
    # taken in house; sympy loads only to factor integers past 10^12
    proc = child("-c", """if True:
        import sys
        from locsol import CoefficientVector
        from locsol.solubility import decide_qp
        p = 9973
        g = next(g for g in range(2, p) if pow(g, (p - 1) // 3, p) != 1)
        for entries in ((1, 2, 5), (1, g, g * g % p)):
            v = decide_qp(CoefficientVector(entries, 3), p, with_witness=True)
            assert v.status == "soluble" and v.witness
        print("sympy" in sys.modules)""")
    assert (proc.returncode, proc.stdout) == (0, "False\n")
    proc = child("-X", "importtime", "-m", "locsol", "decide", "-k", "3",
                 "-p", "9973", "1", "2", "5")
    assert proc.returncode == 0 and "witness" in proc.stdout
    assert "locsol.solubility" in proc.stderr
    assert "sympy" not in proc.stderr


def test_large_heights_factor_no_entry():
    # from four entries on only pairwise gcds are factored, so neither a
    # survey at H = 10^13 nor 30-digit coefficients reach sympy; the
    # count 226 was recorded when every entry was factored
    proc = child("-c", """if True:
        import sys
        from random import Random
        from locsol import CoefficientVector, survey_box
        from locsol.solubility import decide_everywhere_local
        box = survey_box(3, 2, 10**13, mode="sample", sample_count=300,
                         seed=3)
        assert box.soluble == 226, box.soluble
        rng = Random(30)
        entries = tuple(rng.choice((-1, 1)) * rng.randrange(10**29, 10**30)
                        for _ in range(4))
        report = decide_everywhere_local(CoefficientVector(entries, 2))
        assert (report.overall, report.tested_primes) == (False, (2, 5, 43))
        print("sympy" in sys.modules)""")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
