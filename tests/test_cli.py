import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import locsol
from locsol.cache import CacheStore
from locsol.cli import main
from locsol.solubility import clear_caches


def run(capsys, *argv):
    code = main(list(argv))
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


def test_decide_real_only(capsys):
    code, out, _ = run(capsys, "decide", "-k", "2", "--real", "1", "-2", "3")
    assert code == 0
    code, _, _ = run(capsys, "decide", "-k", "2", "--real", "1", "2", "3")
    assert code == 1


def test_decide_routes_match(capsys):
    base = run(capsys, "decide", "-k", "3", "-p", "5", "--no-witness",
               "--route", "dp", "2", "3", "10")
    other = run(capsys, "decide", "-k", "3", "-p", "5", "--no-witness",
                "--route", "scale", "2", "3", "10")
    assert base == other


def test_decide_rejects_composite_place(capsys):
    code, _, err = run(capsys, "decide", "-k", "2", "-p", "4", "1", "1", "1")
    assert code == 2
    assert "error:" in err


def test_decide_rejects_scale_route_at_p_dividing_k(capsys):
    for coefficients in (("1", "0", "1"), ("1", "1", "1")):
        code, _, err = run(capsys, "decide", "-k", "2", "-p", "2",
                           "--route", "scale", *coefficients)
        assert code == 2
        assert "error:" in err


def test_rho_closed_form_text(capsys):
    code, out, _ = run(capsys, "rho", "-n", "2", "-k", "2", "-p", "2")
    assert code == 0
    assert "7/12" in out and "closed-form" in out


def test_rho_enum_route_json(capsys):
    code, out, _ = run(capsys, "rho", "-n", "2", "-k", "2", "-p", "2",
                       "--route", "enum", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert (rec["numerator"], rec["denominator"]) == (7, 12)
    assert rec["route"] == "enumeration"


def test_rho_auto_falls_back_to_enumeration(capsys):
    # no recorded formula for k = 5: auto takes the generic sum at every
    # p not dividing 5, the pathological p = 11 included, where it equals
    # enumeration, and enumerates at p = 5
    def rho(p, *route):
        code, out, _ = run(capsys, "rho", "-n", "2", "-k", "5", "-p", p,
                           *route, "--format", "json")
        assert code == 0
        return json.loads(out)

    auto, enum = rho("11"), rho("11", "--route", "enum")
    assert auto["route"] == "generic-sum"
    assert (auto["numerator"], auto["denominator"]) == \
        (enum["numerator"], enum["denominator"])
    assert rho("5")["route"] == "enumeration"


def test_rho_infinity(capsys):
    code, out, _ = run(capsys, "rho", "-n", "3", "-k", "2", "--infinity")
    assert code == 0
    assert "7/8" in out


def test_rho_needs_a_place(capsys):
    code, _, err = run(capsys, "rho", "-n", "3", "-k", "2")
    assert code == 2
    assert "one of" in err


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


def test_survey_with_reference(capsys):
    code, out, _ = run(capsys, "survey", "-n", "3", "-k", "2", "--box", "2",
                       "--reference", "--cutoff", "300", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["ref_lo"]["num"] > 0
    ref = Fraction(row["ref_hi"]["num"], row["ref_hi"]["den"])
    assert Fraction(7, 10) < ref < Fraction(3, 4)


def test_survey_sample_needs_seed(capsys):
    code, _, err = run(capsys, "survey", "-n", "2", "-k", "2", "--box", "5",
                       "--mode", "sample", "--samples", "10")
    assert code == 2
    assert "error:" in err


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


def test_cache_dir_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCSOL_CACHE_DIR", str(tmp_path))
    clear_caches()
    cold = run(capsys, "decide", "-k", "2", "-p", "2", "--no-witness",
               "1", "1", "3")
    stored = CacheStore(tmp_path).read("verdicts")
    assert len(stored) >= 1
    clear_caches()
    warm = run(capsys, "decide", "-k", "2", "-p", "2", "--no-witness",
               "1", "1", "3")
    assert warm == cold
    clear_caches()


def test_corrupt_cache_warns_and_recovers(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCSOL_CACHE_DIR", str(tmp_path))
    (tmp_path / "verdicts.jsonl").write_text("garbage\n")
    clear_caches()
    code, out, err = run(capsys, "decide", "-k", "2", "-p", "2",
                         "--no-witness", "1", "1", "3")
    assert code == 0
    assert "warning: ignoring unusable cache" in err
    # the rewrite drops the garbage, so the store reads cleanly again
    assert len(CacheStore(tmp_path).read("verdicts")) >= 1
    clear_caches()


def test_verify_paper_flags_a_corrupt_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCSOL_CACHE_DIR", str(tmp_path))
    seed = CacheStore(tmp_path)
    seed.write("verdicts", [({"p": 2}, {"status": "x"})])
    path = tmp_path / "verdicts.jsonl"
    path.write_bytes(path.read_bytes().replace(b'"x"', b'"y"'))
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


def test_installed_entry_point():
    # the child imports the same package as the tests, installed or not
    src = Path(locsol.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "locsol", "rho", "-n", "2", "-k", "2",
         "-p", "2"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "7/12" in proc.stdout
