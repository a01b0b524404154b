import concurrent.futures
import hashlib
import io
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from locsol import padic, solubility, survey
from locsol.cache import CacheStore, load_verdicts, save_verdicts
from locsol.errors import (DegenerateInput, PreconditionViolated,
                           ResourceBound)
from locsol.padic import CoefficientVector, signature
from locsol.primes import prime_divisors
from locsol.product import rho_loc_interval
from locsol.solubility import (clear_caches, decide_qp, dump_verdicts,
                               pathological_primes, relevant_primes)
from locsol.solubility import load_verdicts as load_into_session
from locsol.survey import (CSV_COLUMNS, _count_chunk, convergence_sweep,
                           is_everywhere_soluble, survey_box, write_csv)


def test_tiny_quadratic_box_frozen_count():
    report = survey_box(3, 2, 2)
    assert (report.soluble, report.total) == (79, 81)


def test_tiny_box_against_sign_recount():
    # independent recount: a vector with a zero entry or two opposite
    # signs has the exact zero e_i +/- e_j; all-same-sign quadratics
    # fail over the reals; that covers the whole box at height 2
    expected = 0
    for entries in product((-1, 0, 1), repeat=4):
        if 0 in entries or len(set(entries)) > 1:
            expected += 1
    report = survey_box(3, 2, 2)
    assert report.soluble == expected


def test_cubic_boxes_are_fully_soluble():
    # odd degree kills the real obstruction; height 2 leaves units only
    report = survey_box(3, 3, 2)
    assert report.soluble == report.total == 81


def test_height_one_is_the_zero_vector():
    report = survey_box(2, 2, 1)
    assert (report.soluble, report.total) == (1, 1)


def test_sampling_is_deterministic_and_chunk_stable():
    a = survey_box(3, 2, 50, mode="sample", sample_count=12_345, seed=7)
    b = survey_box(3, 2, 50, mode="sample", sample_count=12_345, seed=7)
    assert (a.soluble, a.total) == (b.soluble, b.total)
    assert a.proportion == b.proportion


# Soluble counts of 3000 draws at seed 2024 and the sha256 of
# repr(sorted(dump_verdicts().items())) after each survey from a cold
# cache: the bytes of every verdict-cache key the survey wrote, so that a
# saved verdicts.json stays valid.  The counts were recorded before the
# cache-hit path was rewritten; the digests moved, and the counts did
# not, when the survey stopped testing primes that cannot obstruct.
PINNED_SURVEYS = {
    (3, 2, 200): (2198, "3d8abf92fa6b3291cc878df153fd40c3"
                        "7fd5cc4215b434f395ab10a0efc2f59f"),
    (3, 3, 60): (2770, "6cf52f563d7be9a23761f4d29d2b0bf7"
                       "6c1f56e24e254426835704d43d4ced82"),
    (3, 4, 30): (1120, "d795bb8ebba7c4d7e82d0c1b985e2c07"
                       "f4aff8fdbbe30f59564934e64cc8e9a3"),
    (4, 5, 20): (2983, "27ba8588b5576c32a6e318e92287fd61"
                       "61dc9ec761dd199ba08dd52836b80d12"),
    (2, 6, 40): (239, "bf47cd0c18d5184d181f4d06083ce8bd"
                      "5c16e0095e9f0d5c348963a69d5bded0"),
}


@pytest.mark.parametrize("n,k,height", sorted(PINNED_SURVEYS))
def test_sampled_counts_and_verdict_keys_are_pinned(n, k, height):
    clear_caches()
    report = survey_box(n, k, height, mode="sample", sample_count=3000,
                        seed=2024)
    keys = repr(sorted(dump_verdicts().items())).encode()
    assert (report.soluble, hashlib.sha256(keys).hexdigest()) == \
        PINNED_SURVEYS[n, k, height]


# The same digests for a survey that tests every pathological prime of k
# and every prime divisor of every entry: the keys of a verdicts.json
# saved before the survey skipped the primes that cannot obstruct.
DIVISOR_RULE_DIGESTS = {
    (3, 2, 200): "c6b86798cfe85344b58525caa327ad3c"
                 "60f2372b791ff1c643199ac19b8850e6",
    (3, 3, 60): "de5bbb2d525ffbc5414b4e146594a5fb"
                "5e7d9007ac73c6f090718b064805591e",
    (3, 4, 30): "377b6a99d331d155b16d7577c265cb06"
                "daf3b5d7df09981962c7cff9e29aa3f2",
    (4, 5, 20): "27797d272de509a6fb93d2257dcffc66"
                "a12dab5f5458fc14421293e6698f46ea",
    (2, 6, 40): "e440b542981df388ddb5ae762e9084ac"
                "15c8d5de64938dc37475f6388ecbe183",
}


def pinned_draws(n, height):
    """The 3000 vectors of the pinned surveys: one chunk, seed 2024."""
    rng = Random(2024 * 1_000_003)
    return [tuple(rng.randint(-(height - 1), height - 1)
                  for _ in range(n + 1)) for _ in range(3000)]


@pytest.mark.parametrize("n,k,height", sorted(PINNED_SURVEYS))
def test_survey_keys_are_signatures_at_relevant_primes(n, k, height):
    # what keeps a saved verdicts.json valid: every key the survey
    # writes is (p, k, signature) of a drawn vector at a prime that
    # relevant_primes lists for it
    clear_caches()
    survey_box(n, k, height, mode="sample", sample_count=3000, seed=2024)
    written = set(dump_verdicts())
    allowed = {(p, k, signature(v, p, k))
               for v in pinned_draws(n, height) if 0 not in v
               for p in relevant_primes(CoefficientVector(v, k))}
    assert written and written <= allowed


@pytest.mark.parametrize("n,k,height", sorted(PINNED_SURVEYS))
def test_a_store_of_divisor_rule_keys_still_answers(n, k, height,
                                                    tmp_path, monkeypatch):
    # rebuild the verdicts the divisor rule wrote: every pathological
    # prime and every divisor, in order, up to the first insoluble one
    clear_caches()
    for v in pinned_draws(n, height):
        if 0 in v or not (k % 2 or min(v) < 0 < max(v)):
            continue
        a = CoefficientVector(v, k)
        for p in sorted(set(pathological_primes(k)).union(
                *map(prime_divisors, v))):
            if not decide_qp(a, p).is_soluble:
                break
    stored = dump_verdicts()
    digest = hashlib.sha256(repr(sorted(stored.items())).encode())
    assert digest.hexdigest() == DIVISOR_RULE_DIGESTS[n, k, height]
    store = CacheStore(tmp_path)
    save_verdicts(store, stored)
    clear_caches()
    load_into_session(load_verdicts(store))

    def refuse(*args):
        raise AssertionError("a stored verdict was decided again")

    monkeypatch.setattr(solubility, "_decide_layers", refuse)
    report = survey_box(n, k, height, mode="sample", sample_count=3000,
                        seed=2024)
    assert report.soluble == PINNED_SURVEYS[n, k, height][0]
    assert dump_verdicts() == stored


def test_second_survey_is_answered_by_signature(monkeypatch):
    from locsol import padic, solubility, survey
    calls = []
    original = solubility._decide_layers

    def counting(p, *args):
        calls.append(p)
        return original(p, *args)

    monkeypatch.setattr(solubility, "_decide_layers", counting)
    kw = dict(mode="sample", sample_count=3_000, seed=5)
    clear_caches()
    first = survey_box(3, 2, 40, **kw)
    assert calls                          # the cold run fills the cache
    calls.clear()
    second = survey_box(3, 2, 40, **kw)
    assert calls == []                    # every prime found by signature
    assert second.soluble == first.soluble


def test_one_reduction_pass_per_tested_prime(monkeypatch):
    from locsol import padic, solubility
    from locsol.padic import CoefficientVector
    from locsol.solubility import decide_everywhere_local
    calls = []
    original = padic._split

    def counting(entries, p, k):
        calls.append(p)
        return original(entries, p, k)

    for entries, k in (((1, 1, -3, 1), 2), ((2, 3, 5), 3), ((1, -4), 2)):
        report = decide_everywhere_local(CoefficientVector(entries, k))
        assert report.overall
        clear_caches()
        monkeypatch.setattr(padic, "_split", counting)
        monkeypatch.setattr(solubility, "_split", counting)
        calls.clear()
        assert is_everywhere_soluble(entries, k)
        assert calls == list(report.tested_primes)
        monkeypatch.undo()


def test_parallel_jobs_do_not_change_counts():
    kw = dict(mode="sample", sample_count=25_000, seed=11)
    clear_caches()
    serial = survey_box(3, 2, 30, jobs=1, **kw)
    serial_keys = set(dump_verdicts())
    clear_caches()
    parallel = survey_box(3, 2, 30, jobs=2, **kw)
    assert serial.soluble == parallel.soluble
    # the workers' verdicts reach the parent's cache (and so --cache-dir)
    assert serial_keys and set(dump_verdicts()) == serial_keys


def test_pool_never_outnumbers_the_chunks(monkeypatch):
    # a pool forks all its workers at once; a fake one records how many
    # were asked for and maps in this process
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    clear_caches()
    survey_box(3, 2, 30, mode="sample", sample_count=25_000, seed=11,
               jobs=64)
    assert asked == [3]


def test_exhaustive_boxes_run_in_chunks_on_the_pool(monkeypatch):
    # at height 6 the 11 values of a_0 make two chunks of 7 and 4 rows;
    # a fake pool records the workers asked for and maps in this process
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    clear_caches()
    serial = survey_box(3, 2, 6)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    clear_caches()
    pooled = survey_box(3, 2, 6, jobs=2)
    assert asked == [2]
    assert (pooled.soluble, pooled.total) == (serial.soluble, serial.total)
    assert serial.total == 11**4


def test_sample_proportion_lands_near_the_certified_interval():
    iv = rho_loc_interval(3, 2, cutoff=500)
    report = survey_box(3, 2, 100, mode="sample", sample_count=20_000,
                        seed=20260815)
    gap = abs(report.proportion - iv.midpoint)
    assert gap < 0.03


def test_input_guards():
    with pytest.raises(DegenerateInput):
        survey_box(0, 2, 2)
    with pytest.raises(DegenerateInput):
        survey_box(2, 2, 0)
    with pytest.raises(PreconditionViolated):
        survey_box(2, 2, 2, mode="approximate")
    with pytest.raises(PreconditionViolated):
        survey_box(2, 2, 2, mode="sample", sample_count=100)
    with pytest.raises(PreconditionViolated):
        survey_box(2, 2, 2, mode="sample", seed=1)
    with pytest.raises(ResourceBound):
        survey_box(3, 2, 40)
    for jobs in (0, -5):
        with pytest.raises(PreconditionViolated):
            survey_box(2, 2, 2, jobs=jobs)


def test_convergence_sweep_and_csv_round_trip():
    reports = convergence_sweep(2, 2, (2, 3))
    assert [r.total for r in reports] == [27, 125]
    assert [r.height for r in reports] == [2, 3]
    buf = io.StringIO()
    write_csv(reports, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    first = lines[1].split(",")
    assert first[:4] == ["2", "2", "2", "exhaustive"]
    assert first[5] == "27"
    num, den = int(first[7]), int(first[8])
    assert reports[0].proportion.numerator == num
    assert reports[0].proportion.denominator == den


def test_csv_takes_the_certified_interval_for_its_ref_columns():
    iv = rho_loc_interval(3, 2, cutoff=100)
    reports = convergence_sweep(3, 2, (2, 3))
    buf = io.StringIO()
    write_csv(reports, buf, iv)
    rows = buf.getvalue().strip().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        ref_lo, ref_hi = row.split(",")[-2:]
        assert Fraction(ref_lo) == iv.lo and Fraction(ref_hi) == iv.hi
    buf = io.StringIO()
    write_csv(reports, buf)
    assert buf.getvalue().strip().splitlines()[1].endswith(",,")


def test_direct_calls_keep_typed_errors():
    with pytest.raises(DegenerateInput):
        is_everywhere_soluble((5,), 2)
    with pytest.raises(DegenerateInput):
        is_everywhere_soluble((1, 2), 1)
    # a float or a string is refused, not truncated to a form that counts
    for entries in ((1.5, 2.5, -3.9), (1.0, 0.5), ("3", 2, 1)):
        with pytest.raises(PreconditionViolated):
            is_everywhere_soluble(entries, 2)
    with pytest.raises(PreconditionViolated):
        is_everywhere_soluble((1, 2, 3), 2.0)


def test_zero_entry_convention():
    assert is_everywhere_soluble((1, 0, 1), 2)
    assert is_everywhere_soluble((0, 0, 0), 2)
    assert not is_everywhere_soluble((1, 1, 1, 1), 2)
    assert is_everywhere_soluble((1, 1, -3, 1), 2)


@pytest.mark.parametrize("height", [1, 2, 3, 5, 200, 257, 10**5, 10**6])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_sample_chunks_draw_the_vectors_of_randint(height, n, monkeypatch):
    # the box widths 2H - 1 include 2^j - 1 (H = 2) and 2^j + 1 (H = 2,
    # 3, 5, 257), where the rejection loop is tightest and loosest
    drawn = []

    def record(entries, k):
        drawn.append(tuple(entries))
        return True

    monkeypatch.setattr(survey, "is_everywhere_soluble", record)
    lo, hi = -(height - 1), height - 1
    for seed, index in ((0, 0), (7, 2), (2024, 0), (31, 5)):
        drawn.clear()
        assert _count_chunk((n, 2, height, seed, index, 300)) == 300
        rng = Random(seed * 1_000_003 + index)
        assert drawn == [tuple(rng.randint(lo, hi) for _ in range(n + 1))
                         for _ in range(300)]


def test_a_serial_survey_copies_no_verdicts(monkeypatch):
    # with jobs = 1 the verdicts are already in this process's cache
    def refuse():
        raise AssertionError("a serial survey copied the verdict cache")

    monkeypatch.setattr(survey, "dump_verdicts", refuse)
    monkeypatch.setattr(solubility, "dump_verdicts", refuse)
    clear_caches()
    sampled = survey_box(3, 2, 30, mode="sample", sample_count=25_000,
                         seed=11)
    exhaustive = survey_box(3, 2, 6)
    monkeypatch.undo()
    clear_caches()
    assert sampled == survey_box(3, 2, 30, mode="sample",
                                 sample_count=25_000, seed=11)
    assert exhaustive == survey_box(3, 2, 6)


def stored(tables):
    """Coefficients the box tables hold, over every (p, k)."""
    return sum(len(table) for table, _, _ in tables.values())


def test_box_tables_hold_at_most_their_bound(monkeypatch):
    draws = pinned_draws(3, 200)[:1500]
    clear_caches()
    expected = [is_everywhere_soluble(v, 2) for v in draws]
    tables = padic._BOX_TABLES
    assert 0 < stored(tables) == tables.entries <= padic.BOX_TABLE_SIZE
    clear_caches()
    assert len(tables) == tables.entries == 0
    monkeypatch.setattr(padic, "BOX_TABLE_SIZE", 40)
    seen = set()
    for v, soluble in zip(draws, expected):
        assert is_everywhere_soluble(v, 2) == soluble
        assert stored(tables) == tables.entries <= 40
        seen.add(tables.entries)
    assert max(seen) > 30    # the tables filled up and were dropped
