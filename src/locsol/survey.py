"""Counting everywhere-locally-soluble forms in integer coefficient boxes.

A box of height H holds every vector with entries in [-(H-1), H-1]; a
vector counts as soluble when each completion of Q has a nontrivial zero
on it.  Vectors with a zero entry (including the zero vector) vanish on
a coordinate axis and count as soluble, which inflates small boxes by at
most 3(n+1)/(2H-1) but washes out as H grows.

Both modes run in chunks, so a count is the same no matter how many
workers run: sample chunk c draws from random.Random(seed * 1000003 + c),
and an exhaustive chunk is a run of values of a_0 with every completion.
A draw is the vector of n + 1 calls rng.randint(-(H-1), H-1): the survey
runs randint's loop on getrandbits itself, and a test checks that the
vectors are the same.  Only a worker process copies out the verdicts it
added to the cache; a serial survey adds them to this process's cache.
A report holds counts only: a caller with a certified interval hands it
to write_csv or renders it itself.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from random import Random

from .errors import DegenerateInput, PreconditionViolated, ResourceBound
from .padic import _checked, _integers
from .solubility import (_real_soluble, _settle, _tested_primes,
                         dump_verdicts, load_verdicts)

# Draws per sample chunk; an exhaustive chunk is as many whole rows (one
# value of a_0 each) as fit in it, and at least one.
CHUNK = 10_000
EXHAUSTIVE_CAP = 2_000_000


@dataclass(frozen=True)
class SurveyReport:
    n: int
    k: int
    height: int
    mode: str
    seed: int | None
    total: int
    soluble: int

    @property
    def proportion(self) -> Fraction:
        return Fraction(self.soluble, self.total)


def is_everywhere_soluble(entries: tuple[int, ...], k: int) -> bool:
    """decide_everywhere_local(...).overall, through the verdict cache.

    Box convention: any zero entry counts as soluble outright.  The
    entries pass CoefficientVector's checks, but no vector is built.
    """
    entries = _checked(entries, k)
    if 0 in entries:
        return True
    if not _real_soluble(entries, k):
        return False
    for p in _tested_primes(entries, k):
        if _settle(entries, p, k)[0] == "insoluble":
            return False
    return True


def _count_chunk(task) -> int:
    """Soluble count of one chunk.

    A sample chunk is count draws from Random(seed * 1_000_003 + index);
    with seed None, the chunk is every vector whose a_0 is one of count
    box values from the index-th on.
    """
    n, k, height, seed, index, count = task
    lo, hi = -(height - 1), height - 1
    if seed is None:
        values = range(lo, hi + 1)
        vectors = iter_product(values[index:index + count], *[values] * n)
    else:
        vectors = _draws(Random(seed * 1_000_003 + index), lo, hi, n + 1,
                         count)
    soluble = 0
    for entries in vectors:
        if is_everywhere_soluble(entries, k):
            soluble += 1
    return soluble


def _draws(rng: Random, lo: int, hi: int, size: int, count: int):
    """count vectors of size entries, each rng.randint(lo, hi): the loop
    randint runs on getrandbits, without its three calls per entry."""
    width = hi - lo + 1
    bits, getrandbits = width.bit_length(), rng.getrandbits
    for _ in range(count):
        entries = []
        for _ in range(size):
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            entries.append(lo + r)
        yield entries


def _pooled_chunk(task) -> tuple[int, dict[tuple, str]]:
    """_count_chunk in a worker process, with the verdicts it added to
    the worker's cache, so that the parent's cache, and any --cache-dir
    saved from it, keeps what the workers computed."""
    known = dump_verdicts()
    soluble = _count_chunk(task)
    added = {key: status for key, status in dump_verdicts().items()
             if key not in known}
    return soluble, added


def _checked_request(n: int, k: int, height: int, mode: str,
                     sample_count: int | None, seed: int | None,
                     jobs: int) -> int:
    """Every check of a survey request, made before any work: the vectors
    the survey will decide, or a LocsolError."""
    _integers([v for v in (n, k, height, sample_count, seed, jobs)
               if v is not None])
    if n < 1 or k < 2 or height < 1:
        raise DegenerateInput(
            f"need n >= 1, k >= 2, height >= 1, got ({n}, {k}, {height})")
    if jobs < 1:
        raise PreconditionViolated(f"need jobs >= 1, got {jobs}")
    if mode == "exhaustive":
        total = (2 * height - 1)**(n + 1)
        if total > EXHAUSTIVE_CAP:
            raise ResourceBound(
                f"box holds {total} vectors", required=total)
        return total
    if mode == "sample":
        if sample_count is None or sample_count < 1 or seed is None:
            raise PreconditionViolated(
                "sample mode needs sample_count >= 1 and a seed")
        return sample_count
    raise PreconditionViolated(f"unknown mode: {mode}")


def survey_box(n: int, k: int, height: int, *, mode: str = "exhaustive",
               sample_count: int | None = None, seed: int | None = None,
               jobs: int = 1) -> SurveyReport:
    """Measure the soluble proportion of a coefficient box.

    mode "exhaustive" enumerates the whole box (guarded by a cap); mode
    "sample" draws sample_count vectors with the given seed.  Both run
    in chunks, over up to `jobs` worker processes.  The report holds
    counts only; write_csv takes a certified interval to print beside
    them.
    """
    total = _checked_request(n, k, height, mode, sample_count, seed, jobs)
    if mode == "exhaustive":
        side = 2 * height - 1
        seed, rows = None, max(1, CHUNK // side**n)
        tasks = [(n, k, height, seed, first, min(rows, side - first))
                 for first in range(0, side, rows)]
    else:
        tasks = [(n, k, height, seed, start // CHUNK,
                  min(CHUNK, total - start))
                 for start in range(0, total, CHUNK)]
    if jobs > 1 and len(tasks) > 1:
        # imported here: it pulls in multiprocessing, about a third of a
        # cold `import locsol`
        from concurrent.futures import ProcessPoolExecutor

        # a pool forks all its workers at once: no more than the chunks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_pooled_chunk, tasks))
        soluble = 0
        for count, added in results:
            soluble += count
            load_verdicts(added)
    else:
        soluble = sum(_count_chunk(t) for t in tasks)
    return SurveyReport(n=n, k=k, height=height, mode=mode, seed=seed,
                        total=total, soluble=soluble)


def check_sweep(n: int, k: int, heights, *, mode: str = "exhaustive",
                sample_count: int | None = None, seed: int | None = None,
                jobs: int = 1) -> None:
    """Raise what convergence_sweep would raise for any of the heights,
    without surveying one."""
    for h in heights:
        _checked_request(n, k, h, mode, sample_count, seed, jobs)


def convergence_sweep(n: int, k: int, heights, *, mode: str = "exhaustive",
                      sample_count: int | None = None,
                      seed: int | None = None,
                      jobs: int = 1) -> list[SurveyReport]:
    """survey_box at each height, every height checked before the first
    survey runs."""
    options = dict(mode=mode, sample_count=sample_count, seed=seed,
                   jobs=jobs)
    check_sweep(n, k, heights, **options)
    return [survey_box(n, k, h, **options) for h in heights]


CSV_COLUMNS = ("n", "k", "H", "mode", "seed", "total", "soluble",
               "proportion_num", "proportion_den", "ref_lo", "ref_hi")


def write_csv(reports, stream, reference=None) -> None:
    """Emit reports as CSV; rationals stay exact as num/den or p/q text.
    reference, a CertifiedInterval, fills the ref_lo and ref_hi columns
    of every row; without it they are empty."""
    refs = ["", ""] if reference is None else [
        f"{end.numerator}/{end.denominator}"
        for end in (reference.lo, reference.hi)]
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        prop = r.proportion
        writer.writerow([
            r.n, r.k, r.height, r.mode,
            "" if r.seed is None else r.seed,
            r.total, r.soluble, prop.numerator, prop.denominator, *refs,
        ])
