"""Seeded job lists for the three benchmark workloads.

Every workload's job list is built from fixed size classes A < B < C < D.
A class fixes how many jobs of each kind it holds and at which level k;
the seed only picks vertices and step counts inside a narrow band.  Step
counts are drawn in pairs c + d, c - d, so the summed cost of a class
hardly moves with the seed.  The class sizes put the median job (rank
N/2) and the tail job (rank N - 10) inside a class of near-equal jobs,
not on the step between two classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from anyondeg import build_lattice

WORKLOADS = ("large_k", "exact_algebra", "cli_golden")


@dataclass(frozen=True)
class Job:
    kind: str           # library route, or the CLI subcommand for cli_golden
    size: str           # size class, A (cheapest) to D
    k: int = 0
    n: int = 0
    v: tuple[int, int] = (0, 0)
    argv: tuple[str, ...] = ()  # CLI arguments (cli_golden only)

    @property
    def forced_zero(self) -> bool:
        """The answer is 0 by the congruence invariant n = 2i + j (mod 3)."""
        return self.kind == "degeneracy" and (self.n - 2 * self.v[0] - self.v[1]) % 3 != 0


def _balanced(rng: random.Random, center: int, spread: int, count: int) -> list[int]:
    """count values in center +- spread whose offsets cancel in pairs."""
    out = []
    for _ in range(count // 2):
        d = rng.randint(0, spread)
        out += [center + d, center - d]
    if count % 2:
        out.append(center)
    rng.shuffle(out)
    return out


def _vertex(rng: random.Random, k: int, max_height: int | None = None) -> tuple[int, int]:
    verts = build_lattice(k).vertices
    if max_height is not None:
        verts = [v for v in verts if v.i + v.j <= max_height]
    v = rng.choice(verts)
    return (v.i, v.j)


def _with_residue(n: int, v: tuple[int, int], residue: int) -> int:
    """Smallest n' >= n with n' - 2i - j = residue (mod 3)."""
    return n + (residue - (n - 2 * v[0] - v[1])) % 3


# large_k: (size, kind, k, count, n centre, n spread).  For table jobs k is
# k_max and n is n_max; perron jobs take no n.  The class holding the
# median rank (B) is walk-count DP only and the class holding the tail
# rank (C) is Perron only, so job_s_p50 follows pathcount and job_s_tail
# follows the Perron route.  Each class is one kind of work: the host slows
# pure-Python big-int work and BLAS products by different amounts, and a
# mixed class would reorder its jobs as the host speed drifts.
_LARGE_K = (
    ("A", "degeneracy", 16, 8, 210, 30),
    ("A", "count_paths", 16, 5, 210, 30),
    ("B", "degeneracy", 28, 8, 280, 10),
    ("B", "count_paths", 28, 5, 280, 10),
    ("C", "perron", 48, 9, 0, 0),
    ("D", "perron", 56, 1, 0, 0),
    ("D", "table", 24, 1, 200, 0),
    ("D", "count_paths", 64, 1, 300, 0),
    ("D", "degeneracy", 64, 1, 300, 0),
    ("D", "perron", 64, 1, 0, 0),
)


def _large_k(rng: random.Random) -> list[Job]:
    jobs = []
    for size in "ABCD":
        # Within a class, degeneracy jobs take the residues 0, 1, 2 in turn,
        # so a fixed share of them (residue != 0) is forced to 0.
        n_deg = sum(c for s, kind, _, c, _, _ in _LARGE_K
                    if s == size and kind == "degeneracy")
        residues = [r % 3 for r in range(n_deg)]
        rng.shuffle(residues)
        for s, kind, k, count, center, spread in _LARGE_K:
            if s != size:
                continue
            if kind == "perron":
                jobs += [Job(kind, size, k)] * count
                continue
            for n in _balanced(rng, center, spread, count):
                if kind == "degeneracy":
                    v = _vertex(rng, k)
                    jobs.append(Job(kind, size, k, _with_residue(n, v, residues.pop()), v))
                elif kind == "table":
                    jobs.append(Job(kind, size, k, n, _vertex(rng, k, max_height=2)))
                else:
                    jobs.append(Job(kind, size, k, n))
    return jobs


# exact_algebra: (size, kind, k, count).  solve jobs also expand the
# generating function at a seeded vertex to a seeded number of terms.
_EXACT_ALGEBRA = (
    ("A", "det", 3, 2), ("A", "solve", 3, 2), ("A", "root", 3, 2),
    ("A", "det", 4, 2), ("A", "solve", 4, 2), ("A", "root", 4, 2),
    ("B", "solve", 6, 14),
    ("C", "det", 7, 5), ("C", "root", 7, 5),
    ("D", "det", 9, 1), ("D", "solve", 9, 1), ("D", "root", 9, 1),
    ("D", "det", 10, 1),
)
_SERIES_TERMS = (45, 15)  # centre, spread


def _exact_algebra(rng: random.Random) -> list[Job]:
    jobs = []
    for size, kind, k, count in _EXACT_ALGEBRA:
        if kind == "solve":
            for n in _balanced(rng, *_SERIES_TERMS, count):
                jobs.append(Job(kind, size, k, n, _vertex(rng, k)))
        else:
            jobs += [Job(kind, size, k)] * count
    return jobs


def _cli(size: str, sub: str, *args, k: int = 0, n: int = 0,
         v: tuple[int, int] = (0, 0)) -> Job:
    return Job(sub, size, k, n, v, (sub,) + tuple(str(a) for a in args))


def _cli_golden(rng: random.Random) -> list[Job]:
    jobs = []

    def count(size, k, n_lo, n_hi):
        v = _vertex(rng, k, max_height=3)
        n = _with_residue(rng.randint(n_lo, n_hi), v, 0)
        jobs.append(_cli(size, "count", "--k", k, "--n", n, "--vertex",
                         f"{v[0]},{v[1]}", k=k, n=n, v=v))

    # A: plain start-up plus a few milliseconds of work.
    for _ in range(4):
        count("A", rng.randint(4, 8), 12, 24)
    for _ in range(3):
        n = rng.randint(9, 12)
        v = _vertex(rng, n, max_height=3)
        n = _with_residue(n, v, 0)
        jobs.append(_cli("A", "syt", "--n", n, "--vertex", f"{v[0]},{v[1]}",
                         "--oracle", k=n, n=n, v=v))
    for _ in range(3):
        k, n = rng.randint(4, 6), rng.randint(15, 21)
        v = _vertex(rng, 1)
        jobs.append(_cli("A", "table", "--max-k", k, "--max-n", n, "--vertex",
                         f"{v[0]},{v[1]}", k=k, n=n, v=v))
    # B: small determinants, series checks and spectral reports.
    for k in (5, 5, 6, 6):
        jobs.append(_cli("B", "det", "--k", k, k=k))
    for k in (3, 3, 4, 4):
        n = rng.randint(18, 24)
        jobs.append(_cli("B", "verify", "--k", k, "--n", n, k=k, n=n))
    for k in (4, 5, 5):
        jobs.append(_cli("B", "qdim", "--k", k, k=k))
    for _ in range(3):
        count("B", 16, 45, 60)
    # C and D: the heaviest single commands and the golden suite.
    jobs.append(_cli("C", "qdim", "--k", 7, k=7))
    jobs.append(_cli("C", "det", "--k", 7, k=7))
    jobs.append(_cli("C", "reproduce", "--only", "table2"))
    jobs += [_cli("D", "reproduce")] * 3
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed, in the order it is run.

    The order is fixed by the class tables and _interleave; only the
    parameters are seeded.  Peak memory depends on the order of the large
    allocations (freed matrices are reused or not), so a seeded order
    would make peak_rss_mb move with the seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"large_k": _large_k, "exact_algebra": _exact_algebra,
            "cli_golden": _cli_golden}[workload](rng)
    return _interleave(jobs)


def _interleave(jobs: list[Job]) -> list[Job]:
    """Spread each size class evenly over the list, keeping its own order.

    The host's speed drifts over seconds; spread out, every class samples
    the same stretch of time as the whole pass, so the median and tail
    jobs see the same drift as wall_s instead of one burst of it.
    """
    classes: dict[str, list[Job]] = {}
    for job in jobs:
        classes.setdefault(job.size, []).append(job)
    keyed = [((i + 0.5) / len(members), size, job)
             for size, members in classes.items() for i, job in enumerate(members)]
    return [job for _, _, job in sorted(keyed, key=lambda x: x[:2])]
