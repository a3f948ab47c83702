"""Job lists of the four benchmark workloads, generated from a seed.

The seed picks punctured points, custom evaluation sets, the --random-sets
seed and the values of the refusal inputs.  It never changes how much work a
job does: set sizes are fixed, and every punctured k=3 enumerator has the same
terms whatever point is dropped.  The package only ever sees the generated
argv (CLI jobs) or the generated library arguments (archive jobs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("formula-wide", "verify-small", "archive-io", "refusals")

# Wall-clock limit of one refusal subprocess, and of any in-process job.
REFUSAL_LIMIT_S = 2.0
JOB_LIMIT_S = 60.0

# The four inputs that ROADMAP item 4 names as defects of the current code,
# each with the one failure it is known for: three hang past REFUSAL_LIMIT_S
# ("timeout"), and --budget -1 is refused with exit 3 where 2 is documented.
# That failure counts against pass_frac but not in `failed`; any other
# problem on these jobs (a wrong answer, a crash, another exit code) does.
KNOWN_DEFECTS: dict[str, str | int] = {
    "huge-p": "timeout",
    "huge-m": "timeout",
    "q4096-k2": "timeout",
    "neg-budget": 3,
}


@dataclass(frozen=True)
class Code:
    """One (extended) Reed-Solomon code, as the CLI would name it."""

    p: int
    m: int
    k: int
    eval: str = "full"
    extended: bool = False

    @property
    def q(self) -> int:
        return self.p**self.m

    def points(self) -> tuple[int, ...]:
        """Evaluation points, in the order the package is asked to use."""
        kind, _, payload = self.eval.partition(":")
        if kind == "full":
            return tuple(range(self.q))
        if kind == "punctured":
            return tuple(x for x in range(self.q) if x != int(payload))
        if kind == "custom":
            return tuple(int(x) for x in payload.split(","))
        raise ValueError(f"eval kind {kind!r} is not used by the benchmark")

    @property
    def length(self) -> int:
        return len(self.points()) + self.extended

    def argv(self) -> list[str]:
        args = ["--p", str(self.p), "--m", str(self.m), "--k", str(self.k), "--eval", self.eval]
        return args + ["--extended"] if self.extended else args

    def label(self) -> str:
        ext = "-ext" if self.extended else ""
        return f"q{self.q}-k{self.k}-{self.eval.partition(':')[0]}{ext}"


@dataclass(frozen=True)
class Job:
    """One unit of work.

    kind is "compute" or "compare" (rscwe.cli.run_cli in process), "archive"
    (the library round trip) or "refuse" (a CLI subprocess that must exit
    with one of the codes in expect within REFUSAL_LIMIT_S).
    """

    name: str
    kind: str
    code: Code | None
    argv: tuple[str, ...] = ()
    random_sets: int = 0
    expect: tuple[int, ...] = (0,)

    @property
    def key(self) -> str:
        """Identity of the job's input, used to look up frozen digests."""
        if self.kind == "archive":
            return "archive " + " ".join(self.code.argv())
        return " ".join(self.argv)

    @property
    def known_defect(self) -> str | int | None:
        """The failure this job is known for ("timeout" or an exit code)."""
        return KNOWN_DEFECTS.get(self.name)


def compute_job(code: Code) -> Job:
    argv = ("compute", *code.argv(), "--output", "json")
    return Job(f"compute-{code.label()}", "compute", code, argv)


def _compare(code: Code, random_sets: int = 0, seed: int = 0) -> Job:
    argv = ["compare", *code.argv()]
    if random_sets:
        argv += ["--random-sets", str(random_sets), "--seed", str(seed)]
    suffix = f"-rand{random_sets}" if random_sets else ""
    return Job(f"compare-{code.label()}{suffix}", "compare", code, tuple(argv), random_sets)


def _punctured(rng: random.Random, q: int) -> str:
    return f"punctured:{rng.randrange(q)}"


def _custom(rng: random.Random, q: int, n: int) -> str:
    return "custom:" + ",".join(map(str, rng.sample(range(q), n)))


def formula_wide(rng: random.Random) -> list[Job]:
    """Closed forms past the q <= 64 table threshold (digit-path arithmetic)."""
    jobs = [compute_job(Code(p, m, 3)) for p, m in ((3, 4), (5, 3), (2, 7))]
    jobs.append(compute_job(Code(3, 4, 3, _punctured(rng, 81))))
    for p, m in ((3, 4), (5, 3), (2, 7)):
        jobs.append(compute_job(Code(p, m, 2, _custom(rng, p**m, 6), extended=True)))
    jobs.append(compute_job(Code(3, 4, 3, extended=True)))
    return jobs


def verify_small(rng: random.Random) -> list[Job]:
    """Brute force against closed form on table-path fields."""
    jobs = [_compare(Code(p, m, 3)) for p, m in ((3, 3), (2, 5), (7, 2))]
    for p, m in ((3, 3), (2, 5)):
        jobs.append(_compare(Code(p, m, 3, _punctured(rng, p**m), extended=True)))
    jobs.append(_compare(Code(2, 6, 2), random_sets=2, seed=rng.randrange(10**6)))
    jobs.append(_compare(Code(61, 1, 2, extended=True), random_sets=2, seed=rng.randrange(10**6)))
    return jobs


def archive_io(rng: random.Random) -> list[Job]:
    """Large enumerators at q <= 64: validation, JSON and text output dominate."""
    codes = [
        Code(2, 5, 3, _punctured(rng, 32), extended=True),
        Code(2, 6, 3, _punctured(rng, 64)),
        Code(2, 4, 3, _punctured(rng, 16), extended=True),
        Code(2, 5, 3, _punctured(rng, 32)),
        Code(3, 3, 3, _punctured(rng, 27), extended=True),
        Code(2, 6, 2, _custom(rng, 64, 24), extended=True),
    ]
    return [Job(f"archive-{c.label()}", "archive", c) for c in codes]


def refusals(rng: random.Random) -> list[Job]:
    """Inputs that must be refused (or, for q4096-k2, answered) quickly."""
    composite = rng.choice((4, 6, 9, 15, 21, 25, 49, 91, 121, 1001))
    over_p, over_m = rng.choice(((2, 13), (3, 8), (5, 6), (7, 5), (4099, 1)))
    k3_p = rng.choice((5, 7, 11, 13))
    k3_set = _custom(rng, k3_p, rng.randint(3, k3_p - 2))
    cases = [
        # field-size refusals: the README leaves 2 (parameter) or 3 (bound) open
        ("huge-p", ["compute", "--p", "1000000000000000003", "--k", "2"], (2, 3)),
        ("huge-m", ["compute", "--p", "3", "--m", "100000000", "--k", "2"], (2, 3)),
        # q = 4096 is in range: answering in time is as good as a budget refusal
        ("q4096-k2", ["compute", "--p", "2", "--m", "12", "--k", "2", "--output", "json"], (0, 3)),
        ("neg-budget", ["compare", "--p", str(rng.choice((5, 7, 11))), "--k", "2", "--budget", "-1"], (2,)),
        ("composite-p", ["compute", "--p", str(composite), "--k", "2"], (2,)),
        ("q-over-max", ["compute", "--p", str(over_p), "--m", str(over_m), "--k", "2"], (2, 3)),
        ("k3-custom", ["compute", "--p", str(k3_p), "--k", "3", "--eval", k3_set], (2,)),
        ("budget-exceeded", ["compute", "--p", "3", "--m", "2", "--k", "3", "--method", "brute",
                             "--budget", str(rng.randint(1, 728))], (3,)),
        ("bad-eval", ["compute", "--p", "5", "--k", "2", "--eval", rng.choice(("oops", "punctured:x", "custom:1,a"))], (2,)),
    ]
    q4096 = Code(2, 12, 2)
    return [
        Job(name, "refuse", q4096 if name == "q4096-k2" else None, tuple(argv), expect=expect)
        for name, argv, expect in cases
    ]


_BUILDERS = {
    "formula-wide": formula_wide,
    "verify-small": verify_small,
    "archive-io": archive_io,
    "refusals": refusals,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one workload; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def _field_of(job: Job) -> tuple[int, int]:
    if job.code is not None:
        return job.code.p, job.code.m
    argv = job.argv
    p = int(argv[argv.index("--p") + 1])
    return p, int(argv[argv.index("--m") + 1]) if "--m" in argv else 1


def _valid_field(p: int, m: int) -> bool:
    return 1 < p <= 4096 and m <= 12 and p**m <= 4096 and all(p % d for d in range(2, int(p**0.5) + 1))


def workload_fields(jobs: list[Job]) -> list[tuple[int, int]]:
    """Distinct valid fields named by the workload's jobs, as (p, m).

    A refusal input over a valid field still builds it before refusing, so
    those fields count as well.
    """
    return sorted({f for f in map(_field_of, jobs) if _valid_field(*f)})


REFUSAL_CASES = tuple(j.name for j in refusals(random.Random(0)))

# The fields the enumerator workloads build (the same for every seed).  The gf
# per-op probe covers all of them on every workload, so every traced run
# reports the same metric names.
FIELDS = tuple(sorted({f for w in WORKLOADS if w != "refusals" for f in workload_fields(make_jobs(w, 0))}))
