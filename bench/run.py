"""rscwe benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload formula-wide --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports rscwe from ./src and nowhere
else.  A run repeats its workload's job list in passes until --seconds have
gone by (at least one pass), checks the outputs, and prints a metadata line
and then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes, probes beside each traced
job, and reports the per-layer metrics; it also writes every span to
.bench_out/spans-<workload>-seed<seed>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from hashlib import sha256
from pathlib import Path
from time import perf_counter

from check import check_output, load_digests
from check import sha256 as digest
from spans import Tracer, child_coverage, patched, self_times
from workloads import (
    FIELDS,
    JOB_LIMIT_S,
    REFUSAL_CASES,
    REFUSAL_LIMIT_S,
    WORKLOADS,
    Code,
    Job,
    compute_job,
    make_jobs,
    workload_fields,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# No job starts after this many seconds, so a run ends well inside 180 s
# even if the program under test becomes much slower.
RUN_CAP_S = 110.0
# set-up samples taken before the passes and again after them, so that the
# median spans the run as the other metrics do
SETUP_SAMPLES = 6
PROBE_OPS = 2000
# how often a refusal subprocess is polled for its exit
POLL_S = 0.001
# share of a job span, and of its cli.run_cli span, that the layer spans
# under it must cover in a traced run
COVER_MIN = 0.9

CLI_SNIPPET = "import sys; sys.path.insert(0, sys.argv.pop(1)); from rscwe.cli import main; main()"
SETUP_SNIPPET = (
    "import sys, json; sys.path.insert(0, sys.argv[1]); import rscwe\n"
    "for p, m in json.loads(sys.argv[2]): rscwe.build_field(p, m)"
)


class JobTimeout(Exception):
    pass


@dataclass
class Outcome:
    rc: int | None
    out: str
    err: str
    seconds: float
    timed_out: bool = False
    result: dict | None = None
    maxrss_kb: int = 0
    problems: list[str] = field(default_factory=list)
    # the problems are exactly the failure the job is known for
    known: bool = False

    def forget_output(self) -> None:
        """Keep only a digest of the output, so passes after the first do
        not add their outputs to the peak RSS."""
        self.out, self.result = digest(self.out), None


def import_package():
    """Import rscwe from ./src of this checkout, or exit 1 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import rscwe
        import rscwe.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import rscwe from {SRC}: {exc}")
    if not Path(rscwe.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: rscwe was imported from {rscwe.__file__}, not from {SRC}")
    return rscwe


def _on_alarm(signum, frame):
    raise JobTimeout


def run_cli_job(rscwe, job: Job, tracer: Tracer | None, limit: float) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    rc, timed_out = None, False
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = rscwe.cli.run_cli(list(job.argv))
            else:
                with tracer.span("cli.run_cli"):
                    rc = rscwe.cli.run_cli(list(job.argv))
    except SystemExit as exc:
        rc = exc.code
    except JobTimeout:
        timed_out = True
    except Exception:
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome(rc, out.getvalue(), err.getvalue(), perf_counter() - start, timed_out)


def archive_round_trip(rscwe, code: Code) -> dict:
    """Formula, then write, read back, compare, render and write again."""
    ctx = rscwe.build_field(code.p, code.m)
    kind, _, payload = code.eval.partition(":")
    alpha = rscwe.make_eval_set(
        ctx, kind,
        beta=int(payload) if kind == "punctured" else None,
        points=code.points() if kind == "custom" else None,
    )
    spec = rscwe.CodeSpec(ctx, code.k, alpha, code.extended)
    cwe = rscwe.cwe_formula(spec)
    text = rscwe.serialize(spec, cwe)
    spec_back, cwe_back = rscwe.deserialize(text)
    equal, _ = rscwe.cwe_equal(cwe, cwe_back)
    render = "\n".join(rscwe.render_terms(cwe_back))
    again = rscwe.serialize(spec_back, cwe_back)
    return {"json": text, "again": again, "render": render, "equal": equal}


def run_archive_job(rscwe, job: Job, limit: float) -> Outcome:
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        result = archive_round_trip(rscwe, job.code)
    except JobTimeout:
        return Outcome(None, "", "", perf_counter() - start, timed_out=True)
    except Exception:
        return Outcome(None, "", traceback.format_exc(), perf_counter() - start)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = perf_counter() - start
    return Outcome(0, result["json"] + "\n" + result["render"], "", seconds, result=result)


def cli_env() -> dict[str, str]:
    """The caller's environment without the settings that would change what
    the CLI does or where rscwe is imported from."""
    return {k: v for k, v in os.environ.items() if k not in ("RSCWE_BUDGET", "PYTHONPATH")}


def run_refusal_job(job: Job, limit: float) -> Outcome:
    """One CLI subprocess under `limit` seconds; killed and reaped on timeout.

    Its output goes to files, so a long answer cannot stall on a full pipe,
    and os.wait4 gives the subprocess's own peak RSS.
    """
    cmd = [sys.executable, "-c", CLI_SNIPPET, str(SRC), *job.argv]
    with open(OUT_DIR / "refusal.out", "w+") as out, open(OUT_DIR / "refusal.err", "w+") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=out, stderr=err)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if perf_counter() - start >= limit:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(POLL_S)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, out.read(), err.read(), seconds, timed_out,
                       maxrss_kb=usage.ru_maxrss)


def run_job(rscwe, job: Job, tracer: Tracer | None, deadline: float) -> Outcome:
    """Run one job; past the run's deadline it is not started and times out."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        return Outcome(None, "", "", 0.0, timed_out=True)
    if job.kind == "refuse":
        if tracer is None:
            return run_refusal_job(job, min(REFUSAL_LIMIT_S, remaining))
        with tracer.span("cli.refuse"):
            return run_refusal_job(job, min(REFUSAL_LIMIT_S, remaining))
    limit = min(JOB_LIMIT_S, remaining)
    if job.kind == "archive":
        return run_archive_job(rscwe, job, limit)
    return run_cli_job(rscwe, job, tracer, limit)


@dataclass
class Pass:
    traced: bool
    wall: float
    outcomes: list[Outcome]


def probe_captured(rscwe, tracer: Tracer) -> None:
    """Right after a traced job, outside its span: drain enumerate_codewords
    for each spec cwe_bruteforce received, and re-run CwePolynomial on each
    cwe_formula result.  Each probe thus runs seconds from the call it is
    compared with, not minutes, while host speed drifts."""
    captured, tracer.captured = tracer.captured, []
    for name, args, result in captured:
        if name == "cwe.brute":
            spec = args[0]
            with tracer.span("probe.codes.enumerate") as record:
                record[5] = {"codewords": sum(1 for _ in rscwe.enumerate_codewords(spec, budget=spec.size))}
        elif name == "cwe.formula":
            with tracer.span("probe.cwe.validate"):
                rscwe.CwePolynomial(result.q, result.n, result.terms)


def run_pass(rscwe, jobs: list[Job], tracer: Tracer | None, index: int, deadline: float) -> Pass:
    gc.collect()
    outcomes = []
    start = perf_counter()
    for job in jobs:
        if tracer is None:
            outcomes.append(run_job(rscwe, job, None, deadline))
        else:
            tracer.job = f"{index}:{job.name}"
            with tracer.span("bench.job") as record:
                outcomes.append(run_job(rscwe, job, tracer, deadline))
            record[5] = {"rc": outcomes[-1].rc}
            tracer.job = None
            probe_captured(rscwe, tracer)
        if index:
            outcomes[-1].forget_output()
    return Pass(tracer is not None, perf_counter() - start, outcomes)


def run_passes(rscwe, jobs: list[Job], seconds: float, trace: bool, tracer: Tracer) -> list[Pass]:
    """Passes for about `seconds`: none starts when less than half a mean pass
    is left.  With `trace`, untraced and traced passes alternate, starting
    and ending untraced, at least three in all, so that every traced pass
    has an untraced one on each side.  No job starts after RUN_CAP_S."""
    passes: list[Pass] = []
    start = perf_counter()
    deadline = start + RUN_CAP_S
    while True:
        if trace and len(passes) % 2 == 1:
            tracer.capture = True
            with patched(tracer):
                passes.append(run_pass(rscwe, jobs, tracer, len(passes), deadline))
            tracer.capture = False
        else:
            passes.append(run_pass(rscwe, jobs, None, len(passes), deadline))
        elapsed = perf_counter() - start
        if (elapsed + elapsed / len(passes) / 2 >= min(seconds, RUN_CAP_S)
                and (not trace or len(passes) >= 3 and len(passes) % 2 == 1)):
            return passes


def is_known_failure(job: Job, outcome: Outcome, digests: dict[str, str]) -> bool:
    """Whether a failing outcome is exactly the failure the job is known for:
    a timeout, or a refusal that would pass with the known exit code."""
    known = job.known_defect
    if known == "timeout":
        return outcome.timed_out
    return known is not None and not check_output(replace(job, expect=(known,)), outcome, digests)


def grade(jobs: list[Job], passes: list[Pass], digests: dict[str, str]) -> None:
    """Fill in Outcome.problems and Outcome.known.  The first pass is checked
    in full.  A later execution that repeats the first one's exit code and
    output digest inherits its verdict; any other fails."""
    first = passes[0].outcomes
    for job, outcome in zip(jobs, first):
        outcome.problems = check_output(job, outcome, digests)
        outcome.known = bool(outcome.problems) and is_known_failure(job, outcome, digests)
    for p in passes[1:]:
        for job, ref, outcome in zip(jobs, first, p.outcomes):
            if outcome.timed_out:
                outcome.problems = ["timed out"]
                outcome.known = job.known_defect == "timeout"
            elif (outcome.rc, outcome.out) != (ref.rc, digest(ref.out)):
                outcome.problems = [f"exit code {outcome.rc} or output differs from the first pass"]
            else:
                outcome.problems, outcome.known = ref.problems, ref.known


# -- set-up time, host probe, self-test ---------------------------------------


def measure_setup(fields: list[tuple[int, int]], samples: int, warm_up: bool = False) -> list[float]:
    """Wall times of fresh interpreters that each import rscwe and build every
    field of the workload once.  The warm-up run compiles the bytecode and
    is not returned."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), json.dumps(fields)]
    times = []
    for _ in range(samples + warm_up):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=cli_env(), check=True)
        times.append(perf_counter() - start)
    return times[warm_up:]


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: host speed, not a metric."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return perf_counter() - start


SELF_TEST_JOB = compute_job(Code(5, 1, 2, extended=True))


def self_test(rscwe, digests: dict[str, str]) -> list[str]:
    """The gate must pass a good enumerator and fail one whose coefficient,
    or one byte of output, was changed."""
    job = SELF_TEST_JOB
    good = run_cli_job(rscwe, job, None, JOB_LIMIT_S)
    problems = []
    if check_output(job, good, digests):
        problems.append(f"self-test: the unperturbed output fails: {check_output(job, good, digests)}")
    doc = json.loads(good.out)
    doc["terms"][0]["c"] += 1
    bumped = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    cut = good.out.rindex('"c":') + 4
    byte = good.out[:cut] + str((int(good.out[cut]) + 1) % 10) + good.out[cut + 1:]
    for what, text in (("perturbed coefficient", bumped), ("perturbed output byte", byte)):
        for table in (digests, {}):
            if not check_output(job, replace(good, out=text), table):
                problems.append(f"self-test: a {what} passed the gate"
                                + ("" if table else " without digests"))
    return problems


# -- metrics ------------------------------------------------------------------


def end_to_end(jobs, passes, setup_s, peak_rss_kb) -> dict:
    """Times are means over the run's passes.  Host speed drifts on a shared
    machine, and the mean varied least from run to run (see README)."""
    per_job = [statistics.fmean(p.outcomes[i].seconds for p in passes) for i in range(len(jobs))]
    executions = [o for p in passes for o in p.outcomes]
    return {
        "wall_s": (statistics.fmean(p.wall for p in passes), "s"),
        "slowest_job_s": (max(per_job), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "pass_frac": (sum(not o.problems for o in executions) / len(executions), "frac"),
    }


def probe_gf(rscwe, tracer: Tracer) -> dict:
    """ns per call of add, sub, mul (and eta in odd characteristic) on every
    benchmark field, median of 3 timed loops over fixed random pairs."""
    rng = random.Random(0)
    metrics = {}
    for p, m in FIELDS:
        ctx = rscwe.build_field(p, m)
        q = ctx.q
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(PROBE_OPS)]
        ops = {"add": ctx.add, "sub": ctx.sub, "mul": ctx.mul}
        if p != 2:
            ops["eta"] = lambda a, b, eta=ctx.quadratic_character: eta(a)
        for op, fn in ops.items():
            fn(1, 1)  # lazy tables are built once per field, outside the timing
            times = []
            with tracer.span(f"probe.gf.{op}.q{q}"):
                for _ in range(3):
                    start = perf_counter()
                    for a, b in pairs:
                        fn(a, b)
                    times.append(perf_counter() - start)
            metrics[f"gf.{op}_ns.q{q}"] = (statistics.median(times) / PROBE_OPS * 1e9, "ns")
    return metrics


def layer_metrics(rscwe, jobs, passes, tracer: Tracer) -> dict:
    traced = [i for i, p in enumerate(passes) if p.traced]
    n = len(traced)
    spans = tracer.spans
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s[0] == name]

    def total(name):
        return sum(s[2] - s[1] for s in named(name)) / n

    def info_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in named(name)) / n

    metrics = {"gf.build_field_s": (total("gf.build_field"), "s")}
    for layer in ("gf", "codes", "cwe", "cli", "bench"):
        own = sum(selfs[i] for i, s in enumerate(spans) if s[4] is not None and s[0].split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (own / n, "s")

    # probes: the gf op loops here; enumerate and validate ran beside each job
    metrics.update(probe_gf(rscwe, tracer))
    enumerate_s, codewords = total("probe.codes.enumerate"), info_sum("probe.codes.enumerate", "codewords")
    formula_s = total("cwe.formula")
    term_coords = sum((s[5] or {}).get("terms", 0) * (s[5] or {}).get("length", 0) for s in named("cwe.formula")) / n
    metrics.update({
        "codes.enumerate_s": (enumerate_s, "s"),
        "codes.codewords": (codewords, "count"),
        "codes.codewords_per_s": (codewords / enumerate_s if enumerate_s else 0.0, "1/s"),
        "cwe.brute_s": (total("cwe.brute"), "s"),
        "cwe.brute_tally_s": (total("cwe.brute") - enumerate_s, "s"),
        "cwe.brute_terms_per_codeword": (info_sum("cwe.brute", "terms") / codewords if codewords else 0.0, "ratio"),
        "cwe.rs2_s": (total("cwe.rs2"), "s"),
        "cwe.k3_full_s": (total("cwe.k3_full"), "s"),
        "cwe.k3_punct_s": (total("cwe.k3_punct"), "s"),
        "cwe.formula_s": (formula_s, "s"),
        "cwe.formula_ns_per_term_coord": (formula_s / term_coords * 1e9 if term_coords else 0.0, "ns"),
        "cwe.validate_s": (total("probe.cwe.validate"), "s"),
        "cwe.serialize_s": (total("cwe.serialize"), "s"),
        "cwe.deserialize_s": (total("cwe.deserialize"), "s"),
        "cwe.render_s": (total("cwe.render"), "s"),
        "cwe.equal_s": (total("cwe.equal"), "s"),
        "cwe.terms": (info_sum("cwe.formula", "terms"), "count"),
        "cwe.json_bytes": (info_sum("cwe.serialize", "bytes"), "B"),
    })

    for case in REFUSAL_CASES:
        times = [o.seconds for i in traced for j, o in zip(jobs, passes[i].outcomes) if j.name == case]
        metrics[f"cli.refuse_s.{case}"] = (statistics.fmean(times) if times else 0.0, "s")
    exit_ok = sum(o.rc in j.expect for i in traced for j, o in zip(jobs, passes[i].outcomes) if j.kind != "archive")
    metrics["cli.exit_ok"] = (exit_ok / n, "count")

    # Each traced pass against the untraced passes on either side of it,
    # leaving out the first pass, which pays first-touch costs.
    job_spans = [i for i, s in enumerate(spans) if s[0] == "bench.job"]
    jobs_s = {t: 0.0 for t in traced}
    for i in job_spans:
        jobs_s[int(spans[i][4].split(":")[0])] += spans[i][2] - spans[i][1]
    untraced = {t: statistics.fmean(passes[u].wall for u in (t - 1, t + 1) if u > 0) for t in traced}
    # coverage of each job span, and of the cli.run_cli span inside it,
    # by the spans one level down
    covered = job_spans + [i for i, s in enumerate(spans) if s[0] == "cli.run_cli"]
    metrics.update({
        "trace.jobs_s": (statistics.fmean(jobs_s.values()), "s"),
        "trace.untraced_wall_s": (statistics.fmean(untraced.values()), "s"),
        "trace.overhead_s": (statistics.fmean(jobs_s[t] - untraced[t] for t in traced), "s"),
        "trace.cover_min": (min(child_coverage(spans, i) for i in covered), "ratio"),
    })
    return metrics


# -- entry point --------------------------------------------------------------


def source_digest() -> str:
    h = sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    rscwe = import_package()
    digests = load_digests()
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT_DIR.mkdir(exist_ok=True)

    jobs = make_jobs(args.workload, args.seed)
    probe_before = host_probe()
    gate_problems = self_test(rscwe, digests)
    fields = workload_fields(jobs)
    setup = [] if args.trace else measure_setup(fields, SETUP_SAMPLES, warm_up=True)
    tracer = Tracer()
    passes = run_passes(rscwe, jobs, args.seconds, bool(args.trace), tracer)
    if args.workload == "refusals":
        peak_kb = max(o.maxrss_kb for p in passes for o in p.outcomes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not args.trace:
        setup += measure_setup(fields, SETUP_SAMPLES)
    grade(jobs, passes, digests)

    trace_problems = []
    if args.trace:
        metrics = layer_metrics(rscwe, jobs, passes, tracer)
        (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.to_json()))
        if tracer.missing:
            trace_problems.append(f"layer entry points not found, so not traced: {sorted(tracer.missing)}")
        if metrics["trace.cover_min"][0] < COVER_MIN:
            trace_problems.append(f"layer spans cover only {metrics['trace.cover_min'][0]:.3f} of a job")
    else:
        metrics = end_to_end(jobs, passes, statistics.median(setup), peak_kb)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if [m["name"] for m in declared] != list(metrics):
        sys.exit("bench: the metrics reported differ from the ones BENCHMARK.json declares")

    executions = [(j, o) for p in passes for j, o in zip(jobs, p.outcomes)]
    unexpected = [(j, o) for j, o in executions if o.problems and not o.known]
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "host_probe_s": [probe_before, host_probe()],
        "pass_walls_s": [p.wall for p in passes], "traced": [p.traced for p in passes],
        "job_s": {j.name: statistics.fmean(p.outcomes[i].seconds for p in passes)
                  for i, j in enumerate(jobs)},
        "known_defects_failing": sorted({j.name for j, o in executions if o.known}),
        "failures": [f"{j.name}: {o.problems[0]}" for j, o in unexpected][:20],
        "self_test": gate_problems,
        "trace_problems": trace_problems,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not unexpected and not gate_problems and not trace_problems,
        "attempted": len(executions),
        "failed": len(unexpected),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
