"""Write bench/digests.json: SHA-256 of each job's output for seeds 0..9.

    python3 bench/freeze_digests.py

Run it only on a commit whose outputs are the reference (the seed commit).
The output gate then requires every later commit to reproduce these bytes
for any job whose input appears here.  Refusal jobs are left out: their
check is the exit code.
"""

from __future__ import annotations

import json
import signal
import sys

from check import DIGESTS_PATH, sha256
from run import SELF_TEST_JOB, _on_alarm, import_package, run_job
from workloads import WORKLOADS, make_jobs

SEEDS = range(10)


def main() -> int:
    rscwe = import_package()
    signal.signal(signal.SIGALRM, _on_alarm)
    jobs = {SELF_TEST_JOB.key: SELF_TEST_JOB}
    for workload in WORKLOADS:
        for seed in SEEDS:
            jobs.update((j.key, j) for j in make_jobs(workload, seed) if j.kind != "refuse")
    digests = {}
    for key, job in sorted(jobs.items()):
        outcome = run_job(rscwe, job, None, float("inf"))
        if outcome.rc != 0 or outcome.timed_out:
            sys.exit(f"{key}: exit {outcome.rc}, {outcome.err.strip()[-300:]}")
        digests[key] = sha256(outcome.out)
        print(f"{outcome.seconds:7.2f}s  {key[:100]}", flush=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
