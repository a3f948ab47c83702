"""Output gate: every check a job's output must pass, independent of the package.

Nothing here imports rscwe.  Enumerators are read back from the canonical
JSON text with the json module, and checked against facts that need no
enumeration (ROADMAP item 4):

- every exponent vector has q entries summing to the code length L;
- the coefficient mass is q^k;
- the Hamming weight distribution is that of an MDS code, with d = L-k+1
  (MacWilliams & Sloane, The Theory of Error-Correcting Codes, Ch. 11,
  Thm 6):  A_w = C(L,w) * sum_{j=0}^{w-d} (-1)^j C(w,j) (q^(w-d+1-j) - 1);
- per symbol rho, since every coordinate is a surjective linear functional
  and any two are independent for k >= 2:
  sum c*e_rho = L q^(k-1)  and  sum c*e_rho^2 = L(L-1) q^(k-2) + L q^(k-1).

Outputs whose input is in digests.json must also match the SHA-256 frozen
there from the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import operator
from collections import defaultdict
from math import comb
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}


def mds_weights(q: int, length: int, k: int) -> list[int]:
    d = length - k + 1
    dist = [1] + [0] * length
    for w in range(d, length + 1):
        dist[w] = comb(length, w) * sum(
            (-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1)
        )
    return dist


def check_terms(q: int, k: int, length: int, terms: list) -> list[str]:
    """Problems found in a list of {"e": [...], "c": c} terms (empty when fine)."""
    by_coeff: dict[int, list[list[int]]] = defaultdict(list)
    dist = [0] * (length + 1)
    for term in terms:
        exps, coeff = term["e"], term["c"]
        if type(coeff) is not int or coeff < 1:
            return [f"coefficient {coeff!r} is not a positive integer"]
        if len(exps) != q or sum(exps) != length or min(exps) < 0:
            return [f"exponent vector {exps[:8]}... is not {q} entries summing to {length}"]
        by_coeff[coeff].append(exps)
        dist[length - exps[0]] += coeff
    problems = []
    if sum(dist) != q**k:
        problems.append(f"mass {sum(dist)} != q^k = {q**k}")
    if dist != mds_weights(q, length, k):
        problems.append("weight distribution differs from the MDS formula")
    first, second = [0] * q, [0] * q
    for coeff, vectors in by_coeff.items():
        for rho, column in enumerate(zip(*vectors)):
            first[rho] += coeff * sum(column)
            second[rho] += coeff * sum(map(operator.mul, column, column))
    want1 = length * q ** (k - 1)
    want2 = length * (length - 1) * q ** (k - 2) + length * q ** (k - 1)
    if any(s != want1 for s in first):
        problems.append(f"first moment per symbol differs from {want1}")
    if any(s != want2 for s in second):
        problems.append(f"second moment per symbol differs from {want2}")
    return problems


def check_json(code, text: str) -> list[str]:
    """Check canonical CWE JSON for `code` (a workloads.Code)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if json.dumps(doc, sort_keys=True, separators=(",", ":")) != text.rstrip("\n"):
        return ["output is not canonical JSON"]
    want = {"p": code.p, "m": code.m, "k": code.k, "n": code.length,
            "extended": code.extended, "alpha": list(code.points())}
    got = {key: doc.get(key) for key in want}
    if got != want:
        return [f"header {got} does not describe the requested code"]
    exps = [t["e"] for t in doc["terms"]]
    if exps != sorted(exps) or len(set(map(tuple, exps))) != len(exps):
        return ["terms are not sorted and distinct"]
    return check_terms(code.q, code.k, code.length, doc["terms"])


def check_compare(job, text: str) -> list[str]:
    """compare prints one OK line per enumerator, each with mass q^k."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    mass = f", mass {job.code.q ** job.code.k}"
    if len(lines) != 1 + job.random_sets or not all(
        line.startswith("OK ") and line.endswith(mass) for line in lines
    ):
        return [f"compare output is not {1 + job.random_sets} OK lines ending '{mass}'"]
    return []


def check_archive(job, result: dict) -> list[str]:
    problems = []
    if not result["equal"]:
        problems.append("cwe_equal(original, deserialized) is false")
    if result["again"] != result["json"]:
        problems.append("re-serialization is not byte-identical")
    lines = result["render"].splitlines()
    if sum(int(line.split(" ", 1)[0]) for line in lines) != job.code.q ** job.code.k:
        problems.append("rendered coefficients do not sum to q^k")
    return problems + check_json(job.code, result["json"])


def check_output(job, outcome, digests: dict[str, str]) -> list[str]:
    """Every problem with one job's outcome; an empty list means it passed.

    outcome has .rc (exit code or None), .out (the text digested), .err
    (stderr or exception text), .timed_out and, for archive jobs, .result.
    """
    if outcome.timed_out:
        return ["timed out"]
    if outcome.rc not in job.expect:
        return [f"exit code {outcome.rc}, expected one of {job.expect}: {outcome.err.strip()[-200:]}"]
    if outcome.rc != 0:
        if outcome.out.strip() or "error" not in outcome.err:
            return ["a refusal must print an error on stderr and nothing on stdout"]
        return []
    frozen = digests.get(job.key)
    if frozen is not None and sha256(outcome.out) != frozen:
        return ["output differs from the digest frozen at the seed commit"]
    if job.kind == "archive":
        return check_archive(job, outcome.result)
    if job.kind == "compare":
        return check_compare(job, outcome.out)
    return check_json(job.code, outcome.out)
