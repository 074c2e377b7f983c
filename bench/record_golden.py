"""Record golden.json: every variant's certificate digest and the counts all
variants share, for each workload.

    python3 bench/record_golden.py [WORKLOAD ...]

Run it only at a commit whose certificates are trusted: the benchmark fails
every operation whose certificate differs from what this records.  It fails
if two variants of one workload disagree on the seed-invariant counts.
"""

from __future__ import annotations

import json
import os
import sys

from run import BUILD_DIR, Runner
from workloads import GOLDEN_PATH, VARIANTS, WORKLOADS, certificate_digest, invariant_counts


def record(workload, workdir):
    counts = None
    digests = []
    for seed in range(VARIANTS):
        runner = Runner(workload, seed, workdir)
        result = runner.child("run")
        if result is None or result["exit_code"] != 0:
            raise SystemExit("%s variant %d failed: %s" % (workload.name, seed, runner.problems))
        cert = json.loads(result["output"])
        variant_counts = invariant_counts(workload, cert)
        if counts not in (None, variant_counts):
            raise SystemExit(
                "%s variant %d counts %r differ from %r" % (workload.name, seed, variant_counts, counts)
            )
        counts = variant_counts
        digests.append(certificate_digest(cert))
        print("%s variant %2d verdict_s %.3f %s" % (workload.name, seed, result["verdict_s"], digests[-1]))
    return {"counts": counts, "digests": digests}


def main(names):
    golden = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
    workdir = os.path.join(BUILD_DIR, "record")
    os.makedirs(workdir, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        golden[name] = record(WORKLOADS[name], workdir)
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
