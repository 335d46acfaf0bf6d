"""Regenerate ``golden.json``: sha256 pins of every output, per workload and seed.

    python3 perfbench/pin.py [FIRST LAST]

Runs each workload's set-up invocation and one iteration for the seeds
FIRST..LAST (default 0..99), keeps the digests only when the semantic checks
pass, and writes them to ``perfbench/golden.json``. Pins are made on the
commit whose output they freeze; a later change that alters any seeded byte
then fails the benchmark's correctness gate. Seeds outside the pinned range
are still checked for byte identity across iterations and semantically.
"""

import json
import shutil
import sys

from run import WORK, check_checkout, invoke
from workloads import GOLDEN, WORKLOADS, Checker


def pin(name: str, seed: int) -> dict:
    work = WORK / "pin" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed, work)
    workload.prepare()
    checker = Checker(workload, None)
    digests = {}
    for inv in [workload.setup_invocation(), *workload.iteration()]:
        _, _, stdout = invoke(workload, inv)
        errors = ["non-zero exit"] if stdout is None else checker.check(inv, stdout)
        if errors:
            raise SystemExit(f"{name} seed {seed}: {errors}")
        digests.update(checker.digests(inv, stdout))
    shutil.rmtree(work)
    return digests


def main(first: int = 0, last: int = 99) -> None:
    check_checkout()
    pins = {name: {str(seed): pin(name, seed) for seed in range(first, last + 1)}
            for name in WORKLOADS}
    GOLDEN.write_text(json.dumps({"seeds": [first, last], "sha256": pins},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:3]))
