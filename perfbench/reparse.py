"""Parse a trace file with simulmob's ``parse_trace`` and print what it read.

No subcommand reaches ``parse_trace``, so the benchmark runs it through this
script: ``python perfbench/reparse.py TRACE``. It prints the number of
moves and the sha256 of their canonical rows, which the benchmark compares
with the rows it generated.
"""

import sys

from simulmob.traceio import parse_trace
from workloads import canonical_rows, sha256


def main(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        records = parse_trace(fh.read())
    print(len(records), sha256(canonical_rows(records)))


if __name__ == "__main__":
    main(sys.argv[1])
