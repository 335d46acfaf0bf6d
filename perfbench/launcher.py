"""Start the benchmark's children one at a time and report what each cost.

    python perfbench/launcher.py

``run.py`` starts this once and sends it one JSON request per line on
stdin: ``[argv, cwd, stdout path, stderr path, timeout s]``. For each, it
starts the child, kills it if it outlives the timeout, reaps it and writes
``[wall s, peak RSS MB, exit code]`` as one JSON line on stdout. It exits at
the end of its input.

Children are started from here, not from ``run.py``, because Linux starts a
child's ``ru_maxrss`` at the peak RSS of the address space it was spawned
from. ``run.py`` holds the inputs, the pins and the calibration data; this
process holds almost nothing, so its children report their own peak.
"""

import json
import os
import signal
import sys
import time


def run(argv: list[str], cwd: str, stdout: str, stderr: str, timeout: float) -> list:
    fds = [os.open(os.devnull, os.O_RDONLY),
           *(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
             for path in (stdout, stderr))]
    os.chdir(cwd)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, fd, target)
                                       for target, fd in enumerate(fds)])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    # Wait for the exit but leave the child unreaped, so the timer can never
    # signal a reused pid; then cancel the timer and reap.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    for fd in fds:
        os.close(fd)
    return [wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)]


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
