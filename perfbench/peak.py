"""Run a module as __main__ and record the process's own peak RSS.

    python3 perfbench/peak.py OUT MODULE [ARG...]

runs MODULE like ``python3 -m MODULE ARG...`` and, when it exits, writes
the VmHWM line of /proc/self/status (kB) to OUT. ru_maxrss from wait4 is no
use here: at exec the kernel folds the parent's resident size into the
child's, so the figure would follow the benchmark's own memory.
"""

import runpy
import sys


def main() -> None:
    out, module, *args = sys.argv[1:]
    sys.argv = [module, *args]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        with open("/proc/self/status", encoding="ascii") as fh:
            peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        with open(out, "w", encoding="ascii") as fh:
            fh.write(peak)


if __name__ == "__main__":
    main()
