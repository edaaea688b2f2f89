"""Time one set-up in a fresh interpreter and print it in reference seconds.

    python3 perfbench/setup_once.py WORKLOAD SEED OUT_DIR

A set-up is what a run does before its first timed operation: import the
sphero package and everything it needs, read the pinned answers and build the
workload's operations.  ``run.py`` starts this script several times and
reports the median as ``setup_s``, so that each sample pays for every import
again, the standard library's included.  Only ``speed.py`` (``signal``,
``bisect``, ``time``) is imported before the clock starts.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import speed  # noqa: E402


def main(workload: str, seed: int, out_dir: str) -> float:
    with speed.SpeedProbe() as probe:
        t0 = probe.now()
        import json

        import workloads

        with open(os.path.join(HERE, "pins.json")) as fh:
            pins = json.load(fh)
        workloads.WORKLOADS[workload](workloads.load_modules(), seed, pins, out_dir)
        t1 = probe.now()
        while len(probe.times) < speed.MIN_SAMPLES:
            speed.signal.pause()  # the probe's next sample ends the pause
    return probe.reference_s(t0, t1)


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
