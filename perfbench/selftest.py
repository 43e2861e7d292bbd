"""Show why every repetition runs in a fresh interpreter.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

Runs unit 0 of a workload twice, each in a fresh interpreter, then twice
back to back inside this one.  The two fresh runs should report comparable
ops_per_s; the second in-process run finds the package's module-level
caches full and is far faster, so it would measure nothing.  Exits 1 when
the fresh runs differ by more than a quarter or the warm run is not at
least twice as fast as the cold one.
"""

import argparse
import sys

import child
import run
from inputs import GENERATORS, WORKLOADS


def ops_per_s(latencies):
    return len(latencies) / sum(latencies)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="root_sweep",
                        choices=[w for w in WORKLOADS if w != "cold_cli"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    clock = run.Clock()
    fresh = [ops_per_s(run.unit_child(args.workload, args.seed, 0,
                                      clock)["latencies"])
             for _ in range(2)]
    ops = GENERATORS[args.workload](args.seed, 0)
    cold, warm = (ops_per_s(child.run_unit(ops)["latencies"])
                  for _ in range(2))
    print(f"fresh interpreter, run 1: {fresh[0]:.4g} ops/s")
    print(f"fresh interpreter, run 2: {fresh[1]:.4g} ops/s "
          f"(ratio {fresh[1] / fresh[0]:.3f})")
    print(f"same interpreter, run 1:  {cold:.4g} ops/s")
    print(f"same interpreter, run 2:  {warm:.4g} ops/s "
          f"(ratio {warm / cold:.1f})")
    ok = 0.75 <= fresh[1] / fresh[0] <= 1 / 0.75 and warm >= 2 * cold
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
