"""Child process behind the setup_s metric.

    python3 benchmarks/setup_probe.py WORKLOAD SEED

Builds the workload's network documents first (pure Python, untimed), then
prints the seconds a fresh interpreter spends importing convtraffic and
parsing those documents.
"""

import sys
import time

import run
import workloads


def main() -> None:
    workload = workloads.build(sys.argv[1], int(sys.argv[2]))
    start = time.perf_counter()
    run.prepare(run.import_package(), workload)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
