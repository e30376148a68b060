"""Time the program's set-up for one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD INPUTS_DIR SEED

Prints the seconds from the start of ``import hdlsmith`` to the end of the
workload's set-up: loading its suite or configs and building the backend
registry. Interpreter start-up and the benchmark's own imports are not
counted.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from provider import ModelledProvider  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, inputs_dir, seed = argv[0], Path(argv[1]), int(argv[2])
    provider = ModelledProvider(
        lambda task, depth, slot: "", latency_s=0.0, throttle_every=0, seed=seed, windows={}, prices={}
    )
    start = time.perf_counter()
    import hdlsmith  # noqa: F401

    WORKLOADS[name].load(inputs_dir, provider, seed)
    print(f"{time.perf_counter() - start:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
