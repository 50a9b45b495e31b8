"""Time one fresh interpreter from ``import morseflow`` to a built f and Z.

Usage: python3 setup_probe.py <src dir> <problem document as JSON>
Prints one JSON object with the wall and CPU seconds, the wall time rescaled
to the reference host rate (measured right after, see hostrate.py), and the
imported module.
"""

import json
import statistics
import sys
import time

KERNEL_RUNS = 10


def main():
    src, doc = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    w0, c0 = time.perf_counter(), time.process_time()
    import morseflow

    spec = morseflow.spec_from_mapping(doc)
    morseflow.problem_objects(spec)
    w1, c1 = time.perf_counter(), time.process_time()
    import hostrate  # after the timed region, which it must not include

    hostrate.kernel_s()  # warm-up
    kernel = statistics.fmean(hostrate.kernel_s() for _ in range(KERNEL_RUNS))
    print(json.dumps({"wall_s": w1 - w0, "cpu_s": c1 - c0,
                      "norm_s": (w1 - w0) * hostrate.REF_S / kernel,
                      "module": morseflow.__file__}))


if __name__ == "__main__":
    main()
