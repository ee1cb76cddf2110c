"""annosql benchmark runner.

    python3 perfbench/run.py --workload annotate|train|answer --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 the last line of standard output
is a JSON object holding every end-to-end metric; with --trace 1 it holds
every per-layer metric instead. Progress, the host record and the per-layer
span summary go to standard error. The answer model is trained on the first
run in a checkout and kept under .bench_build/.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def host_record():
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("annotate", "train", "answer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: the loss is identical and epochs and the beam tail
    # are steadier than with a thread pool on a small host.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(ROOT, "src", "annosql")):
        sys.exit(f"annosql sources not found under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import workloads

    workloads.log({"host": host_record(), "args": vars(args)})
    model_files = workloads.reference_model(ROOT, CACHE_DIR)
    if args.trace:
        metrics, results, problems = workloads.measure_traced(args.workload, args.seed, model_files)
        units = workloads.PER_LAYER
    else:
        metrics, results, problems = workloads.measure(args.workload, args.seed, args.seconds, model_files)
        units = workloads.END_TO_END
    attempted = sum(r["attempted"] for phase in results.values() for r in phase)
    failed = sum(r["failed"] for phase in results.values() for r in phase)
    workloads.log({"operations": {"attempted": attempted, "succeeded": attempted - failed, "failed": failed},
                   "problems": problems})
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
