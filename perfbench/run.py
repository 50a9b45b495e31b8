"""morseflow benchmark: time the verdict pipeline end to end and trace its layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cone-full --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0      # every workload, every metric

``--trace 0`` runs the workload's stages repeatedly for ``--seconds`` seconds
and reports the median time of ``run_experiment`` plus writing ``report.json``
rescaled to a fixed host speed (pipeline_norm_s, see hostrate.py), the median
set-up time of fresh interpreters, rescaled the same way (setup_s), and the
peak RSS of this process.
``--trace 1`` runs the pipeline once untraced and once with every layer
wrapped (see spans.py) and reports the per-layer metrics.  Every report is
checked after its timed run: stage errors, critical kinds and values,
verdicts, non-vacuous condition 4, and byte identity with the first report of
the same seed.  The last line of standard output is one JSON object; the line
before it (``RAW ...``) holds every raw sample (wall and CPU time, the
rescaled time, host-rate samples) and the run environment.
"""

import os

# One single-threaded process: BLAS reads these only when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostrate  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
SUBPROCESS_TIMEOUT_S = 170


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load_program():
    """Import morseflow from this checkout's src/, never from anywhere else."""
    if not (SRC / "morseflow" / "__init__.py").is_file():
        raise RuntimeError(f"no morseflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import morseflow

    if SRC.resolve() not in Path(morseflow.__file__).resolve().parents:
        raise RuntimeError(f"morseflow was imported from {morseflow.__file__}, not {SRC}")
    return morseflow


def _code_key(doc: dict, stages) -> str:
    """Names the program version and input, so stored first reports never go stale."""
    h = hashlib.sha256(json.dumps([doc, list(stages)], sort_keys=True).encode())
    for path in sorted((SRC / "morseflow").rglob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _first_of_seed(kind: str, name: str, seed: int, key: str, data: bytes) -> bytes:
    """The first ``data`` stored for this workload, seed and code version."""
    path = OUT / kind / f"{name}-seed{seed}-{key}"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    return path.read_bytes()


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def _pipeline(mf, spec, stages, out_dir: Path):
    """One timed pipeline run: a raw sample dict and the report bytes.

    ``wall_s`` and ``cpu_s`` exclude the host-rate sampler's interruptions;
    ``norm_s`` is ``wall_s`` rescaled to the reference host rate.
    """
    gc.collect()
    with hostrate.HostRate() as rate:
        w0, c0 = time.perf_counter(), time.process_time()
        report = mf.run_experiment(spec, stages)
        mf.emit_report(report, "json", out_dir)
        w1, c1 = time.perf_counter(), time.process_time()
    wall = w1 - w0 - rate.spent
    sample = {"wall_s": wall, "cpu_s": c1 - c0 - rate.spent, "norm_s": rate.normalize(wall),
              "rate_samples": len(rate.samples)}
    return sample, (out_dir / "report.json").read_bytes()


def _setup_samples(doc: dict) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(doc)],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if SRC.resolve() not in Path(sample.pop("module")).resolve().parents:
            raise RuntimeError("set-up probe imported morseflow from outside the checkout")
        samples.append(sample)
    return samples


class Run:
    """One benchmark invocation: its workload, inputs and check state."""

    def __init__(self, mf, workload, seed: int):
        self.mf = mf
        self.w = workload
        self.seed = seed
        self.doc = workload.document(mf.BUILTIN, seed)
        self.spec = mf.spec_from_mapping(self.doc)
        self.key = _code_key(self.doc, workload.stages)
        self.out_dir = OUT / "work" / f"{workload.name}-{os.getpid()}"
        self.failures: list = []

    def check(self, label: str, data: bytes, found=()) -> bool:
        """Checks one report outside the timer; records and returns whether it failed."""
        found = list(found) + workloads.check_report(self.w, json.loads(data))
        first = _first_of_seed("reports", self.w.name, self.seed, self.key, data)
        if data != first:
            found.append(f"report differs from the first report of seed {self.seed}")
        self.failures += [f"{label}: {msg}" for msg in found]
        return bool(found)

    def timed(self, seconds: float):
        """Repeat the pipeline until the next run would overshoot ``seconds``."""
        samples, failed = [], 0
        t0 = time.perf_counter()
        while True:
            sample, data = _pipeline(self.mf, self.spec, self.w.stages, self.out_dir)
            samples.append(sample)
            failed += self.check(f"run {len(samples)}", data)
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.median(s["wall_s"] for s in samples) > seconds:
                return samples, failed

    def traced(self):
        import spans

        plain_sample, plain = _pipeline(self.mf, self.spec, self.w.stages, self.out_dir)
        failed = self.check("untraced", plain)
        f, Z = self.mf.problem_objects(self.spec)
        tracer = spans.Tracer(f, Z)
        with tracer:
            traced_sample, data = _pipeline(self.mf, self.spec, self.w.stages, self.out_dir)
        found = [] if data == plain else ["report differs from the untraced report"]
        violations = spans.invariant_violations(tracer.flows)
        found += [f"invariant: {v}" for v in violations]
        metrics = spans.layer_metrics(tracer, violations)
        metrics["critical.points"] = len(json.loads(data)["critical_points"])
        counts = json.dumps({k: metrics[k] for k in spans.EXACT}, sort_keys=True).encode()
        first = json.loads(_first_of_seed("counts", self.w.name, self.seed, self.key, counts))
        diff = sorted(k for k, v in first.items() if v != metrics[k])
        if diff:
            found.append(f"counts differ from the first traced run of this seed: {diff}")
        failed += self.check("traced", data, found)
        metrics["pipeline_s"] = plain_sample["wall_s"]
        metrics["trace.overhead_ratio"] = traced_sample["norm_s"] / plain_sample["norm_s"] - 1.0
        metrics["fail_ratio"] = failed / 2
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / "spans" / f"{self.w.name}.npz")  # the latest traced run only
        return metrics, [plain_sample, dict(traced_sample, traced=True)], failed


def _metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import numpy as np

    if name not in workloads.WORKLOADS:
        return _fail(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    try:
        mf = _load_program()
    except RuntimeError as e:
        return _fail(str(e))
    end_to_end, per_layer = _metric_table()
    run = Run(mf, workloads.WORKLOADS[name], seed)
    raw = {"workload": name, "seed": seed, "trace": trace, "env": _environment(np)}
    if trace:
        values, raw["pipeline"], failed = run.traced()
        attempted = 2
        wanted = per_layer
    else:
        setup = _setup_samples(run.doc)
        raw["pipeline"], failed = run.timed(seconds)
        raw["setup"] = setup
        attempted = len(raw["pipeline"])
        values = {
            "pipeline_norm_s": statistics.median(s["norm_s"] for s in raw["pipeline"]),
            "pipeline_s": statistics.median(s["wall_s"] for s in raw["pipeline"]),
            "setup_s": statistics.median(s["norm_s"] for s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = end_to_end
    shutil.rmtree(run.out_dir)
    raw["fail_ratio"] = failed / attempted
    raw["failures"] = run.failures
    raw["env"]["loadavg_end"] = os.getloadavg()
    raw["metrics"] = values
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(raw, sort_keys=True) + "\n")
    for msg in run.failures:
        print(f"FAILED {name} seed {seed}: {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print("RAW " + json.dumps(raw, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload: one untraced and two traced runs, every metric printed."""
    try:
        _load_program()
    except RuntimeError as e:
        return _fail(str(e))
    import spans

    status = 0
    for name in workloads.WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=3 * SUBPROCESS_TIMEOUT_S,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return _fail(f"{name} --trace {trace} exited with {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            results.append((json.loads(lines[-2][4:]), json.loads(lines[-1])))
        (raw0, e2e), (raw1, layers), (raw2, layers2) = results
        same = all(layers["metrics"][k] == layers2["metrics"][k]
                   for k in spans.EXACT if k in layers["metrics"])
        print(f"== {name} (seed {seed})")
        print(f"   correct {e2e['correct'] and layers['correct'] and layers2['correct']}; "
              f"fail_ratio {raw0['fail_ratio']:.3g} over {e2e['attempted']} timed runs; "
              f"traced counts identical across two runs: {same}")
        for msg in dict.fromkeys(raw0["failures"] + raw1["failures"] + raw2["failures"]):
            print(f"   FAILED {msg}")
        for part in (e2e, layers):
            for metric, v in part["metrics"].items():
                print(f"   {metric:<42} {v['value']:>16.6g} {v['unit']}")
        if not same:
            status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="run every workload and print every metric")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail(f"no BENCHMARK.json in {ROOT}")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        return _fail("give --workload NAME or --all")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
