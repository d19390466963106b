"""axitherm benchmark runner.

    python3 perfbench/run.py --workload hearth_fine --seed 0 --seconds 25 --trace 0

Runs one workload in this process, against the package in ``src/`` of
the checkout that holds this file, and prints one JSON object as the
last line of standard output. With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones. Every case's outputs are checked; see workloads.py.

Timing: one untimed warm-up run of the workload's case, then repeats of
it until ``--seconds`` have gone by. Each timing is a median over repeats.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import COUNT_NAMES, SPAN_NAMES, Tracer, tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# Cases write here, relative to the run's work directory, so that no
# output (config.json records it) depends on the checkout's location.
CASE_DIR = Path("case")


def _import_package():
    """Import axitherm from this checkout's src/ and nowhere else."""
    if not (SRC / "axitherm" / "__init__.py").is_file():
        raise SystemExit(f"error: no axitherm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import axitherm
    import axitherm.cli  # noqa: F401
    import axitherm.verification  # noqa: F401
    if Path(axitherm.__file__).resolve().parent != SRC / "axitherm":
        raise SystemExit(f"error: imported axitherm from {axitherm.__file__}")


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Session:
    """Runs and checks the case of one workload, and keeps the records."""

    def __init__(self, workload):
        self.workload = workload
        self.first_digest = None  # digest of the case's first run
        self.records = []         # one dict per timed run
        self.errors = []

    def run(self, timed=True, tracer=None):
        case = self.workload.case
        out = _fresh_dir(CASE_DIR)
        gc.collect()
        record = {"traced": tracer is not None, "failures": [],
                  "raised": False}
        try:
            if tracer is not None:
                tracer.reset()
            ctx = tracing(tracer) if tracer is not None \
                else contextlib.nullcontext()
            run = self.workload.run if timed else self.workload.warm_up
            with ctx:
                start = time.perf_counter()
                raw = run(case, out)
                record["wall"] = time.perf_counter() - start
            outcome = self.workload.check(case, raw, out)
            record["unknowns"] = outcome.unknowns
            record["failures"] = outcome.failures
            if self.first_digest is None:
                self.first_digest = outcome.digest
            first = self.first_digest
            if first != outcome.digest:
                differs = sorted(k for k in first
                                 if first[k] != outcome.digest.get(k))
                record["failures"].append(
                    "outputs differ from the case's first run: "
                    + ", ".join(differs))
        except Exception:
            record["raised"] = True
            record["failures"].append(traceback.format_exc(limit=3))
        if tracer is not None:
            record["spans"] = {k: tuple(v) for k, v in tracer.spans.items()}
            record["counts"] = dict(tracer.counts)
        if record["failures"]:
            self.errors.append(
                f"{'traced' if tracer else 'untraced'} run: "
                + "; ".join(record["failures"]))
        if timed:
            self.records.append(record)
        return record

    def measure(self, seconds, tracer=None):
        """Repeats of the case until ``seconds`` have gone by. With a
        tracer, each repeat runs untraced and then traced."""
        deadline = time.perf_counter() + seconds
        while not self.records or time.perf_counter() < deadline:
            self.run()
            if tracer is not None:
                self.run(tracer=tracer)


def _median(values):
    return statistics.median(values) if values else 0.0


def _walls(records):
    """Wall times of the cases that ran to the end; a case that raised is
    left out of the timings."""
    return [r["wall"] for r in records if not r["raised"]]


def end_to_end(session, setup_s):
    timed = [r for r in session.records if not r["raised"]]
    passed = [r for r in session.records if not r["failures"]]
    return {
        "setup_s": setup_s,
        "case_p50_s": _median([r["wall"] for r in timed]),
        "dofs_per_s": _median([r["unknowns"] / r["wall"] for r in timed]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": len(passed) / len(session.records),
    }, len(timed)


def per_layer(session, derive_s):
    traced = [r for r in session.records if r["traced"]]
    untraced = [r for r in session.records if not r["traced"]]
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.self_s"] = _median(
            [r["spans"].get(span, (0.0, 0))[0] for r in traced])
    counts = []
    for r in traced:
        calls = Counter(r["counts"])
        calls.update({f"{s}.calls": n for s, (_, n) in r["spans"].items()})
        counts.append(calls)
    first = counts[0]
    for k, other in enumerate(counts):
        if other != first:
            session.errors.append(f"counts of traced run {k} differ "
                                  "from the first")
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = first[f"{span}.calls"]
    for name in COUNT_NAMES:
        metrics[name] = first[name]
    fired = {s for r in traced for s, (_, n) in r["spans"].items() if n}
    missing = sorted(session.workload.spans - fired)
    if missing:
        session.errors.append("predicted spans never fired: "
                              + ", ".join(missing))
    metrics["verification.derive_s"] = derive_s
    metrics["trace.overhead_s"] = (_median(_walls(traced))
                                   - _median(_walls(untraced)))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # setup_s runs from here to the end of the warm-up case
    t0 = time.perf_counter()
    _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload '{args.workload}'")
    spec = json.loads(SPEC.read_text())
    start = time.perf_counter()
    workload = workloads.build(args.workload, args.seed)
    derive_s = time.perf_counter() - start

    work_dir = _fresh_dir(BENCH_DIR / f".work-{args.workload}-{os.getpid()}")
    os.chdir(work_dir)
    try:
        session = Session(workload)
        # If the warm-up's checks fail the run goes on and reports it; if
        # it raises there is nothing to measure.
        if session.run(timed=False)["raised"]:
            raise SystemExit("error: warm-up failed:\n"
                             + "\n".join(session.errors))
        setup_s = time.perf_counter() - t0

        samples = None
        if args.trace:
            session.measure(args.seconds, Tracer())
            values = per_layer(session, derive_s)
            declared = spec["per_layer"]
        else:
            session.measure(args.seconds)
            values, samples = end_to_end(session, setup_s)
            declared = spec["end_to_end"]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in session.errors[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = f"  (median of {samples} cases)" \
            if m["name"] == "case_p50_s" else ""
        value = values[m["name"]]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload} {m['name']} {shown} {m['unit']}{note}")
    failed = sum(1 for r in session.records if r["failures"])
    print(json.dumps({
        "correct": not session.errors,
        "attempted": len(session.records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
