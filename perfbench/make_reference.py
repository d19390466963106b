"""Write reference.json: T_range and max_displacement of the hearth
scenario at every mesh size the workloads use, from the package in src/.

    python3 perfbench/make_reference.py

The benchmark checks every hearth case against these values, so a change
that moves the fields by more than solver tolerance is reported.
"""
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from axitherm import cli  # noqa: E402

import workloads  # noqa: E402


def main():
    out = BENCH_DIR / ".work-reference"
    reference = {}
    try:
        for h in (workloads.FINE_H,) + workloads.SWEEP_H:
            summary = cli.run_scenario(
                cli.RunConfig(target_h=h, output_dir=str(out)))
            lo, hi = summary["T_range"]
            reference[f"{h:g}"] = {
                "T_min": lo, "T_max": hi,
                "max_displacement": summary["max_displacement"]}
            print(f"h={h:g}: {reference[f'{h:g}']}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
