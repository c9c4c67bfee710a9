"""Record the reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py [--tiny --out DIR] [WORKLOAD ...]

Runs one traced pass of each workload at the default seed and stores, in
DIR/<workload>.npz, every column of every emitted CSV except the oracle
residuals (key "file::column") and the names of the functions that
recorded spans ("__spans__::names").
The stored references were made at the commit that added the benchmark;
re-record them only when an output is meant to change, and say so.
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
from pathlib import Path

import numpy as np

import tracer
import workloads


def record(name: str, tiny: bool, out_dir: Path) -> Path:
    workload = workloads.build(name, workloads.DEFAULT_SEED, tiny=tiny)
    trace = tracer.Tracer()
    workloads.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=workloads.OUT_DIR))
    try:
        results = trace.traced_pass(lambda: workload.run_pass(scratch))
        arrays = {"__spans__::names": np.array(sorted(trace.observed()))}
        for result in results:
            for output in getattr(result, "outputs", []):
                if output["path"].endswith(".csv"):
                    columns = workloads.read_csv(scratch / output["path"])
                    arrays.update({f"{output['path']}::{col}": values
                                   for col, values in columns.items()
                                   if col not in workloads.ORACLE_COLUMNS})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = workloads.reference_path(out_dir, name)
    np.savez_compressed(path, **arrays)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--tiny", action="store_true", help="test-size inputs")
    parser.add_argument("--out", type=Path, default=workloads.REFERENCE_DIR)
    args = parser.parse_args(argv)
    for name in args.workloads:
        print(record(name, args.tiny, args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
