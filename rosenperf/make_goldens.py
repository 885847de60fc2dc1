"""Write the correctness goldens from the checkout's current code.

    python3 rosenperf/make_goldens.py

The goldens define what the benchmark accepts, so this refuses to replace
one that exists: delete a golden by hand, and say why in the change that
does, before taking it again.  The benchmark itself never writes them.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run

GOLDENS = {
    "matrix": "matrix.csv",
    "linesearch": "linesearch-seed0.csv",
    "emit": "emit.csv",
}


def main() -> int:
    run.import_package()
    import workloads
    from rosenbench.bench import RESULTS_HEADER
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.ROOT))
    try:
        for name, filename in GOLDENS.items():
            path = workloads.GOLDEN_DIR / filename
            if path.exists():
                print(f"{path.name} exists; left as it is")
                continue
            workload = workloads.build(name, workloads.DEFAULT_SEED, workdir, goldens=False)
            rows = workload.run().rows
            # linesearch also checks invariants that need no golden.
            failures = workload.gate(rows) if name == "linesearch" else []
            if failures:
                print(f"{name}: not written, the invariants fail: {failures[:3]}")
                return 1
            if name == "matrix":
                rows = [RESULTS_HEADER.rsplit(",", 1)[0]] + rows
            path.write_text("\n".join(rows) + "\n")
            print(f"wrote {path.name} ({len(rows)} rows)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
