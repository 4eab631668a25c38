"""Record the value digests that ``run.py`` checks for the default seed.

Runs every op of every generated pass of each workload once and writes
``expected.json``: per workload, a digest of each pass's argv list and
of each op's checked values.  Run it, from the root of a checkout, only
at a commit whose outputs are known to be right:

    python3 perfbench/record_expected.py [workload ...]
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def record(workload):
    package = run.import_library()
    passes = workloads.generate(workload, run.DEFAULT_SEED, run.PASSES)
    checker = checks.Checker(run.load_oracles())
    values = []
    for ops in passes:
        row = []
        for op in ops:
            _, _, rc, out = run.run_op(package.cli.main, op.argv)
            if rc != 0:
                raise run.BenchError(f"{' '.join(op.argv)} exited {rc}")
            row.append(checks.digest(checker.values(op, out)))
        values.append(row)
    argv = [checks.digest([list(op.argv) for op in ops]) for ops in passes]
    return {"argv": argv, "values": values}


def main(names):
    path = run.HERE / "expected.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for name in names or run.WORKLOADS:
        data[name] = record(name)
        print(f"recorded {name}", file=sys.stderr)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
