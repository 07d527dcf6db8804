"""Benchmark of sparsepr on two workloads; see README.md in this directory.

    python3 perfbench/run.py --workload local-query --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json when --trace is 0 and its per-layer
metrics when --trace is 1 (the traced run also writes its spans as JSONL
under perfbench/.cache/traces).  Without the program's sources in ./src the
benchmark exits with status 2 and prints no result; a failure in set-up,
the CLI runs or the reference ends it with status 1 and no result.
"""

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("local-query", "wide-support"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sparsepr" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout root holding src/sparsepr and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    import workloads  # imports sparsepr, so only after the path is set

    try:
        correct, attempted, failed, values = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), SRC)
    except Exception:  # set-up, CLI or reference failure: no result
        traceback.print_exc()
        return 1
    workloads.log("all metrics: " + json.dumps(values, sort_keys=True))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
