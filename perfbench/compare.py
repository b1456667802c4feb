"""Compare two saved outputs of ``run.py``, metric by metric.

    python3 perfbench/run.py --workload mop-zeros --seed 1 > before.txt
    python3 perfbench/run.py --workload mop-zeros --seed 1 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Refuses (exit status 2) to compare runs of different workloads, trace
modes or sizes, or runs made with a different path kernel or BLAS thread
count, since their timings measure different programs.
"""

import json
import sys

MUST_MATCH = ("workload", "trace", "smoke", "kernel", "blas_threads")


def load(path):
    """(meta, result) from a saved output: the ``meta`` line and the last line."""
    with open(path) as f:
        lines = f.read().splitlines()
    metas = [line[len("meta ") :] for line in lines if line.startswith("meta ")]
    if not metas or not lines:
        raise ValueError(f"{path}: not an output of run.py")
    return json.loads(metas[-1]), json.loads(lines[-1])


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (meta_a, result_a), (meta_b, result_b) = (load(path) for path in argv)
    differ = [key for key in MUST_MATCH if meta_a.get(key) != meta_b.get(key)]
    if differ:
        for key in differ:
            print(
                f"refusing to compare: {key} differs: {meta_a.get(key)} vs {meta_b.get(key)}",
                file=sys.stderr,
            )
        return 2
    print(f"{meta_a['workload']}: {meta_a['git_sha'][:12]} -> {meta_b['git_sha'][:12]}")
    for name, before in result_a["metrics"].items():
        after = result_b["metrics"].get(name)
        if after is None:
            print(f"{name:40s} {before['value']:>12.6g} {'-':>12s}")
            continue
        ratio = after["value"] / before["value"] if before["value"] else float("nan")
        print(
            f"{name:40s} {before['value']:>12.6g} {after['value']:>12.6g} "
            f"{ratio:>8.3f}x {before['unit']}"
        )
    for label, result in (("before", result_a), ("after", result_b)):
        print(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
