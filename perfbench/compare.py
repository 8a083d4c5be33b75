"""Compare two sets of benchmark runs, flagging only real differences.

Each set is a JSON-lines file written by ``run.py --out FILE`` (one
record per run, any mix of workloads and seeds)::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload oltp_point --seed $seed \\
            --seconds 10 --out base.jsonl
    done
    python3 perfbench/compare.py base.jsonl head.jsonl
    python3 perfbench/compare.py base.jsonl          # spreads of one set

For every workload and metric it prints each side's median and the
spread between its runs (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), and the
head/base ratio with the base value it is taken against.  A difference
is flagged only when the medians differ by more than the larger of the
two spreads; anything else is within run-to-run noise.  Runs whose
answers were not all correct are reported and left out.

Rows named ``host.*`` come from each run's fingerprint, not from the
program: the calibration loop's rate (mean of before and after) and
the CPU share the hypervisor stole.  When a throughput or latency ratio follows the calibration ratio, the
host changed speed between the sets; read that as drift, not as a
change in the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` from one result set."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            workload = record["detail"]["workload"]
            if record["detail"].get("trace"):
                workload += " (traced)"
            result = record["result"]
            if not result["correct"]:
                print(f"{path}: {workload} seed {record['detail']['seed']} "
                      f"was not correct; left out", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                out[workload][name].append(metric["value"])
            for name, value in host(record["detail"]).items():
                out[workload][name].append(value)
    return out


def host(detail: dict) -> dict[str, float]:
    """The fingerprint figures of one run that drift with the host."""
    return {
        "host.calibration_M_per_s": (detail["calibration_before"]
                                     + detail["calibration_after"]) / 2e6,
        "host.cpu_steal_pct": 100.0 * detail["cpu_steal_frac"],
    }


def summary(values: list[float]) -> tuple[float, float]:
    """Median and relative interquartile spread of one metric's runs."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def compare(base: dict, head: dict | None) -> list[str]:
    rows = []
    for workload in sorted(base):
        for metric in sorted(base[workload]):
            b_med, b_spread = summary(base[workload][metric])
            n = len(base[workload][metric])
            if head is None:
                rows.append(f"{workload:24} {metric:32} median {b_med:12.4f} "
                            f"spread {b_spread:6.1%} (n={n})")
                continue
            values = head.get(workload, {}).get(metric)
            if not values:
                rows.append(f"{workload:24} {metric:32} missing in head")
                continue
            h_med, h_spread = summary(values)
            noise = max(b_spread, h_spread)
            ratio = h_med / b_med if b_med else float("inf")
            if metric.startswith("host."):
                flag = "(host, not a metric)"
            else:
                flag = "CHANGED" if abs(ratio - 1) > noise else "within noise"
            rows.append(
                f"{workload:24} {metric:32} head/base {ratio:7.3f} "
                f"(base {b_med:.4f}, head {h_med:.4f}; spread "
                f"{b_spread:.1%}/{h_spread:.1%}) {flag}"
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="JSON lines from run.py --out")
    parser.add_argument("head", nargs="?", help="second set to compare")
    args = parser.parse_args(argv)
    base = load(args.base)
    head = load(args.head) if args.head else None
    print("\n".join(compare(base, head)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
