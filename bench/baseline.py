"""Repeat the benchmark over seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1-3 --out bench/baseline.json
    python3 bench/baseline.py --workload field-sweeps --seeds 1-5

Runs `run.py` once per (workload, seed), one run at a time, and reports for
every metric the median, the quartiles (`statistics.quantiles(n=4)`), the
sample count and the spread (q3 - q1) / median.  End-to-end spreads are
compared with the bounds in BENCHMARK.json.  With --out the summary is
written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed ({done.returncode}): {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seeds", type=seed_range, default=[])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {"run_seconds": config["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workload or workloads.WORKLOADS:
        entry = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            if not seeds:
                continue
            results = []
            for seed in seeds:
                start = time.perf_counter()
                results.append(run(workload, seed, config["run_seconds"], trace))
                print(f"{workload} trace={trace} seed={seed}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
            ok &= all(r["correct"] for r in results)
            entry["end_to_end" if trace == 0 else "per_layer"] = summarise(results)
            entry.setdefault("attempted", {})[f"trace{trace}"] = [r["attempted"] for r in results]
            entry.setdefault("failed", {})[f"trace{trace}"] = [r["failed"] for r in results]
            entry.setdefault("records", {})[f"trace{trace}"] = [r["record"] for r in results]
        summary["workloads"][workload] = entry
        for name, stats in entry.get("end_to_end", {}).items():
            flag = "" if name == "setup_s" or stats["spread"] < bounds[name] / 3 else "  <-- spread above bound/3"
            print(f"{workload:14s} {name:16s} median {stats['median']:12.5g} {stats['unit']:4s} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
