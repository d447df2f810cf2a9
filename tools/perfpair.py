#!/usr/bin/env python3
"""Compare the working tree against a git ref on one benchmark workload.

    python3 tools/perfpair.py --workload publish_storm --ref HEAD --pairs 10

Exports the committed files of ``--ref`` into a temporary directory
(``git archive``, so nothing is registered in the repository) and runs
``perfbench/run.py --workload W --seconds S --trace 0`` there and in the
working tree, ``--pairs`` times each, alternating which side runs first.
Each side runs its own copy of the benchmark and the program.

For every end-to-end metric in ``BENCHMARK.json`` it prints each side's
median and quartiles (``statistics.quantiles(values, n=4)``), the pairs
the working tree won and lost (ties count for neither), and the verdict
of the paired-run rule: *better* when the working tree wins at least nine
tenths of the pairs and the medians differ, in its favour, by more than
the ref's quartile spread; *worse* for the mirror case; *identical* when
every pair ties; otherwise *no clear change*.  The last line of standard
output is the same summary as one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent


def export_ref(ref: str, dest: Path) -> str:
    """Write the committed tree of ``ref`` into ``dest``; returns its sha."""
    sha = subprocess.run(["git", "rev-parse", "--short", ref], cwd=REPO,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=REPO,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return sha


def run_once(tree: Path, workload: str, seconds: float,
             seed: Optional[int]) -> Dict[str, float]:
    """One untraced benchmark run in ``tree``; returns its metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=3 * seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark failed in {tree}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"benchmark reported failures in {tree}: "
                           f"{result['failed']}/{result['attempted']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(ref: List[float], new: List[float], higher_is_better: bool) -> dict:
    """Wins, losses and the paired-run verdict for one metric."""
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(ref, new))
    losses = sum(sign * (b - a) < 0 for a, b in zip(ref, new))
    q1, q3 = quartiles(ref)
    gap = sign * (statistics.median(new) - statistics.median(ref))
    pairs = len(ref)
    if wins == losses == 0:
        call = "identical"
    elif wins >= 0.9 * pairs and gap > q3 - q1:
        call = "better"
    elif losses >= 0.9 * pairs and -gap > q3 - q1:
        call = "worse"
    else:
        call = "no clear change"
    return {"wins": wins, "losses": losses, "ref_iqr": q3 - q1,
            "verdict": call}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ref", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (the benchmark's default if unset)")
    args = parser.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    runs: Dict[str, List[Dict[str, float]]] = {"ref": [], "new": []}
    with tempfile.TemporaryDirectory(prefix="perfpair-") as tmp:
        ref_tree = Path(tmp)
        sha = export_ref(args.ref, ref_tree)
        trees = {"ref": ref_tree, "new": REPO}
        for i in range(args.pairs):
            order = ("ref", "new") if i % 2 == 0 else ("new", "ref")
            for side in order:
                runs[side].append(run_once(trees[side], args.workload,
                                           args.seconds, args.seed))
            print(f"pair {i + 1}/{args.pairs}: ops_per_s "
                  f"ref {runs['ref'][-1].get('ops_per_s', 0):,.1f} "
                  f"new {runs['new'][-1].get('ops_per_s', 0):,.1f}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, "
          f"seed {args.seed if args.seed is not None else 'default'}; "
          f"ref {args.ref} ({sha}) vs working tree")
    print(f"{'metric':22s} {'ref median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'wins':>6s} {'losses':>6s}  verdict")
    summary = {"workload": args.workload, "ref": sha, "pairs": args.pairs,
               "seconds": args.seconds, "seed": args.seed, "metrics": {}}
    for name, higher in better.items():
        if name not in runs["ref"][0] or name not in runs["new"][0]:
            continue
        ref = [r[name] for r in runs["ref"]]
        new = [r[name] for r in runs["new"]]
        row = verdict(ref, new, higher)
        cells = []
        for values in (ref, new):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):,.4g} "
                         f"[{q1:,.4g}, {q3:,.4g}]")
        print(f"{name:22s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{row['wins']:>6d} {row['losses']:>6d}  {row['verdict']}")
        summary["metrics"][name] = dict(row, ref=ref, new=new)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
