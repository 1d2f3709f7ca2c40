"""Self-test of the benchmark, at a tiny size (M = 3, N = K = 200, one row).

    python3 perfbench/selftest.py

Run it from the root of a source checkout.  For every workload named in
BENCHMARK.json it checks that:

* ``--trace 0`` emits exactly the ``end_to_end`` metrics, each with its
  unit, and passes its correctness gate;
* ``--trace 1`` emits exactly the ``per_layer`` metrics, each with its
  unit; two traced runs of one seed repeat every exact count, and give
  the same output digest as the untraced run;
* the gate trips when the predictor returns NaN: every row fails (on
  ``cli-cmd-m4`` the ``cmd:`` predictor prints ``nan``, which the CLI
  writes into its JSON output).

It also checks that the benchmark exits non-zero without printing a
result in a directory that holds only BENCHMARK.json and perfbench/.
Exit code 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bytes")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1"] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(args):
    proc = run(args + ["--size", "tiny"])
    if proc.returncode != 0:
        raise AssertionError(f"{args}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    info = json.loads(lines[-3].removeprefix("info "))
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{args}: result keys {sorted(res)}")
    return res, info


def check_metrics(res, declared, label):
    errors = []
    got = res["metrics"]
    if set(got) != set(declared):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ set(declared))}")
    for name, unit in declared.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), float)):
            errors.append(f"{label}: {name} = {m}, expected unit {unit!r} and a number")
    return errors


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for wl in (w["name"] for w in bench["workloads"]):
        base = ["--workload", wl, "--seed", "7"]
        res, info0 = result(base + ["--trace", "0"])
        errors += check_metrics(res, e2e, f"{wl} trace 0")
        if not res["correct"] or res["failed"] != 0:
            errors.append(f"{wl} trace 0: gate failed on a clean run: {res['failed']} rows")

        traced = [result(base + ["--trace", "1"]) for _ in range(2)]
        errors += check_metrics(traced[0][0], layers, f"{wl} trace 1")
        for name, unit in layers.items():
            vals = [r["metrics"].get(name, {}).get("value") for r, _ in traced]
            if unit in EXACT_UNITS and vals[0] != vals[1]:
                errors.append(f"{wl}: exact count {name} differs between runs: {vals}")
        digests = {info0["digest"]} | {i[k] for _, i in traced for k in ("digest", "traced_digest")}
        if len(digests) != 1:
            errors.append(f"{wl}: output digest differs between runs of one seed: {digests}")

        res, _ = result(base + ["--trace", "0", "--poison"])
        if res["correct"] or res["failed"] != res["attempted"]:
            errors.append(f"{wl}: NaN predictor gave failed={res['failed']} "
                          f"of attempted={res['attempted']}, expected all rows")
        print(f"{wl}: checked", flush=True)

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                    "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
