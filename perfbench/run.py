"""Benchmark of the tfreud command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or `all` to run each in turn.  A run
first times SETUP_SAMPLES fresh interpreters importing `tfreud.cli`, then
starts fresh single-threaded worker interpreters one after another for S
seconds; each runs the workload's command once cold and WARM more times.
Each pass's time is rescaled by the speed probe (worker.probe) timed around
it, so that the host's drift in speed cancels.  Every pass's output is
checked (checks.py) and must be byte-identical to every other pass's.  With
--trace 1 the run instead times one untraced and one traced cold pass, each
in its own interpreter, and reports the traced pass's per-layer metrics
(tracer.py).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Outputs, spans and a full record of each run go to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS
from worker import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 9
WARM = 1   # warm passes per worker interpreter
# worker.probe() took about this long on the 2-core host the README's
# figures come from; a pass's time is multiplied by PROBE_REF_S over the
# mean of the probes timed just before and just after it
PROBE_REF_S = 0.2
# verify-suite stops at degree 8, not the default 14, so that a 40 s run
# holds several passes (about 3.3 s each instead of 12 s)
VERIFY_N = 8
# zeros-sweep takes z from this list by seed.  Each z is 16^k, so z^(1/4) is
# a power of two: the zeros scale exactly and every z costs the same work.
ZEROS_Z = ("1", "16", "0.0625", "256", "0.00390625")
ZEROS_N = 16
COEFFS_N = 160
FAULT_ARGV = ["verify", "--fault-inject", "a:3:1e-6", "--z", "1", "--n-max", "8"]


@dataclass(frozen=True)
class Workload:
    name: str

    def argv(self, seed: int, out: Path) -> list:
        if self.name == "verify-suite":
            return ["verify", "--n-max", str(VERIFY_N), "--out", str(out / "verify.csv")]
        if self.name == "zeros-sweep":
            return ["zeros", "--all-zeros", "--n-max", str(ZEROS_N),
                    "--z", ZEROS_Z[seed % len(ZEROS_Z)]]
        return ["coeffs", "--n-max", str(COEFFS_N)]

    def files(self, out: Path) -> list:
        return [str(out / "verify.csv")] if self.name == "verify-suite" else []

    def check(self, seed: int, saved: Path):
        """Check the saved first pass; returns (CheckResult, exit code the
        command must have given)."""
        import checks
        import reference
        from tfreud.cli import REF_ERRATA, REF_LARGEST, REF_SMALLEST
        from tfreud.kernel import default_bits

        stdout = (saved / "stdout").read_text()
        # the published 4-decimal extremes at z = 1 with the errata applied
        published = {n: (REF_ERRATA.get(("smallest", n), REF_SMALLEST[n - 1]),
                         REF_ERRATA.get(("largest", n), REF_LARGEST[n - 1]))
                     for n in range(1, len(REF_SMALLEST) + 1)}
        if self.name == "verify-suite":
            largest = {n: pair[1] for n, pair in published.items()}
            res = checks.check_verify(stdout, (saved / "verify.csv").read_text(), largest)
            return res, 1 if res.failures else 0
        if self.name == "zeros-sweep":
            z = ZEROS_Z[seed % len(ZEROS_Z)]
            return checks.check_zeros(stdout, z, ZEROS_N, default_bits(ZEROS_N),
                                      published if z == "1" else None), 0
        bits = default_bits(COEFFS_N)
        # the moment map loses about 4.2 bits per degree; twice that plus
        # 1024 guard bits is more than 1000 bits above the library's
        # internal precision of bits + 3.5 n + 64
        ref = reference.recurrence_reference("1", COEFFS_N, bits + 8 * COEFFS_N + 1024)
        return checks.check_coeffs(stdout, "1", COEFFS_N, bits, ref), 0


WORKLOADS = {w.name: w for w in (
    Workload("verify-suite"),
    Workload("zeros-sweep"),
    Workload("coeffs-deep"),
)}


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until tfreud.cli is imported
    (perf_counter is the system-wide monotonic clock, so the child's reading
    compares with the parent's)."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "import tfreud.cli; print(repr(time.perf_counter()))")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout) - start


def rescaled(seconds: list, probes: list) -> list:
    """Each time multiplied by PROBE_REF_S over the mean of the probes timed
    just before and just after it (probes has one entry more)."""
    return [s * 2 * PROBE_REF_S / (probes[i] + probes[i + 1]) for i, s in enumerate(seconds)]


def run_worker(argv: list, files: list, warm: int, trace: bool, save: Path) -> dict:
    save.mkdir(parents=True, exist_ok=True)
    spec_path = save / "spec.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "argv": argv, "files": files,
                                     "warm": warm, "trace": trace, "save": str(save)}))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    out = RESULTS / wl.name
    argv, files = wl.argv(seed, out), wl.files(out)
    errors = []
    if trace:
        plain = run_worker(argv, files, 0, False, out / "plain")
        traced = run_worker(argv, files, 0, True, out / "traced")
        workers = [plain, traced]
    else:
        setup_seconds()   # untimed: lets the first timed import find compiled modules
        probe()           # untimed: its first call pays one-off costs of its own
        before = probe()
        setup = [setup_seconds() for _ in range(SETUP_SAMPLES)]
        scale = 2 * PROBE_REF_S / (before + probe())
        setup = [s * scale for s in setup]
        workers = []
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            workers.append(run_worker(argv, files, WARM, False, out / f"round{len(workers)}"))
            now = time.perf_counter()
            if now + (now - start) > deadline:   # the next worker would end past it
                break
    first = out / ("plain" if trace else "round0")

    res, want_rc = wl.check(seed, first)
    errors += res.errors
    digests = {d for w in workers for d in w["digests"]}
    if len(digests) != 1:
        errors.append(f"passes wrote {len(digests)} different outputs")
    codes = {c for w in workers for c in w["codes"]}
    if codes != {want_rc}:
        errors.append(f"exit codes {sorted(codes)}, expected {want_rc}")
    if wl.name == "verify-suite":
        fault = run_worker(FAULT_ARGV, [], 0, False, out / "fault")
        if fault["codes"] != [1]:
            errors.append(f"{' '.join(FAULT_ARGV)} exited {fault['codes'][0]}, expected 1")

    passes = sum(len(w["seconds"]) for w in workers)
    if trace:
        metrics = dict(traced["trace"])
        metrics["trace.overhead_s"] = traced["seconds"][0] - plain["seconds"][0]
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        if abs(self_sum - metrics["trace.pass_s"]) > abs(metrics["trace.overhead_s"]):
            errors.append(f"self times sum to {self_sum:.6f} s, traced pass took "
                          f"{metrics['trace.pass_s']:.6f} s")
    else:
        scaled = [rescaled(w["seconds"], w["probes"]) for w in workers]
        metrics = {
            "setup_s": statistics.median(setup),
            "cold_s": statistics.median(p[0] for p in scaled),
            "warm_s": statistics.median(s for p in scaled for s in p[1:]),
            "peak_rss_mib": statistics.median(w["peak_rss_mib"] for w in workers),
        }
    return {"workload": wl.name, "seed": seed, "trace": trace, "correct": not errors,
            "errors": errors, "failures": res.failures,
            "attempted": res.attempted * passes, "failed": len(res.failures) * passes,
            "metrics": metrics, "workers": workers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tfreud" / "cli.py").is_file():
        print(f"error: no tfreud sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             units["per_layer" if args.trace else "end_to_end"]}
    RESULTS.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        run = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(run, indent=1))
        runs.append(run)
        print(f"{name}: attempted {run['attempted']}, failed {run['failed']}, "
              f"correct {run['correct']}")
        for line in run["errors"] + sorted(set(run["failures"])):
            print(f"  {line}")
        for metric, unit in units.items():
            print(f"  {metric} = {run['metrics'][metric]:.6g} {unit}")

    def name_of(run, metric):
        return metric if len(runs) == 1 else f"{run['workload']}.{metric}"

    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name_of(r, m): {"value": r["metrics"][m], "unit": u}
                    for r in runs for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
