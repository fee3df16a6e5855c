"""One fresh interpreter's share of a benchmark run.

Usage: python3 worker.py SPEC.json, where the spec names the library's source
directory, the command line (`argv`), the number of `warm` passes that
follow the first, the files the command writes (`files`), whether to trace
the first pass (`trace`), and a directory to save the first pass's output
in (`save`).  The worker runs `tfreud.cli.main(argv)` 1 + warm times with standard
output captured, and prints one JSON line with the pass times, the exit codes,
a digest of each pass's output, the peak resident memory and, when tracing,
the per-layer summary of the first pass.

Before the first pass and after every pass the worker times `probe()`, a
fixed piece of arithmetic that never calls the library, so that run.py can
take the box's speed at that moment out of each pass's time.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import mpmath


def probe() -> float:
    """Seconds for a fixed mix of 512-bit mpmath arithmetic and plain
    interpreter work, the two things the library's passes spend their time
    on.  It uses its own context and no function that mpmath caches per
    precision, so it warms nothing a pass uses."""
    ctx = mpmath.MPContext()
    ctx.prec = 512
    start = time.perf_counter()
    x, y, s = ctx.sqrt(2), ctx.mpf(1), ctx.mpf(0)
    for i in range(1, 8001):
        y = (y * x + i) / (x + i)
        s += ctx.sqrt(y) * y
    k = 0
    for i in range(300_000):
        k += (i * 7) % 13
    return time.perf_counter() - start


def run_pass(cli, argv, files):
    """Run one pass; return (seconds, exit code, {output name: text})."""
    for path in files:   # so that a pass which writes nothing cannot pass on old files
        if os.path.exists(path):
            os.remove(path)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    seconds = time.perf_counter() - start
    texts = {"stdout": out.getvalue()}
    for path in files:
        with open(path) as fh:
            texts[os.path.basename(path)] = fh.read()
    return seconds, rc, texts


def digest(texts: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(texts):
        h.update(name.encode() + b"\0" + texts[name].encode() + b"\0")
    return h.hexdigest()


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import tfreud.cli as cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    probe()   # untimed: its first call pays one-off costs of its own
    seconds, codes, digests, probes = [], [], [], [probe()]
    for i in range(1 + spec["warm"]):
        dt, rc, texts = run_pass(cli, spec["argv"], spec["files"])
        probes.append(probe())
        seconds.append(dt)
        codes.append(rc)
        digests.append(digest(texts))
        if i == 0:
            for name, text in texts.items():
                with open(os.path.join(spec["save"], name), "w") as fh:
                    fh.write(text)
    result = {"seconds": seconds, "probes": probes, "codes": codes, "digests": digests,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["trace"] = tracer.summary(seconds[0])
        with open(os.path.join(spec["save"], "spans.tsv"), "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for row in zip(tracer.names, tracer.starts, tracer.ends, tracer.parents):
                fh.write("\t".join(map(str, row)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
