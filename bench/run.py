"""The lejaflip benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload disk_sweep --seed 1 --seconds 40 --trace 0

Each pass over the workload runs in a fresh process (``bench/passes.py``), so
that ``setup_s`` and ``peak_rss_mb`` belong to that workload.  Passes start
while the next one is expected to end within ``--seconds``; the metrics are
medians over the passes.

``--trace 0`` reports the end-to-end metrics ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see ``bench/spans.py``);
``trace.overhead_s`` is the traced minus the untraced median ``wall_s``.

Every pass checks each invocation's exit code and each output field against
``bench/reference/<workload>.json``, and every pass's outputs must equal the
first pass's byte for byte.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full result,
with per-pass records and provenance, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from passes import BENCH, ROOT, SRC, WORKLOADS
from spans import METRIC_UNITS

OUT = BENCH / "out"
PASSES = BENCH / "passes.py"
#: Setup-only processes per run, on top of each pass's own set-up.
SETUP_PROBES = 5
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PassFailed(RuntimeError):
    """A pass process exited without writing its record."""


def spawn(workdir: Path, label: str, args, *, trace: int = 0, setup_only: bool = False) -> dict:
    """Run one pass process and return its record."""
    out = workdir / f"{label}.json"
    spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    cmd = [
        sys.executable,
        str(PASSES),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
        "--out", str(out),
        *(["--spans", str(spans_file)] if trace else []),
        *(["--setup-only"] if setup_only else []),
    ]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [*cmd, "--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0 or not out.is_file():
        raise PassFailed(f"{label} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def run_passes(args, workdir: Path) -> tuple[list, list, list]:
    """Setup probes, then passes while another one fits in ``args.seconds``.

    Whether a pass fits is judged by the duration of the previous one; there
    is always at least one untraced pass and, with ``--trace 1``, one traced.
    """
    probes = [spawn(workdir, f"probe{i}", args, setup_only=True) for i in range(SETUP_PROBES)]
    plain, traced = [], []
    start, previous = time.monotonic(), 0.0
    while not plain or (args.trace and not traced) or time.monotonic() - start + previous <= args.seconds:
        began = time.monotonic()
        if args.trace and len(traced) < len(plain):
            traced.append(spawn(workdir, f"traced{len(traced)}", args, trace=1))
        else:
            plain.append(spawn(workdir, f"plain{len(plain)}", args))
        previous = time.monotonic() - began
    return probes, plain, traced


def git_commit():
    """HEAD of the checkout, or None when it is not the top of a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def src_digest() -> str:
    """sha256 over the paths and contents of the measured sources."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def summarize(args, probes, plain, traced) -> dict:
    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    failures = [msg for r in passes for msg in r["failures"]]
    first = plain[0]["digests"]
    for i, r in enumerate(passes[1:], start=1):
        attempted += 1
        if r["digests"] != first:
            failed += 1
            failures.append(f"pass {i}: outputs differ from the first pass")
    if args.trace:
        layers = {
            # counts repeat exactly, so take an observed value rather than a mean of two
            name: (statistics.median_low if METRIC_UNITS[name] == "count" else statistics.median)(
                r["layers"][name] for r in traced
            )
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in METRIC_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in probes + plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures[:20],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lejaflip" / "__init__.py").is_file():
        print(f"error: no lejaflip sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            probes, plain, traced = run_passes(args, Path(tmp))
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(args, probes, plain, traced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fail_ratio": result["failed"] / result["attempted"],
        "passes": {"setup_probes": len(probes), "plain": len(plain), "traced": len(traced)},
        **result,
        "provenance": {"git_commit": git_commit(), "src_sha256": src_digest(), **plain[0]["provenance"]},
        "records": {"probes": probes, "plain": plain, "traced": traced},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(
        f"passes: {len(plain)} plain, {len(traced)} traced, {len(probes)} setup probes; "
        f"checks failed {result['failed']} of {result['attempted']}"
    )
    for msg in result["failures"]:
        print(f"FAIL {msg}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
