"""One pass over a benchmark workload, in a fresh process.

A pass imports ``lejaflip`` from the checkout's ``src/``, loads the
workload's reference outputs, runs every CLI invocation of the workload
in-process through ``lejaflip.cli.main`` with ``--format json -o <file>``,
and then checks each exit code and each output field against the reference.
It writes one JSON record (timings, check counts, output digests and, when
traced, per-layer metrics) to the path given by ``--out``.

``bench/run.py`` starts one such process per pass; run this file directly
only to record references::

    python3 bench/passes.py --record --workload disk_sweep
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH / "reference"

#: Fixed CLI invocations per workload.  ``--format json -o <file> --seed <n>``
#: is appended to each; only the bivariate oracle and factorization points
#: depend on the seed, and no compared field does.
WORKLOADS: dict[str, list[list[str]]] = {
    "disk_sweep": [
        ["bounds", "--max-n", "256"],
        ["bounds", "--special-n", "--p", "2..8", "--avg"],
    ],
    "transport_sweep": [
        # thin ellipse: the log-domain kernel runs for every N >= 128
        ["transport", "--ellipse", "30", "1", "--max-n", "1024"],
        ["transport", "--ellipse", "1.2", "0.8", "--max-n", "512"],
        ["transport", "--alper", "--ellipse", "1.2", "0.8", "--w-grid", "1024", "--t-grid", "1024"],
        ["leja", "--ellipse", "1.2", "0.8", "--greedy", "-N", "1024", "--samples", "65536"],
        ["leja", "--disk", "-N", "1024", "--samples", "65536"],
    ],
    "bivariate_identities": [
        ["bivariate", "--delta", "--n-max", "45"],
        ["bivariate", "--oracle", "--n-max", "21"],
        ["bivariate", "--factorization", "--n-max", "45"],
        ["bivariate", "--verify-2d-leja", "--n-max", "300", "--grid", "4096"],
        ["bivariate", "--lebesgue", "--n", "2..10", "--grid", "256"],
        ["bivariate", "--decay", "--n", "2..12"],
    ],
}

#: Fields that measure rounding error (or depend on the seed).  Their verdict
#: is the invocation's exit code, so they are not compared with the reference.
UNCOMPARED = frozenset(
    {"max_delta_err", "max_rel_err", "max_shortfall", "sup_error", "lebesgue_relerr", "doubling_delta"}
)

REL_TOL = 1e-12
#: Absolute differences below this also match, so that rounding-level zeros
#: such as cos(pi/2) = 6e-17 in a point coordinate need not agree in sign.
ZERO_TOL = 1e-15

#: Thread counts pinned before numpy loads, so the load is one worker thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_MISSING = object()
_MAX_MESSAGES = 20


def pin_threads() -> None:
    """One BLAS/OpenMP thread and no ``LEJAFLIP_THREADS``; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("LEJAFLIP_THREADS", None)


def import_lejaflip():
    """Import ``lejaflip`` from the checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import lejaflip.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import lejaflip from {SRC}: {exc}") from exc
    path = Path(lejaflip.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise SystemExit(f"lejaflip was imported from {path}, not from {SRC}")
    return lejaflip


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> list:
    """Reference outputs of the workload, one per invocation, in order."""
    entries = json.loads(reference_path(workload).read_text())["outputs"]
    if [e["argv"] for e in entries] != WORKLOADS[workload]:
        raise SystemExit(f"{reference_path(workload)} does not match the {workload} invocations")
    return [e["output"] for e in entries]


def _same(ref, got) -> bool:
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return False
        return math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ZERO_TOL)
    return type(ref) is type(got) and ref == got


def compare(ref, got, where: str, failures: list[str]) -> int:
    """Check ``got`` against ``ref`` field by field; return the number of checks.

    Every leaf of the reference outside :data:`UNCOMPARED` is one check; a
    mismatch or a missing field appends a message to ``failures``.  Keys that
    only ``got`` has are ignored; rows beyond the reference count as one
    failed check.
    """
    if isinstance(ref, dict):
        fields = got if isinstance(got, dict) else {}
        return sum(
            compare(value, fields.get(key, _MISSING), f"{where}.{key}", failures)
            for key, value in ref.items()
            if key not in UNCOMPARED
        )
    if isinstance(ref, list):
        rows = got if isinstance(got, list) else []
        checks = sum(
            compare(value, rows[i] if i < len(rows) else _MISSING, f"{where}[{i}]", failures)
            for i, value in enumerate(ref)
        )
        if len(rows) > len(ref):
            failures.append(f"{where}: {len(rows) - len(ref)} rows beyond the reference")
            checks += 1
        return checks
    if got is _MISSING:
        failures.append(f"{where}: missing")
    elif not _same(ref, got):
        failures.append(f"{where}: {got!r} != reference {ref!r}")
    return 1


def run_invocations(cli, invocations: list[list[str]], seed: int, workdir: Path) -> tuple[list[float], list]:
    """Run each invocation once; return each one's wall time and exit code.

    An invocation that raises is recorded with its traceback in place of an
    exit code, so one crash is a failed check and not a crashed pass.
    """
    times: list[float] = []
    codes: list = []
    seed_arg = str(seed % 2**32)  # the CLI's numpy generator takes only non-negative seeds
    for i, argv in enumerate(invocations):
        out = workdir / f"{i}.json"
        start = time.perf_counter()
        try:
            codes.append(cli.main([*argv, "--format", "json", "-o", str(out), "--seed", seed_arg]))
        except Exception:  # noqa: BLE001 - the pass must go on and report it
            codes.append(traceback.format_exc())
        times.append(time.perf_counter() - start)
    return times, codes


def check_outputs(invocations, codes, workdir: Path, reference: list) -> tuple[int, list[str], list[str]]:
    """Exit codes and output fields against the reference: (checks, failures, output digests)."""
    checks, failures, digests = 0, [], []
    for i, (argv, code, ref) in enumerate(zip(invocations, codes, reference)):
        label = " ".join(argv)
        checks += 1
        if code != 0:
            failures.append(f"{label}: exit {code}")
        try:
            text = (workdir / f"{i}.json").read_bytes()
            got = json.loads(text)
        except (OSError, ValueError):
            text, got = b"", _MISSING
        digests.append(hashlib.sha256(text).hexdigest())
        checks += compare(ref, got, label, failures)
    return checks, failures, digests


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def provenance(lejaflip) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "lejaflip_file": str(Path(lejaflip.__file__).resolve()),
    }


def record(workload: str) -> None:
    """Write the current code's outputs as the workload's reference."""
    lejaflip = import_lejaflip()
    invocations = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        _, codes = run_invocations(lejaflip.cli, invocations, 0, Path(tmp))
        if any(code != 0 for code in codes):
            raise SystemExit(f"{workload}: an invocation failed, no reference written: {codes}")
        outputs = [json.loads((Path(tmp) / f"{i}.json").read_text()) for i in range(len(invocations))]
    entries = [{"argv": argv, "output": out} for argv, out in zip(invocations, outputs)]
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(json.dumps({"workload": workload, "outputs": entries}) + "\n")


def one_pass(args, t0: float) -> dict:
    """Set up, run and check one pass; the record ``bench/run.py`` aggregates."""
    lejaflip = import_lejaflip()
    invocations = WORKLOADS[args.workload]
    reference = load_reference(args.workload)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    rec = {"setup_s": setup_s}
    if args.setup_only:
        return rec
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    with tempfile.TemporaryDirectory(dir=args.out.parent) as tmp:
        workdir = Path(tmp)
        if tracer is None:
            times, codes = run_invocations(lejaflip.cli, invocations, args.seed, workdir)
        else:
            with tracer.installed():
                times, codes = run_invocations(lejaflip.cli, invocations, args.seed, workdir)
        checks, failures, digests = check_outputs(invocations, codes, workdir, reference)
    wall = sum(times)
    rec.update(
        wall_s=wall,
        invocation_s=times,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=checks,
        failed=len(failures),
        failures=failures[:_MAX_MESSAGES],
        digests=digests,
        provenance=provenance(lejaflip),
    )
    if tracer is not None:
        rec["layers"] = tracer.metrics(wall)
        rec["missing_entry_points"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    return rec


def main(argv: list[str] | None = None) -> int:
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None, help="CLOCK_MONOTONIC time the process was started")
    parser.add_argument("--out", type=Path, help="where to write the pass record")
    parser.add_argument("--spans", type=Path, default=None, help="where a traced pass writes its spans")
    parser.add_argument("--setup-only", action="store_true", help="stop once the first invocation is ready")
    parser.add_argument("--record", action="store_true", help="write the reference outputs instead")
    args = parser.parse_args(argv)
    pin_threads()
    if args.record:
        record(args.workload)
        return 0
    if args.out is None:
        parser.error("--out is required for a pass")
    rec = one_pass(args, t0 if args.t0 is None else args.t0)
    args.out.write_text(json.dumps(rec) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
