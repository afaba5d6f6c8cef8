"""End-to-end benchmark of the infoclone CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one client in a closed loop. Each operation spawns a fresh
interpreter that imports ``infoclone.cli`` and calls ``main`` with argv
generated from ``--seed``; the next operation starts when the previous one
has exited, so at most one child runs at a time. Interpreter start and
imports are paid on every user invocation, so they are timed. One smaller
warm-up operation runs first and is not recorded.

Every report passes through the correctness gate in ``gate.py``. Lines
before the last one on stdout are JSON details (each operation's argv,
provenance, a summary); the last line is the result object.

With ``--trace 1`` traced and untraced operations alternate. Traced ones
run under ``-X importtime`` with spans around the calls into each module
(see ``child.py``), and the per-layer metrics are medians over them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = SRC / "infoclone" / "schemas" / "report.schema.json"
CHILD = BENCH_DIR / "child.py"

sys.path.insert(0, str(BENCH_DIR))

from gate import check, theory_std_mismatch_rows  # noqa: E402
from workloads import WORKLOADS, Op, operations, warmup  # noqa: E402

RECORD_TAG = b"\x1ebench-record "  # the prefix child.py writes
MIN_OPS = 3
OP_TIMEOUT_S = 60.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpResult:
    op: Op
    mode: str
    exit_code: int | None
    spawned: float
    wall_s: float
    stdout: bytes
    stderr: bytes
    record: dict | None
    problems: list[str] = field(default_factory=list)
    report: dict | None = None

    @property
    def setup_s(self) -> float:
        """Spawn until ``infoclone.cli`` was imported, on CLOCK_MONOTONIC."""
        return self.record["imported"] - self.spawned


def run_op(op: Op, mode: str) -> OpResult:
    """Spawn one CLI child, wait for it, and parse its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    flags = ["-X", "importtime"] if mode == "trace" else []
    cmd = [sys.executable, *flags, str(CHILD), mode, *op.argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        result = OpResult(op, mode, None, spawned, time.monotonic() - spawned, out, err, None)
        result.problems.append(f"timed out after {OP_TIMEOUT_S} s")
        return result
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - spawned
    record = None
    for line in reversed(err.splitlines()):
        if line.startswith(RECORD_TAG):
            record = json.loads(line[len(RECORD_TAG):])
            break
    result = OpResult(op, mode, proc.returncode, spawned, wall, out, err, record)
    if record is None:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        result.problems.append(f"exit {proc.returncode} without a record: {tail[0]}")
    return result


def gated(result: OpResult, validator) -> OpResult:
    if not result.problems:
        result.problems, result.report = check(
            result.op, result.exit_code, result.stdout, validator
        )
    return result


# ---------------------------------------------------------------------------
# -X importtime


def import_times(stderr: bytes) -> dict[str, float]:
    """cli.import_s and cli.import_fock_s from ``-X importtime`` lines.

    import_s sums the cumulative time of the top-level ``infoclone*``
    imports. import_fock_s is the cumulative time of ``infoclone.fock`` plus
    any scipy import outside it, so it stays comparable if scipy moves.
    """
    entries = []  # (depth, name, cumulative_s), in the order printed (post-order)
    for raw in stderr.decode("utf-8", "replace").splitlines():
        if not raw.startswith("import time:"):
            continue
        parts = raw[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(parts[1]) * 1e-6))
    import_s = fock_s = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        names = [n for _, n in ancestors]
        if depth == 0 and (name == "infoclone" or name.startswith("infoclone.")):
            import_s += cumulative
        if name == "infoclone.fock":
            fock_s += cumulative
        elif name.split(".")[0] == "scipy" and not any(
            n == "infoclone.fock" or n.split(".")[0] == "scipy" for n in names
        ):
            fock_s += cumulative
        ancestors.append((depth, name))
    return {"cli.import_s": import_s, "cli.import_fock_s": fock_s}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(results: list[OpResult]) -> dict[str, dict]:
    return {
        "setup_s": {"value": statistics.median(r.setup_s for r in results), "unit": "s"},
        "op_wall_s_p50": {"value": statistics.median(r.wall_s for r in results), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r.record["maxrss_kb"] / 1024.0 for r in results),
            "unit": "MB",
        },
    }


def trials_per_s(results: list[OpResult]) -> dict:
    """Median of trials x grid points / (op wall - set-up), for the summary line.

    It moves with op_wall_s_p50 (the work per operation is fixed) but adds the
    set-up noise, and it is undefined for oracle checks, so it is not one of
    the bounded end-to-end metrics.
    """
    rates = (r.op.work / (r.wall_s - r.setup_s) for r in results)
    return {"value": statistics.median(rates), "unit": "1/s"}


PER_LAYER_UNITS = {
    "cli.main_s": "s",
    "cli.import_s": "s",
    "cli.import_fock_s": "s",
    "cli.resolve_config_s": "s",
    "cli.render_report_s": "s",
    "cli.report_bytes": "B",
    "transform.make_strategy.calls": "count",
    "transform.make_strategy_s": "s",
    "transform.build_transform_s": "s",
    "estimation.run_trials.calls": "count",
    "estimation.run_trials_s": "s",
    "estimation.run_trials_self_s": "s",
    "estimation.trials": "count",
    "estimation.theory_std_mismatch_rows": "count",
    "measurement.measure_clones.calls": "count",
    "measurement.measure_clones_self_s": "s",
    "measurement.samples": "count",
    "measurement.samples_per_s": "1/s",
    "measurement.substream.calls": "count",
    "measurement.substream_s": "s",
    "fock.product_state.calls": "count",
    "fock.product_state_s": "s",
    "fock.evolve_s": "s",
    "fock.evolve_self_s": "s",
    "fock.expm_multiply_s": "s",
    "fock.fidelity_s": "s",
    "fock.state_size": "count",
    "fock.state_bytes_computed": "B",
    "fock.generator_nnz": "count",
    "trace.overhead_ratio": "ratio",
}


def layer_values(result: OpResult) -> dict[str, float]:
    """Per-layer values of one traced operation."""
    spans, counters = result.record["spans"], result.record["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    clones_self = own("measurement.measure_clones")
    samples = counters.get("samples", 0)
    return {
        "cli.main_s": total("cli.main"),
        **import_times(result.stderr),
        "cli.resolve_config_s": total("cli.resolve_config"),
        "cli.render_report_s": total("cli.render_report"),
        "cli.report_bytes": len(result.stdout),
        "transform.make_strategy.calls": calls("transform.make_strategy"),
        "transform.make_strategy_s": total("transform.make_strategy"),
        "transform.build_transform_s": total("transform.build_transform"),
        "estimation.run_trials.calls": calls("estimation.run_trials"),
        "estimation.run_trials_s": total("estimation.run_trials"),
        "estimation.run_trials_self_s": own("estimation.run_trials"),
        "estimation.trials": counters.get("trials", 0),
        "estimation.theory_std_mismatch_rows": theory_std_mismatch_rows(result.report, result.op),
        "measurement.measure_clones.calls": calls("measurement.measure_clones"),
        "measurement.measure_clones_self_s": clones_self,
        "measurement.samples": samples,
        "measurement.samples_per_s": samples / clones_self if clones_self > 0 else 0.0,
        "measurement.substream.calls": calls("measurement.substream"),
        "measurement.substream_s": total("measurement.substream"),
        "fock.product_state.calls": calls("fock.product_state"),
        "fock.product_state_s": total("fock.product_state"),
        "fock.evolve_s": total("fock.evolve"),
        "fock.evolve_self_s": own("fock.evolve"),
        "fock.expm_multiply_s": total("fock.expm_multiply"),
        "fock.fidelity_s": total("fock.fidelity"),
        "fock.state_size": counters.get("state_size", 0),
        "fock.state_bytes_computed": counters.get("state_bytes", 0),
        "fock.generator_nnz": counters.get("generator_nnz", 0),
    }


def per_layer(results: list[OpResult]) -> tuple[dict[str, dict], dict]:
    traced = [r for r in results if r.mode == "trace"]
    plain = [r for r in results if r.mode == "plain"]
    per_op = [layer_values(r) for r in traced]
    values = {key: statistics.median(v[key] for v in per_op) for key in per_op[0]}
    values["trace.overhead_ratio"] = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in plain
    )
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER_UNITS.items()}

    # Which span's self time dominates, as a share of cli.main, in the median op.
    middle = sorted(traced, key=lambda r: r.record["spans"]["cli.main"]["total_s"])[len(traced) // 2]
    spans = middle.record["spans"]
    main_s = spans["cli.main"]["total_s"]
    shares = {name: entry["self_s"] / main_s for name, entry in spans.items()}
    dominant = max(shares, key=shares.get)
    return metrics, {"dominant_self": dominant, "self_share_of_main": shares}


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (checkout has no .git)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {name: os.environ.get(name, "unset (library default)") for name in BLAS_ENV},
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# main loop


def _emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def _op_line(index: int, result: OpResult) -> dict:
    line = {
        "op": index,
        "mode": result.mode,
        "argv": list(result.op.argv),
        "exit": result.exit_code,
        "wall_s": result.wall_s,
        "ok": not result.problems,
    }
    if result.record is not None:
        line["setup_s"] = result.setup_s
    if result.problems:
        line["problems"] = result.problems
    return line


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "infoclone" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no infoclone sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    import jsonschema

    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    validator = jsonschema.validators.validator_for(schema)(schema)
    _emit({"provenance": provenance(args)})

    warm = gated(run_op(warmup(args.workload, args.seed), "plain"), validator)
    _emit({"warmup": _op_line(-1, warm)})

    results: list[OpResult] = []
    ops = operations(args.workload, args.seed)
    deadline = time.monotonic() + args.seconds
    # Start an operation only if a typical one still ends inside the window.
    # Stop at the first failure: it already makes the run incorrect.
    while not warm.problems and (len(results) < MIN_OPS or (
        time.monotonic() + statistics.median(r.wall_s for r in results) <= deadline
    )):
        mode = "trace" if args.trace and len(results) % 2 == 0 else "plain"
        result = gated(run_op(next(ops), mode), validator)
        _emit(_op_line(len(results), result))
        results.append(result)
        if result.problems:
            break
    attempted = len(results) + 1
    failed = sum(1 for r in [warm, *results] if r.problems)

    summary = {
        "ops": len(results),
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
    }
    metrics: dict[str, dict] = {}
    if failed == 0:
        if args.trace:
            metrics, dominance = per_layer(results)
            summary.update(dominance)
        else:
            metrics = end_to_end(results)
            if results[0].op.work:
                summary["trials_per_s"] = trials_per_s(results)
    _emit({"summary": summary})
    _emit({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
