"""Correctness gate for one CLI report.

The gate checks physics, not pinned values: a campaign row passes when each
quadrature's mean and standard deviation lie within ``Z_LIMIT`` standard
errors of the benchmark's own per-quadrature prediction, so a change of
random-number scheme alone cannot fail it.
"""

from __future__ import annotations

import json
import math

from workloads import Op

Z_LIMIT = 5.0
NORM_TOLERANCE = 1e-9
FIDELITY_THRESHOLD = 0.999


def predicted_std(n_copies: int, sin_rt: float) -> tuple[float, float]:
    """Per-quadrature std of the estimate: sqrt(N / (4 n_q)) / |sin_rt|.

    ceil(N/2) clones are measured in position and floor(N/2) in momentum.
    """
    n_position = (n_copies + 1) // 2
    n_momentum = n_copies // 2
    scale = abs(sin_rt)
    return (
        math.sqrt(n_copies / (4.0 * n_position)) / scale,
        math.sqrt(n_copies / (4.0 * n_momentum)) / scale,
    )


def theory_std_mismatch_rows(report: dict, op: Op) -> int:
    """Rows whose printed theory std differs from the per-quadrature prediction.

    Reads ``theory_std_re``/``theory_std_im`` where a report has them and the
    single ``theory_std`` otherwise.
    """
    count = 0
    for row, sin_rt in zip(report.get("rows", ()), op.sin_rts):
        pred_re, pred_im = predicted_std(op.n_copies, sin_rt)
        printed_re = row.get("theory_std_re", row.get("theory_std"))
        printed_im = row.get("theory_std_im", row.get("theory_std"))
        if not (math.isclose(printed_re, pred_re, rel_tol=1e-9)
                and math.isclose(printed_im, pred_im, rel_tol=1e-9)):
            count += 1
    return count


def _check_rows(report: dict, op: Op) -> list[str]:
    rows = report["rows"]
    if len(rows) != len(op.sin_rts):
        return [f"expected {len(op.sin_rts)} rows, got {len(rows)}"]
    problems = []
    m = op.trials
    for index, (row, sin_rt) in enumerate(zip(rows, op.sin_rts)):
        if row["trials"] != m or row["n_copies"] != op.n_copies:
            problems.append(f"row {index}: trials/n_copies differ from the argv")
            continue
        for part, truth, pred in zip(("re", "im"), (op.alpha.real, op.alpha.imag),
                                     predicted_std(op.n_copies, sin_rt)):
            z_mean = (row[f"mean_{part}"] - truth) / (pred / math.sqrt(m))
            z_std = (row[f"std_{part}"] - pred) / (pred / math.sqrt(2.0 * (m - 1)))
            if abs(z_mean) > Z_LIMIT:
                problems.append(f"row {index}: mean_{part} is {z_mean:+.2f} SE from alpha")
            if abs(z_std) > Z_LIMIT:
                problems.append(f"row {index}: std_{part} is {z_std:+.2f} SE from {pred:.6g}")
    return problems


def _check_oracle(report: dict, op: Op) -> list[str]:
    problems = []
    if report["passed"] is not True or report["fidelity"] < FIDELITY_THRESHOLD:
        problems.append(f"oracle fidelity {report['fidelity']!r} did not pass")
    norm_in = abs(op.alpha) ** 2 + sum(abs(op.beta) ** 2 for _ in op.couplings)
    norm_out = sum(re * re + im * im for re, im in report["predicted_amplitudes"])
    if abs(norm_out - norm_in) > NORM_TOLERANCE * max(1.0, norm_in):
        problems.append(f"predicted amplitudes carry {norm_out!r}, inputs {norm_in!r}")
    return problems


def check(op: Op, exit_code: int, stdout: bytes, validator) -> tuple[list[str], dict | None]:
    """Return (problems, parsed report); an empty problem list means the op passed.

    ``validator`` is a jsonschema validator for the package's report schema.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"], None
    try:
        report = json.loads(stdout)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"report is not JSON: {exc}"], None
    errors = [e.message for e in validator.iter_errors(report)]
    if errors:
        return [f"schema: {message}" for message in errors[:3]], report
    if report["command"] != op.command:
        return [f"report is for {report['command']!r}, not {op.command!r}"], report
    if op.command == "oracle":
        return _check_oracle(report, op), report
    return _check_rows(report, op), report
