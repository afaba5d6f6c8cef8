"""Command-line front end.

Four subcommands: ``transform`` reports the amplitude rotation matrix,
``oracle`` runs the truncated number-basis check, ``estimate`` runs one
Monte Carlo estimation campaign, and ``sweep`` runs one campaign per grid
point. Settings come from defaults, then an optional JSON config file, then
flags, in increasing precedence. Reports are JSON (default) or CSV with all
floats printed to 17 significant digits, so identical settings and seed
reproduce identical output bytes.

Exit codes: 0 success, 1 oracle fidelity below threshold, 2 usage or
validation error, or a request too large for memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import secrets
import sys

from .errors import InfoCloneError, require_seed
from .estimation import EstimateSummary, run_trials
from .fock import evolve, fidelity, product_state
from .transform import (
    CouplingConfig,
    StrategyKind,
    apply_transform,
    build_transform,
    make_strategy,
    orthogonality_residual,
)

__all__ = ["DEFAULT_SEED", "FIDELITY_THRESHOLD", "CSV_COLUMNS", "main", "console_main"]

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 100_000
DEFAULT_CUTOFF = 25
FIDELITY_THRESHOLD = 0.999

CSV_COLUMNS = (
    "strategy",
    "n_copies",
    "epsilon",
    "beta_re",
    "beta_im",
    "sin_rt",
    "signal_scale",
    "offset_scale",
    "alpha_re",
    "alpha_im",
    "trials",
    "seed",
    "mean_re",
    "mean_im",
    "std_re",
    "std_im",
    "theory_std_re",
    "theory_std_im",
)

_COMMON_DEFAULTS = {"seed": DEFAULT_SEED, "out": None, "format": "json"}

_DEFAULTS = {
    "transform": {"couplings": None, "time": None, "alpha": 1 + 0j, "beta": 0j},
    "oracle": {
        "couplings": None,
        "time": None,
        "alpha": 1 + 0j,
        "beta": 0j,
        "cutoff": DEFAULT_CUTOFF,
    },
    "estimate": {
        "strategy": "optimal",
        "n_copies": 100,
        "epsilon": None,
        "beta": None,
        "alpha": 1 + 0j,
        "trials": DEFAULT_TRIALS,
    },
}
_DEFAULTS["sweep"] = {**_DEFAULTS["estimate"], "grid": None}


# ---------------------------------------------------------------------------
# flag and config-file value parsing


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected RE,IM, got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _reject_bool(value, key: str):
    if isinstance(value, bool):
        raise InfoCloneError(f"config key {key!r} must be a number, got {value!r}")


def _coerce_float(value, key: str) -> float:
    _reject_bool(value, key)
    if not isinstance(value, (int, float)):
        raise InfoCloneError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _coerce_int(value, key: str) -> int:
    _reject_bool(value, key)
    if not isinstance(value, int):
        raise InfoCloneError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _coerce_str(value, key: str) -> str:
    if not isinstance(value, str):
        raise InfoCloneError(f"config key {key!r} must be a string, got {value!r}")
    return value


def _coerce_format(value, key: str) -> str:
    value = _coerce_str(value, key)
    if value not in ("json", "csv"):
        raise InfoCloneError(f"config key {key!r} must be 'json' or 'csv', got {value!r}")
    return value


def _coerce_complex(value, key: str) -> complex:
    if isinstance(value, str):
        return _parse_complex_pair(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_coerce_float(value[0], key), _coerce_float(value[1], key))
    raise InfoCloneError(f"config key {key!r} must be [re, im] or 'RE,IM', got {value!r}")


def _coerce_float_list(value, key: str) -> list[float]:
    if isinstance(value, str):
        return _parse_float_list(value)
    if isinstance(value, (list, tuple)):
        return [_coerce_float(v, key) for v in value]
    raise InfoCloneError(f"config key {key!r} must be a list of numbers, got {value!r}")


def _coerce_grid(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise InfoCloneError(f"config key {key!r} must be an object with axis and values")
    unknown = set(value) - {"axis", "values"}
    if unknown:
        raise InfoCloneError(f"unknown grid keys: {sorted(unknown)}")
    grid = {}
    if "axis" in value:
        grid["axis"] = _coerce_str(value["axis"], "grid.axis")
    if "values" in value:
        grid["values"] = _coerce_float_list(value["values"], "grid.values")
    return grid


_COERCERS = {
    "couplings": _coerce_float_list,
    "time": _coerce_float,
    "alpha": _coerce_complex,
    "beta": _coerce_complex,
    "cutoff": _coerce_int,
    "strategy": _coerce_str,
    "n_copies": _coerce_int,
    "epsilon": _coerce_float,
    "trials": _coerce_int,
    "seed": _coerce_int,
    "out": _coerce_str,
    "format": _coerce_format,
    "grid": _coerce_grid,
}


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise InfoCloneError("config file must contain a JSON object")
    return raw


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags (flags win) into one dict."""
    command = args.command
    cfg: dict = dict(_COMMON_DEFAULTS)
    cfg.update(_DEFAULTS[command])
    cfg["command"] = command

    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key == "command":
                if value != command:
                    raise InfoCloneError(
                        f"config file is for command {value!r}, not {command!r}"
                    )
                continue
            if key not in cfg:
                raise InfoCloneError(f"unknown config key {key!r} for command {command!r}")
            cfg[key] = _COERCERS[key](value, key)

    for key in _COERCERS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value

    if getattr(args, "grid_axis", None) is not None or getattr(args, "grid_values", None) is not None:
        grid = dict(cfg.get("grid") or {})
        if args.grid_axis is not None:
            grid["axis"] = args.grid_axis
        if args.grid_values is not None:
            grid["values"] = args.grid_values
        cfg["grid"] = grid

    if args.randomize:
        if args.seed is not None:
            raise InfoCloneError("--randomize conflicts with an explicit --seed")
        cfg["seed"] = secrets.randbits(64)
    cfg["seed"] = require_seed(cfg["seed"])
    return cfg


# ---------------------------------------------------------------------------
# report rendering


def format_float(x: float) -> str:
    """Decimal rendering at 17 significant digits (lossless for doubles)."""
    if not math.isfinite(x):
        raise InfoCloneError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unsupported report value {value!r}")


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_json_value(v, indent + 2)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(_is_scalar(v) for v in value):
            return "[" + ", ".join(_json_scalar(v) for v in value) + "]"
        items = [f"{inner}{_json_value(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(value)


def render_json(report: dict) -> str:
    return _json_value(report, 0) + "\n"


def _compact_json(value) -> str:
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_compact_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_compact_json(v) for v in value) + "]"
    return _json_scalar(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (dict, list, tuple)):
        return _compact_json(value)
    return str(value)


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if report["command"] in ("estimate", "sweep"):
        writer.writerow(CSV_COLUMNS)
        for row in report["rows"]:
            writer.writerow([_csv_cell(row[column]) for column in CSV_COLUMNS])
    else:
        writer.writerow(["field", "value"])
        for key, value in report.items():
            writer.writerow([key, _csv_cell(value)])
    return buf.getvalue()


def render_report(report: dict, fmt: str) -> str:
    return render_json(report) if fmt == "json" else render_csv(report)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise InfoCloneError(f"{key} is required (set a flag or a config field)")
    return cfg[key]


def _summary_row(summary: EstimateSummary) -> dict:
    strategy = summary.strategy
    return {
        "strategy": strategy.kind.value,
        "n_copies": strategy.n_copies,
        "epsilon": strategy.epsilon,
        "beta_re": strategy.beta.real,
        "beta_im": strategy.beta.imag,
        "sin_rt": strategy.sin_rt,
        "signal_scale": strategy.signal_scale,
        "offset_scale": strategy.offset_scale,
        "alpha_re": summary.true_alpha.real,
        "alpha_im": summary.true_alpha.imag,
        "trials": summary.n_trials,
        "seed": summary.seed,
        "mean_re": summary.mean_estimate.real,
        "mean_im": summary.mean_estimate.imag,
        "std_re": summary.std_re,
        "std_im": summary.std_im,
        "theory_std_re": summary.theory_std_re,
        "theory_std_im": summary.theory_std_im,
    }


def cmd_transform(cfg: dict) -> tuple[int, dict]:
    config = CouplingConfig(_require(cfg, "couplings"), _require(cfg, "time"))
    matrix = build_transform(config)
    alpha, beta = cfg["alpha"], cfg["beta"]
    output = apply_transform(matrix, [alpha] + [beta] * len(config.couplings))
    report = {
        "command": "transform",
        "couplings": list(config.couplings),
        "time": config.time,
        "norm": config.norm,
        "angle": config.angle,
        "sin_rt": math.sin(config.angle),
        "cos_rt": math.cos(config.angle),
        "matrix": [[float(entry) for entry in row] for row in matrix],
        "orthogonality_residual": orthogonality_residual(matrix),
        "alpha_re": alpha.real,
        "alpha_im": alpha.imag,
        "beta_re": beta.real,
        "beta_im": beta.imag,
        "output_amplitudes": [[z.real, z.imag] for z in output],
    }
    return 0, report


def cmd_oracle(cfg: dict) -> tuple[int, dict]:
    config = CouplingConfig(_require(cfg, "couplings"), _require(cfg, "time"))
    n_ancillas = len(config.couplings)
    if n_ancillas > 2:
        raise InfoCloneError(f"oracle supports at most 2 ancilla modes, got {n_ancillas}")
    cutoff = cfg["cutoff"]
    alpha, beta = cfg["alpha"], cfg["beta"]
    amplitudes = [alpha] + [beta] * n_ancillas
    initial = product_state(amplitudes, cutoff)
    evolved = evolve(initial, config)
    predicted = apply_transform(build_transform(config), amplitudes)
    target = product_state(predicted, cutoff)
    fid = fidelity(evolved, target)
    passed = fid >= FIDELITY_THRESHOLD
    report = {
        "command": "oracle",
        "couplings": list(config.couplings),
        "time": config.time,
        "cutoff": cutoff,
        "alpha_re": alpha.real,
        "alpha_im": alpha.imag,
        "beta_re": beta.real,
        "beta_im": beta.imag,
        "n_modes": n_ancillas + 1,
        "state_size": initial.amplitudes.size,
        "predicted_amplitudes": [[z.real, z.imag] for z in predicted],
        "evolved_norm": evolved.norm(),
        "fidelity": fid,
        "threshold": FIDELITY_THRESHOLD,
        "passed": passed,
    }
    return (0 if passed else 1), report


def _build_strategy(cfg: dict):
    return make_strategy(cfg["strategy"], cfg["n_copies"], cfg["epsilon"], cfg["beta"])


def cmd_estimate(cfg: dict) -> tuple[int, dict]:
    strategy = _build_strategy(cfg)
    summary = run_trials(strategy, cfg["alpha"], cfg["trials"], cfg["seed"])
    return 0, {"command": "estimate", "rows": [_summary_row(summary)]}


def _grid_strategy(axis: str, value: float, cfg: dict):
    if axis == "n_copies":
        n = int(value)
        if n != value:
            raise InfoCloneError(f"n_copies grid values must be integers, got {value!r}")
        return make_strategy(cfg["strategy"], n, cfg["epsilon"], cfg["beta"])
    if axis == "epsilon":
        if cfg["strategy"] != StrategyKind.NEAR_OPTIMAL.value:
            raise InfoCloneError("an epsilon grid requires --strategy near-optimal")
        return make_strategy(cfg["strategy"], cfg["n_copies"], value, cfg["beta"])
    # sin_rt axis: map each point onto the strategy that realizes it
    if value == -1.0:
        return make_strategy(StrategyKind.OPTIMAL, cfg["n_copies"])
    if -1.0 < value < 0.0:
        return make_strategy(StrategyKind.NEAR_OPTIMAL, cfg["n_copies"], 1.0 + value, cfg["beta"])
    if abs(value - math.sqrt(0.5)) <= 1e-12:
        return make_strategy(StrategyKind.OFFSET, cfg["n_copies"], beta=cfg["beta"])
    raise InfoCloneError(
        f"sin_rt = {value!r} is not realized by any strategy; "
        "use a value in [-1, 0) or 1/sqrt(2)"
    )


def cmd_sweep(cfg: dict) -> tuple[int, dict]:
    grid = cfg.get("grid") or {}
    axis = grid.get("axis")
    if axis is None:
        raise InfoCloneError("sweep requires a grid axis (--grid-axis or config grid.axis)")
    axis = axis.replace("-", "_")
    if axis not in ("n_copies", "epsilon", "sin_rt"):
        raise InfoCloneError(f"grid axis must be n_copies, epsilon, or sin_rt, got {axis!r}")
    values = grid.get("values")
    if not values:
        raise InfoCloneError("sweep requires a non-empty list of grid values")
    rows = []
    for value in values:
        strategy = _grid_strategy(axis, value, cfg)
        summary = run_trials(strategy, cfg["alpha"], cfg["trials"], cfg["seed"])
        rows.append(_summary_row(summary))
    return 0, {"command": "sweep", "axis": axis, "rows": rows}


_COMMANDS = {
    "transform": cmd_transform,
    "oracle": cmd_oracle,
    "estimate": cmd_estimate,
    "sweep": cmd_sweep,
}


# ---------------------------------------------------------------------------
# parser and entry points


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file; flags override its fields")
    common.add_argument("--seed", type=int, metavar="U64", help=f"stream seed (default {DEFAULT_SEED})")
    common.add_argument(
        "--randomize", action="store_true", help="draw the seed from OS entropy instead of the default"
    )
    common.add_argument("--out", metavar="PATH", help="write the report to this file instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), help="output format (default json)")

    amplitudes = argparse.ArgumentParser(add_help=False)
    amplitudes.add_argument("--alpha", type=_parse_complex_pair, metavar="RE,IM", help="held amplitude")
    amplitudes.add_argument("--beta", type=_parse_complex_pair, metavar="RE,IM", help="reference amplitude")

    couplings = argparse.ArgumentParser(add_help=False)
    couplings.add_argument("--couplings", type=_parse_float_list, metavar="R1,R2,...", help="coupling strengths")
    couplings.add_argument("--time", type=float, metavar="T", help="interaction time")

    strategy = argparse.ArgumentParser(add_help=False)
    strategy.add_argument("--strategy", choices=[k.value for k in StrategyKind], help="cloning strategy")
    strategy.add_argument("--n-copies", type=int, metavar="N", help="number of clones")
    strategy.add_argument("--epsilon", type=float, metavar="EPS", help="near-optimal detuning in (0, 1)")
    strategy.add_argument("--trials", type=int, metavar="M", help=f"Monte Carlo trials (default {DEFAULT_TRIALS})")

    parser = argparse.ArgumentParser(
        prog="infoclone",
        description="Simulate attenuated cloning of a coherent state and estimate its amplitude.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "transform",
        parents=[common, couplings, amplitudes],
        help="report the amplitude rotation matrix and its action on (alpha, beta, ..., beta)",
    )
    oracle = sub.add_parser(
        "oracle",
        parents=[common, couplings, amplitudes],
        help="verify the transform against the truncated number-basis evolution",
    )
    oracle.add_argument("--cutoff", type=int, metavar="NMAX", help=f"per-mode cutoff (default {DEFAULT_CUTOFF})")
    sub.add_parser(
        "estimate",
        parents=[common, strategy, amplitudes],
        help="run one Monte Carlo estimation campaign",
    )
    sweep = sub.add_parser(
        "sweep",
        parents=[common, strategy, amplitudes],
        help="run one campaign per grid point",
    )
    sweep.add_argument(
        "--grid-axis", choices=("n-copies", "n_copies", "epsilon", "sin-rt", "sin_rt"), help="swept parameter"
    )
    sweep.add_argument("--grid-values", type=_parse_float_list, metavar="V1,V2,...", help="grid points")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = resolve_config(args)
        code, report = _COMMANDS[cfg["command"]](cfg)
        _write_output(render_report(report, cfg["format"]), cfg["out"])
        return code
    except (ValueError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())
