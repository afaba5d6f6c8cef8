"""Command-line front end.

Four subcommands: ``transform`` reports the amplitude rotation matrix,
``oracle`` runs the truncated number-basis check, ``estimate`` runs one
Monte Carlo estimation campaign, and ``sweep`` runs one campaign per grid
point. The argument parser is the one description of the settings: their
names, types, defaults and choices. A JSON config file is read as the flags
its keys stand for, placed before the command-line flags, so flags win.
Reports are JSON (default) or CSV with all floats printed to 17 significant
digits, so identical settings and seed reproduce identical output bytes.

Exit codes: 0 success, 1 oracle fidelity below threshold, 2 usage or
validation error, or a request too large for memory or for a double.

Parsing needs no numpy. A command that computes imports it, and the modules
it runs, when it first needs them: ``transform`` inside the transform's
matrix functions, ``oracle`` with ``infoclone.fock`` and the campaigns with
``infoclone.estimation``. So every module a command runs is compiled before
numpy loads, and ``--help``, usage errors and config errors never load it.

Before numpy loads, ``main`` defaults ``OPENBLAS_NUM_THREADS`` to 1, unless
the environment sets it: numpy's import would start OpenBLAS worker threads,
which spin beside the main thread, and no command makes a BLAS call large
enough to use them.

Once numpy is loaded, ``main`` freezes the garbage collector as it returns,
on success or failure, once per process (``gc.freeze``). None of the ~21,000
objects that numpy's and the package's imports leave tracked is garbage, yet
the shutdown collection would traverse them all: about 14 ms of the
0.13-0.15 s a benchmark command takes from spawn to exit. The freeze is O(1)
and allocates nothing; a frozen object that later becomes cyclic garbage is
not collected before exit. Later calls do not freeze again, so they do not
pin the garbage that earlier calls (a test suite's, say) left pending.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from .errors import InfoCloneError, require_seed
from .transform import (
    CouplingConfig,
    StrategyKind,
    StrategySpec,
    apply_transform,
    build_transform,
    orthogonality_residual,
)

__all__ = ["DEFAULT_SEED", "main", "console_main"]

DEFAULT_SEED = 12345


# ---------------------------------------------------------------------------
# flag values


def _parse_complex_pair(text: str) -> complex:
    try:
        real, imag = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers RE,IM, got {text!r}") from None
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise argparse.ArgumentTypeError(f"expected two comma-separated finite numbers RE,IM, got {text!r}")
    return complex(real, imag)


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")] if text.strip() else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _snake_case(text: str) -> str:
    return text.replace("-", "_")


# Options that no config key stands for; the "grid" object stands for the
# two grid flags.
_NOT_IN_CONFIG = {"help", "config", "randomize", "grid_axis", "grid_values"}


def _flag_text(action: argparse.Action, value) -> str:
    """The flag text a config value stands for: 8 -> "8", [1.5, -0.5] -> "1.5,-0.5".

    The JSON type is checked here (a JSON number is exactly an int or a float,
    never a bool); the flag's own type then parses the text.
    """
    if action.type in (int, float):
        if type(value) in (int, float):
            return repr(value)
        wanted = "a number"
    elif action.type in (_parse_complex_pair, _parse_float_list):
        if isinstance(value, str):
            return value
        if isinstance(value, list) and all(type(v) in (int, float) for v in value):
            return ",".join(map(repr, value))
        wanted = "a string or a list of numbers"
    else:
        if isinstance(value, str):
            return value
        wanted = "a string"
    raise InfoCloneError(f"config key {action.dest!r} must be {wanted}, got {value!r}")


def _config_tokens(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """The ``--flag=value`` tokens that the config file of ``args`` stands for."""
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            settings = json.load(fh)
        except RecursionError:
            raise InfoCloneError(f"config file {args.config!r} is nested too deeply to read") from None
    if not isinstance(settings, dict):
        raise InfoCloneError("config file must contain a JSON object")
    command = settings.pop("command", args.command)
    if command != args.command:
        raise InfoCloneError(f"config file is for command {command!r}, not {args.command!r}")
    # argparse has no public way to list the options of a subcommand
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in commands.choices[args.command]._actions}
    pairs = []
    for key, value in settings.items():
        if key == "grid" and "grid_axis" in options:
            if not isinstance(value, dict) or not value.keys() <= {"axis", "values"}:
                raise InfoCloneError('config key "grid" must be an object with keys axis and values')
            pairs += [(options[f"grid_{name}"], v) for name, v in value.items()]
        elif key in options and key not in _NOT_IN_CONFIG:
            pairs.append((options[key], value))
        else:
            raise InfoCloneError(f"unknown config key {key!r} for command {args.command!r}")
    tokens = []
    for action, value in pairs:
        token = f"{action.option_strings[0]}={_flag_text(action, value)}"
        # --randomize replaces the file's seed; argparse refuses the two flags together
        if not (action.dest == "seed" and args.randomize):
            tokens.append(token)
    return tokens


def _parse(parser: argparse.ArgumentParser, tokens: list[str]) -> argparse.Namespace:
    # argparse drops the value of --flag=-- and stores an empty list, which no
    # type or choice check sees
    if any(token.startswith("--") and token.partition("=")[2] == "--" for token in tokens):
        parser.error("'--' is not a flag value")
    return parser.parse_args(tokens)


def resolve_config(argv: list[str] | None = None) -> dict:
    """Parse argv; a config file is read as the flags it stands for, and flags win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = _parse(parser, argv)
    if args.config:
        # argparse keeps the last value it sees, so the flags after the file win
        args = _parse(parser, [args.command, *_config_tokens(parser, args), *argv[1:]])
    if args.randomize:
        args.seed = int.from_bytes(os.urandom(8), "little")
    args.seed = require_seed(args.seed)
    return vars(args)


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
    # json.dumps gives null, true, false, ints and strings, and raises
    # TypeError on any other type
    return format_float(value) if isinstance(value, float) else json.dumps(value)


def _json_value(value, indent: int | None = None) -> str:
    """JSON text of a report value, on one line when indent is None.

    Otherwise each item of a dict, or of a list holding containers, goes on
    its own line, indented two spaces past ``indent``.
    """
    inner = None if indent is None else indent + 2
    if isinstance(value, dict):
        items = [f"{json.dumps(str(k))}: {_json_value(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_value(v, inner) for v in value]
        brackets = "[]"
        if all(_is_scalar(v) for v in value):
            indent = None
    else:
        return _json_scalar(value)
    if indent is None or not items:
        return brackets[0] + ", ".join(items) + brackets[1]
    body = ",\n".join(" " * inner + item for item in items)
    return f"{brackets[0]}\n{body}\n{' ' * indent}{brackets[1]}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else _json_value(value)


def render_csv(report: dict) -> str:
    # imported here so that a JSON report skips their import
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    if report["command"] in ("estimate", "sweep"):
        # every row has the same keys; the first row's give the header
        writer.writerow(report["rows"][0].keys())
        for row in report["rows"]:
            writer.writerow([_csv_cell(value) for value in row.values()])
    else:
        writer.writerow(["field", "value"])
        for key, value in report.items():
            writer.writerow([key, _csv_cell(value)])
    return buf.getvalue()


def render_report(report: dict, fmt: str) -> str:
    return _json_value(report, 0) + "\n" if fmt == "json" else render_csv(report)


def _write_output(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    stream = getattr(sys.stdout, "buffer", None)
    if stream is None:  # a text-only stdout, such as io.StringIO
        sys.stdout.write(text)
        return
    # Under python -u the buffer is the raw file. Its write may take only part
    # of the bytes (a pipe whose reader has left), and sys.stdout.write drops
    # the rest unseen; so write until every byte is taken, or fail.
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    try:
        while data:
            written = stream.write(data)
            if not written:
                raise OSError(f"stdout took none of the report's last {len(data)} bytes")
            data = data[written:]
        # a buffered stdout may still hold the report: fail here, not at exit
        stream.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit, and that flush would
        # fail outside main (exit 120); point fd 1 at os.devnull instead, as
        # the Python docs' note on SIGPIPE does
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise


# ---------------------------------------------------------------------------
# subcommands


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise InfoCloneError(f"{key} is required (set a flag or a config field)")
    return cfg[key]


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
    # imported here so that the campaigns, which never use it, skip its import
    from .fock import FIDELITY_THRESHOLD, overlap

    config = CouplingConfig(_require(cfg, "couplings"), _require(cfg, "time"))
    n_ancillas = len(config.couplings)
    cutoff = cfg["cutoff"]
    alpha, beta = cfg["alpha"], cfg["beta"]
    amplitudes = [alpha] + [beta] * n_ancillas
    predicted = apply_transform(build_transform(config), amplitudes)
    evolved_norm, fid, tail = overlap(amplitudes, predicted, config, cutoff)
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
        "state_size": math.comb(cutoff + n_ancillas + 1, n_ancillas + 1),
        "truncation_tail": tail,
        "predicted_amplitudes": [[z.real, z.imag] for z in predicted],
        "evolved_norm": evolved_norm,
        "fidelity": fid,
        "threshold": FIDELITY_THRESHOLD,
        "passed": passed,
    }
    return (0 if passed else 1), report


def run_trials(strategy: StrategySpec, true_alpha: complex, n_trials: int, seed: int) -> dict:
    """:func:`infoclone.estimation.run_trials`, imported on the first campaign.

    A name of this module, as the tracer in bench/child.py expects.
    """
    from . import estimation

    return estimation.run_trials(strategy, true_alpha, n_trials, seed)


def cmd_estimate(cfg: dict) -> tuple[int, dict]:
    strategy = StrategySpec(cfg["strategy"], cfg["n_copies"], cfg["epsilon"], cfg["beta"])
    row = run_trials(strategy, cfg["alpha"], cfg["trials"], cfg["seed"])
    return 0, {"command": "estimate", "rows": [row]}


def _grid_strategy(axis: str, value: float, cfg: dict):
    if axis == "n_copies":
        if not float(value).is_integer():
            raise InfoCloneError(f"n_copies grid values must be integers, got {value!r}")
        return StrategySpec(cfg["strategy"], int(value), cfg["epsilon"], cfg["beta"])
    if axis == "epsilon":
        if cfg["strategy"] != StrategyKind.NEAR_OPTIMAL.value:
            raise InfoCloneError("an epsilon grid requires --strategy near-optimal")
        return StrategySpec(cfg["strategy"], cfg["n_copies"], value, cfg["beta"])
    # sin_rt axis: map each point onto the strategy that realizes it
    if value == -1.0:
        return StrategySpec(StrategyKind.OPTIMAL, cfg["n_copies"])
    if -1.0 < value < 0.0:
        if 1.0 + value == 1.0:
            raise InfoCloneError(f"sin_rt = {value!r} is too close to 0: epsilon = 1 + sin_rt rounds to 1")
        return StrategySpec(StrategyKind.NEAR_OPTIMAL, cfg["n_copies"], 1.0 + value, cfg["beta"])
    if abs(value - math.sqrt(0.5)) <= 1e-12:
        return StrategySpec(StrategyKind.OFFSET, cfg["n_copies"], beta=cfg["beta"])
    raise InfoCloneError(
        f"sin_rt = {value!r} is not realized by any strategy; "
        "use a value in [-1, 0) or 1/sqrt(2)"
    )


def cmd_sweep(cfg: dict) -> tuple[int, dict]:
    axis, values = cfg["grid_axis"], cfg["grid_values"]
    if axis is None:
        raise InfoCloneError("sweep requires a grid axis (--grid-axis or config grid.axis)")
    if not values:
        raise InfoCloneError("sweep requires a non-empty list of grid values")
    rows = []
    for value in values:
        strategy = _grid_strategy(axis, value, cfg)
        rows.append(run_trials(strategy, cfg["alpha"], cfg["trials"], cfg["seed"]))
    return 0, {"command": "sweep", "axis": axis, "rows": rows}


# ---------------------------------------------------------------------------
# parser and entry points


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file of flag values; flags override it")
    seeding = common.add_mutually_exclusive_group()
    seeding.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, metavar="U64", help="stream seed (default %(default)s)"
    )
    seeding.add_argument(
        "--randomize", action="store_true", help="draw the seed from OS entropy instead of the default"
    )
    common.add_argument("--out", metavar="PATH", help="write the report to this file (default stdout)")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format (default %(default)s)"
    )

    amplitudes = argparse.ArgumentParser(add_help=False)
    amplitudes.add_argument(
        "--alpha", type=_parse_complex_pair, default="1,0", metavar="RE,IM",
        help="held amplitude (default %(default)s)",
    )

    # beta defaults to 0 for transform and oracle and has no default for
    # estimate and sweep; parents share their actions, so each gets its own.
    couplings = argparse.ArgumentParser(add_help=False)
    couplings.add_argument("--couplings", type=_parse_float_list, metavar="R1,R2,...", help="coupling strengths")
    couplings.add_argument("--time", type=float, metavar="T", help="interaction time")
    couplings.add_argument(
        "--beta", type=_parse_complex_pair, default="0,0", metavar="RE,IM",
        help="ancilla amplitude (default %(default)s)",
    )

    strategy = argparse.ArgumentParser(add_help=False)
    strategy.add_argument(
        "--strategy", choices=[k.value for k in StrategyKind], default="optimal",
        help="cloning strategy (default %(default)s)",
    )
    strategy.add_argument(
        "--n-copies", type=int, default=100, metavar="N", help="number of clones (default %(default)s)"
    )
    strategy.add_argument("--epsilon", type=float, metavar="EPS", help="near-optimal detuning in (0, 1)")
    strategy.add_argument(
        "--beta", type=_parse_complex_pair, metavar="RE,IM", help="reference amplitude for offset and near-optimal"
    )
    strategy.add_argument(
        "--trials", type=int, default=100_000, metavar="M", help="Monte Carlo trials (default %(default)s)"
    )

    parser = argparse.ArgumentParser(
        prog="infoclone",
        description="Simulate attenuated cloning of a coherent state and estimate its amplitude.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "transform",
        parents=[common, couplings, amplitudes],
        help="report the amplitude rotation matrix and its action on (alpha, beta, ..., beta)",
    ).set_defaults(run=cmd_transform)
    oracle = sub.add_parser(
        "oracle",
        parents=[common, couplings, amplitudes],
        help="verify the transform against the truncated number-basis evolution",
    )
    oracle.set_defaults(run=cmd_oracle)
    oracle.add_argument(
        "--cutoff", type=int, default=25, metavar="NMAX",
        help="total photon-number cutoff (default %(default)s)",
    )
    sub.add_parser(
        "estimate",
        parents=[common, strategy, amplitudes],
        help="run one Monte Carlo estimation campaign",
    ).set_defaults(run=cmd_estimate)
    sweep = sub.add_parser(
        "sweep",
        parents=[common, strategy, amplitudes],
        help="run one campaign per grid point",
    )
    sweep.set_defaults(run=cmd_sweep)
    sweep.add_argument(
        "--grid-axis", type=_snake_case, choices=("n_copies", "epsilon", "sin_rt"), help="swept parameter (- or _)"
    )
    sweep.add_argument("--grid-values", type=_parse_float_list, metavar="V1,V2,...", help="grid points")
    return parser


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        cfg = resolve_config(argv)
        code, report = cfg["run"](cfg)
        _write_output(render_report(report, cfg["format"]), cfg["out"])
        return code
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if "numpy" in sys.modules and not gc.get_freeze_count():
            gc.freeze()


def console_main() -> None:
    raise SystemExit(main())
