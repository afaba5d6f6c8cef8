"""Run one infoclone CLI invocation in a fresh interpreter and report on it.

Usage: python3 bench/child.py MODE ARGV...   (MODE is "plain" or "trace")

The CLI writes its report to stdout as usual. The last line on stderr is
RECORD_TAG followed by a JSON record: the CLOCK_MONOTONIC time at which
``infoclone.cli`` finished importing (the parent took the spawn time on the
same clock), the exit code, the peak RSS and, in trace mode, the span
summary and counters. Nothing else is imported before the package, so the
import time is the interpreter start plus the package's own imports.
"""

import sys
import time

from infoclone import cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

RECORD_TAG = "\x1ebench-record "


def _arg(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _count_samples(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 1, "n_copies")
    if isinstance(n, int):
        tracer.counters["samples"] += n


def _count_trials(tracer, args, kwargs, result):
    m = _arg(args, kwargs, 2, "n_trials")
    if isinstance(m, int):
        tracer.counters["trials"] += m


def _count_state(tracer, args, kwargs, result):
    amplitudes = getattr(result, "amplitudes", None)
    if amplitudes is not None:
        tracer.counters["state_bytes"] += amplitudes.nbytes
        tracer.counters["state_size"] = max(tracer.counters["state_size"], amplitudes.size)


def _count_generator(tracer, args, kwargs, result):
    nnz = getattr(_arg(args, kwargs, 0, "A"), "nnz", None)
    if nnz is not None:
        tracer.counters["generator_nnz"] = max(tracer.counters["generator_nnz"], nnz)


def install(tracer) -> None:
    """Wrap the module attributes through which the layers call each other."""
    import importlib

    def module(name):
        try:
            return importlib.import_module(f"infoclone.{name}")
        except ImportError:
            return None

    estimation, measurement, fock = module("estimation"), module("measurement"), module("fock")
    wraps = [
        (cli, "resolve_config", "cli.resolve_config", None),
        (cli, "render_report", "cli.render_report", None),
        (cli, "run_trials", "estimation.run_trials", _count_trials),
        (cli, "make_strategy", "transform.make_strategy", None),
        (cli, "build_transform", "transform.build_transform", None),
        (cli, "product_state", "fock.product_state", _count_state),
        (cli, "evolve", "fock.evolve", _count_state),
        (cli, "fidelity", "fock.fidelity", None),
        (estimation, "measure_clones", "measurement.measure_clones", _count_samples),
        (measurement, "substream", "measurement.substream", None),
        (fock, "expm_multiply", "fock.expm_multiply", _count_generator),
    ]
    for module, attr, name, on_call in wraps:
        tracer.wrap(module, attr, name, on_call)


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    record = {"imported": IMPORTED}
    if mode == "trace":
        from spans import Tracer, summarize

        tracer = Tracer()
        install(tracer)
        code = tracer.call("cli.main", cli.main, argv)
        record["spans"] = summarize(tracer.spans)
        record["counters"] = dict(tracer.counters)
    else:
        code = cli.main(argv)
    sys.stdout.flush()
    record["code"] = code
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("\n" + RECORD_TAG + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
