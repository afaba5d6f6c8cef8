"""Every infoclone command on the stdlib and numpy alone.

Run it with infoclone importable: from a checkout as
`PYTHONPATH=src python tests/import_boundary.py`, or from any directory
against an installed package. It loads the report schema and runs every
command, the oracle at K' = 0, 1 and K among them. It fails if a step
imports a third-party module other than numpy, if importing the CLI or
running `transform --randomize` imports secrets (which pulls in hashlib and
OpenSSL), or if infoclone.fock is reached other than by its own name. It
prints, as one JSON object, the infoclone modules loaded after each step.

Only modules loaded since the interpreter started count, so what .pth files
preload does not, and neither do the spec-less modules numpy's Cython
extensions register.
"""

import sys

start = set(sys.modules)

import json  # noqa: E402
import os  # noqa: E402
from importlib import resources  # noqa: E402

allowed = sys.stdlib_module_names | {"infoclone", "numpy"}
loaded = {}


def step(name):
    """Record the infoclone modules loaded so far; refuse any third-party one but numpy."""
    foreign = sorted({
        n.split(".")[0] for n, module in sys.modules.items()
        if n not in start and getattr(module, "__spec__", None) is not None and n.split(".")[0] not in allowed
    })
    assert not foreign, f"{name} imported {foreign}"
    loaded[name] = sorted(n for n in sys.modules if n.split(".")[0] == "infoclone")


def run(argv):
    assert infoclone.cli.main([*argv, "--out", os.devnull]) == 0, argv


def assert_no_attribute(name):
    try:
        getattr(infoclone, name)
    except AttributeError as exc:
        assert name in str(exc), exc
    else:
        raise AssertionError(f"infoclone.{name} did not raise")


import infoclone  # noqa: E402

step("import infoclone")
import infoclone.cli  # noqa: E402

step("import infoclone.cli")
assert "secrets" not in sys.modules, "import infoclone.cli imported secrets"
json.loads(resources.files("infoclone").joinpath("schemas/report.schema.json").read_text())
run(["transform", "--couplings", "1,1", "--time", "0.5", "--randomize"])
step("transform")
assert "secrets" not in sys.modules, "transform --randomize imported secrets"
run(["estimate", "--trials", "20"])
step("estimate")
run(["sweep", "--grid-axis", "n-copies", "--grid-values", "2,3", "--trials", "20"])
step("sweep")
# infoclone.fock is imported by its own name only
for name in ("no_such_name", "overlap", "truncation_tail"):
    assert_no_attribute(name)
step("infoclone.no_such_name")
for argv in (
    ["oracle", "--couplings", "1", "--time", "1", "--alpha", "0.3,0", "--cutoff", "10"],
    ["oracle", "--couplings", "1", "--time", "1", "--alpha=0.6,0", "--cutoff", "25"],
    # K' = K = 99, 171,700 rows: the oracle over many sector bands
    ["oracle", "--couplings", "1,1", "--time", "1", "--alpha", "4,2", "--beta", "3,2", "--cutoff", "99"],
    # the vacuum, K' = 0: a basis of one row
    ["oracle", "--couplings", "1", "--time", "1", "--alpha=0,0", "--cutoff", "5"],
    # sector 1 weighs 9e-10 and the sectors above it 4e-19, so K' = 1:
    # finding it probes k = 0
    ["oracle", "--couplings", "1", "--time", "1", "--alpha=3e-5,0", "--cutoff", "5"],
):
    run(argv)
step("oracle")
assert_no_attribute("overlap")
print(json.dumps(loaded))
