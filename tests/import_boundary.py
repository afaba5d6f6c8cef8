"""Every infoclone command on the stdlib and numpy alone, each loading only what it runs.

Run it with infoclone importable: from a checkout as
`PYTHONPATH=src python tests/import_boundary.py`, or from any directory
against an installed package. It loads the report schema and runs every
command, the oracle at K' = 0, 1 and K among them, then one CSV report and
one config file. It fails if
- a step imports a third-party module other than numpy, numpy.random (nine
  extension modules and about 5 MB, which the campaigns' own Philox stream
  replaces), or dataclasses (which pulls in copy);
- `import infoclone` imports numpy, infoclone.estimation or infoclone.fock;
- `import infoclone.cli`, `--help`, a usage error or a config error imports
  numpy;
- a JSON report imports csv;
- importing the CLI or running `transform --randomize` imports secrets
  (which pulls in hashlib and OpenSSL), or infoclone.fock is reached other
  than by its own name;
- importing the CLI, `--help`, a usage error or a config error freezes the
  garbage collector, the first command does not freeze it (or disables it),
  or freezes it before numpy's import, or a later command freezes it again.
It prints, as one JSON object, the infoclone modules loaded after each step.

Only modules loaded since the interpreter started count, so what .pth files
preload does not, and neither do the spec-less modules numpy's Cython
extensions register.
"""

import sys

start = set(sys.modules)

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import tempfile  # noqa: E402
from importlib import resources  # noqa: E402

allowed = sys.stdlib_module_names | {"infoclone", "numpy"}
loaded = {}


def absent(module):
    return module in start or module not in sys.modules


def step(name, csv=False):
    """Record the infoclone modules loaded so far; refuse any third-party one
    but numpy, numpy.random and dataclasses, and, unless the step wrote CSV,
    csv."""
    foreign = sorted({
        n.split(".")[0] for n, module in sys.modules.items()
        if n not in start and getattr(module, "__spec__", None) is not None and n.split(".")[0] not in allowed
    })
    assert not foreign, f"{name} imported {foreign}"
    assert absent("numpy.random"), f"{name} imported numpy.random"
    assert absent("dataclasses"), f"{name} imported dataclasses"
    assert csv or absent("csv"), f"{name} imported csv"
    loaded[name] = sorted(n for n in sys.modules if n.split(".")[0] == "infoclone")


def run(argv):
    assert infoclone.cli.main([*argv, "--out", os.devnull]) == 0, argv


def refused(argv, code):
    """Run argv, which must exit with code before any command computes."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert infoclone.cli.main(argv) == code, argv
    assert absent("numpy"), f"{argv} imported numpy"
    assert gc.get_freeze_count() == 0, f"{argv} froze the garbage collector"


def assert_no_attribute(name):
    try:
        getattr(infoclone, name)
    except AttributeError as exc:
        assert name in str(exc), exc
    else:
        raise AssertionError(f"infoclone.{name} did not raise")


import infoclone  # noqa: E402

step("import infoclone")
assert absent("numpy"), "import infoclone imported numpy"
heavy = {"infoclone.estimation", "infoclone.fock"} & set(loaded["import infoclone"])
assert not heavy, f"import infoclone imported {sorted(heavy)}"
import infoclone.cli  # noqa: E402

step("import infoclone.cli")
assert "secrets" not in sys.modules, "import infoclone.cli imported secrets"
assert absent("numpy"), "import infoclone.cli imported numpy"
assert gc.get_freeze_count() == 0, "import infoclone.cli froze the garbage collector"
json.loads(resources.files("infoclone").joinpath("schemas/report.schema.json").read_text())
refused(["--help"], 0)
refused(["estimate", "--trials", "many"], 2)
with tempfile.TemporaryDirectory() as tmp:
    config = os.path.join(tmp, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"command": "estimate", "no_such_key": 1}, fh)
    refused(["estimate", "--config", config], 2)
run(["transform", "--couplings", "1,1", "--time", "0.5", "--randomize"])
frozen = gc.get_freeze_count()
assert frozen > 0 and gc.isenabled(), f"main left {frozen} objects frozen, collector enabled: {gc.isenabled()}"
# the freeze came after numpy's import: no module of numpy is left in the
# collector's generations
tracked = {id(obj) for obj in gc.get_objects()}
left = sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "numpy" and id(module) in tracked)
assert not left, f"main froze the garbage collector before numpy's import: {len(left)} numpy modules left tracked"
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
run(["estimate", "--trials", "20", "--format", "csv"])
step("--format csv", csv=True)
with tempfile.TemporaryDirectory() as tmp:
    config = os.path.join(tmp, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"command": "estimate", "alpha": [1.5, -0.5], "trials": 20}, fh)
    run(["estimate", "--config", config])
step("--config", csv=True)
# a frozen object that dies leaves the count, as the first run's argv did;
# only a second freeze can raise it
assert gc.get_freeze_count() <= frozen, f"later commands froze {gc.get_freeze_count() - frozen} more objects"
print(json.dumps(loaded))
