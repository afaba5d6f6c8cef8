"""Seeded workload generators: each operation is one ``infoclone`` argv.

Inputs come only from the benchmark seed, through :class:`random.Random`,
so the same seed gives the same sequence of operations. Complex values are
passed as ``--alpha=RE,IM``: the two-token form ``--alpha -0.8,1.1`` makes
argparse read the value as an unknown option and exit 2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

# Sweep grid of the sweep_grid workload; the points share every other input.
SWEEP_EPSILONS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6)
ORACLE_CUTOFF = 60
AMPLITUDE_RADIUS = 2.0
CAMPAIGN_TRIALS = 5000


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the inputs the correctness gate needs.

    ``sin_rts`` holds one sin(R*t) per report row of a campaign; ``work`` is
    trials x grid points for a campaign and 0 for an oracle check.
    """

    argv: tuple[str, ...]
    command: str
    alpha: complex
    beta: complex
    n_copies: int = 0
    trials: int = 0
    sin_rts: tuple[float, ...] = ()
    couplings: tuple[float, ...] = ()

    @property
    def work(self) -> int:
        return self.trials * len(self.sin_rts)


def _pair(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _amplitude(rng: random.Random) -> complex:
    """Uniform draw from the disc |z| <= AMPLITUDE_RADIUS, rounded to 1e-6."""
    radius = AMPLITUDE_RADIUS * math.sqrt(rng.random())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(round(radius * math.cos(angle), 6), round(radius * math.sin(angle), 6))


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def estimate_wide(rng: random.Random, trials: int = CAMPAIGN_TRIALS) -> Op:
    alpha, beta, seed = _amplitude(rng), _amplitude(rng), _cli_seed(rng)
    n_copies = 10_000
    argv = (
        "estimate", "--strategy", "offset", "--n-copies", str(n_copies),
        "--trials", str(trials), f"--alpha={_pair(alpha)}", f"--beta={_pair(beta)}",
        "--seed", str(seed),
    )
    return Op(argv, "estimate", alpha, beta, n_copies, trials, (math.sqrt(0.5),))


def sweep_grid(rng: random.Random, trials: int = CAMPAIGN_TRIALS) -> Op:
    alpha, beta, seed = _amplitude(rng), _amplitude(rng), _cli_seed(rng)
    n_copies = 3  # odd on purpose: the clones split 2/1 between the quadratures
    argv = (
        "sweep", "--strategy", "near-optimal", "--n-copies", str(n_copies),
        "--grid-axis", "epsilon", "--grid-values", ",".join(map(str, SWEEP_EPSILONS)),
        "--trials", str(trials), f"--alpha={_pair(alpha)}", f"--beta={_pair(beta)}",
        "--seed", str(seed),
    )
    sin_rts = tuple(-1.0 + eps for eps in SWEEP_EPSILONS)
    return Op(argv, "sweep", alpha, beta, n_copies, trials, sin_rts)


def oracle_check(rng: random.Random, cutoff: int = ORACLE_CUTOFF) -> Op:
    """Two ancillas; R*t = pi/4 and sum |a|^2 <= 12 < cutoff/4."""
    couplings = (round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(0.5, 1.5), 6))
    time = math.pi / (4.0 * math.hypot(*couplings))
    alpha, beta, seed = _amplitude(rng), _amplitude(rng), _cli_seed(rng)
    argv = (
        "oracle", "--couplings", ",".join(map(repr, couplings)), "--time", repr(time),
        f"--alpha={_pair(alpha)}", f"--beta={_pair(beta)}", "--cutoff", str(cutoff),
        "--seed", str(seed),
    )
    return Op(argv, "oracle", alpha, beta, couplings=couplings)


WORKLOADS: dict[str, Callable[..., Op]] = {
    "estimate_wide": estimate_wide,
    "sweep_grid": sweep_grid,
    "oracle_check": oracle_check,
}


def operations(workload: str, seed: int) -> Iterator[Op]:
    """Endless, deterministic sequence of operations for one workload and seed."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)


def warmup(workload: str, seed: int) -> Op:
    """A small operation on the same code path, run once before timing.

    It pays .pyc compilation and fills the file cache; it is not recorded.
    """
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}:warmup")
    if workload == "oracle_check":
        return make(rng, cutoff=48)
    return make(rng, trials=20)
