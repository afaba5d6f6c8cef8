"""Acceptance suite: one test per criterion, each echoed as a PASS/FAIL line."""

import json
import math

import numpy as np
import pytest

from infoclone import (
    CouplingConfig,
    StrategySpec,
    apply_transform,
    build_transform,
    orthogonality_residual,
    run_trials,
)
from infoclone.cli import main
from infoclone.estimation import clone_amplitude, estimate_alpha
from infoclone.fock import overlap
from reference import generator_exponential, measure_clones

ALPHA = "1.5,-0.5"
ALPHA_C = 1.5 - 0.5j
TRIALS = "100000"
SEED = "1234567"
OPTIMAL_STD = math.sqrt(0.5)


@pytest.fixture(scope="module")
def cli_runner(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    counter = {"n": 0}

    def run(*args: str) -> tuple[int, bytes]:
        counter["n"] += 1
        out = base / f"report_{counter['n']}.out"
        code = main([*args, "--out", str(out)])
        return code, (out.read_bytes() if out.exists() else b"")

    return run


def rows_of(report_bytes: bytes) -> list[dict]:
    return json.loads(report_bytes.decode("utf-8"))["rows"]


@pytest.fixture(scope="module")
def optimal_row(cli_runner):
    code, out = cli_runner(
        "estimate", "--strategy", "optimal", "--n-copies", "100",
        "--alpha", ALPHA, "--trials", TRIALS, "--seed", SEED,
    )
    assert code == 0
    return rows_of(out)[0]


@pytest.fixture(scope="module")
def offset_row(cli_runner):
    code, out = cli_runner(
        "estimate", "--strategy", "offset", "--n-copies", "100", "--beta", "50,0",
        "--alpha", ALPHA, "--trials", TRIALS, "--seed", SEED,
    )
    assert code == 0
    return rows_of(out)[0]


@pytest.fixture(scope="module")
def near_optimal_rows(cli_runner):
    code, out = cli_runner(
        "sweep", "--strategy", "near-optimal", "--n-copies", "100", "--beta", "50,0",
        "--grid-axis", "epsilon", "--grid-values", "0.05,0.1,0.2",
        "--alpha", ALPHA, "--trials", TRIALS, "--seed", SEED,
    )
    assert code == 0
    return {row["epsilon"]: row for row in rows_of(out)}


def test_criterion_1_optimal_variance(acceptance, optimal_row):
    std_re, std_im = optimal_row["std_re"], optimal_row["std_im"]
    ok = (
        abs(std_re / OPTIMAL_STD - 1.0) <= 0.015
        and abs(std_im / OPTIMAL_STD - 1.0) <= 0.015
    )
    acceptance(
        1,
        "optimal strategy: per-quadrature std 1/sqrt(2) within 1.5% (N=100, 1e5 trials)",
        ok,
        f"std_re={std_re:.5f} std_im={std_im:.5f} target={OPTIMAL_STD:.5f}",
    )


def test_criterion_2_error_independent_of_copies(acceptance, cli_runner):
    code, out = cli_runner(
        "sweep", "--strategy", "optimal", "--grid-axis", "n-copies",
        "--grid-values", "10,100,1000", "--alpha", ALPHA,
        "--trials", TRIALS, "--seed", SEED,
    )
    assert code == 0
    rows = rows_of(out)
    ok = True
    for key in ("std_re", "std_im"):
        values = [row[key] for row in rows]
        ok = ok and max(values) / min(values) <= 1.03
    acceptance(
        2,
        "optimal strategy error independent of clone count (N=10,100,1000 within 3%)",
        ok,
        "std_re=" + "/".join(f"{row['std_re']:.5f}" for row in rows),
    )


def test_criterion_3_unbiasedness(acceptance, optimal_row, offset_row, near_optimal_rows):
    bound = 5.0 * OPTIMAL_STD / math.sqrt(float(TRIALS))
    worst = 0.0
    for row in (optimal_row, offset_row, near_optimal_rows[0.1]):
        worst = max(
            worst,
            abs(row["mean_re"] - ALPHA_C.real),
            abs(row["mean_im"] - ALPHA_C.imag),
        )
    acceptance(
        3,
        "estimator unbiased for all three strategies (mean within 5 sigma of truth)",
        worst <= bound,
        f"worst deviation {worst:.5f} vs bound {bound:.5f}",
    )


def test_criterion_4_offset_variance(acceptance, offset_row):
    std_re, std_im = offset_row["std_re"], offset_row["std_im"]
    ok = abs(std_re - 1.0) <= 0.015 and abs(std_im - 1.0) <= 0.015
    acceptance(
        4,
        "offset strategy: per-quadrature std 1 within 1.5% (beta=50, N=100)",
        ok,
        f"std_re={std_re:.5f} std_im={std_im:.5f}",
    )


def test_criterion_5_near_optimal_factor(acceptance, near_optimal_rows):
    target = OPTIMAL_STD / 0.9
    row = near_optimal_rows[0.1]
    ok = (
        abs(row["std_re"] / target - 1.0) <= 0.02
        and abs(row["std_im"] / target - 1.0) <= 0.02
    )
    expected_ratio = (1.0 - 0.05) / (1.0 - 0.2)
    details = [f"std(eps=0.1)={row['std_re']:.5f}/{row['std_im']:.5f} target={target:.5f}"]
    for key in ("std_re", "std_im"):
        ratio = near_optimal_rows[0.2][key] / near_optimal_rows[0.05][key]
        ok = ok and abs(ratio / expected_ratio - 1.0) <= 0.03
        details.append(f"ratio[{key}]={ratio:.4f} target={expected_ratio:.4f}")
    acceptance(
        5,
        "near-optimal spread grows by 1/(1-eps): value at eps=0.1 within 2%, eps ratio within 3%",
        ok,
        " ".join(details),
    )


# Criteria 1, 3, 4 and 5 with their tolerances, on seeds fixed in advance.
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_statistical_criteria_on_several_seeds(seed):
    trials = int(TRIALS)
    def campaign(*strategy, **options):
        return run_trials(StrategySpec(*strategy, **options), ALPHA_C, trials, seed)

    optimal = campaign("optimal", 100)
    offset = campaign("offset", 100, beta=50.0)
    near = {eps: campaign("near-optimal", 100, epsilon=eps, beta=50.0) for eps in (0.05, 0.1, 0.2)}
    for std in (optimal["std_re"], optimal["std_im"]):
        assert abs(std / OPTIMAL_STD - 1.0) <= 0.015
    bound = 5.0 * OPTIMAL_STD / math.sqrt(trials)
    for row in (optimal, offset, near[0.1]):
        assert abs(row["mean_re"] - ALPHA_C.real) <= bound
        assert abs(row["mean_im"] - ALPHA_C.imag) <= bound
    for std in (offset["std_re"], offset["std_im"]):
        assert abs(std - 1.0) <= 0.015
    target = OPTIMAL_STD / 0.9
    expected_ratio = (1.0 - 0.05) / (1.0 - 0.2)
    for key in ("std_re", "std_im"):
        assert abs(near[0.1][key] / target - 1.0) <= 0.02
        ratio = near[0.2][key] / near[0.05][key]
        assert abs(ratio / expected_ratio - 1.0) <= 0.03


# Criteria 2 and 5 with their tolerances, on the per-clone reference. The
# CLI's sweep rows share draws, so there the ratios are exact by
# construction; here every campaign has its own seed, fixed in advance.
def test_copy_and_epsilon_dependence_on_independent_draws():
    trials = 20000

    def spread(seed, *strategy, **options):
        spec = StrategySpec(*strategy, **options)
        gamma = clone_amplitude(spec, ALPHA_C)
        estimates = estimate_alpha(*measure_clones(gamma, spec.n_copies, trials, seed), spec)
        return np.array([estimates.real.std(ddof=1), estimates.imag.std(ddof=1)])

    optimal = np.array([spread(611 + i, "optimal", n) for i, n in enumerate((10, 100, 1000))])
    assert np.all(optimal.max(axis=0) / optimal.min(axis=0) <= 1.03), optimal
    near = {
        eps: spread(seed, "near-optimal", 100, epsilon=eps, beta=50.0)
        for eps, seed in ((0.05, 614), (0.2, 615))
    }
    expected_ratio = (1.0 - 0.05) / (1.0 - 0.2)
    ratio = near[0.2] / near[0.05]
    assert np.all(np.abs(ratio / expected_ratio - 1.0) <= 0.03), ratio


def test_criterion_6_group_average_distribution(acceptance):
    n, trials = 100, 100000
    gamma = ALPHA_C / math.sqrt(n)
    ys, _ = measure_clones(gamma, n, trials, seed=606)
    expected_mean = math.sqrt(2.0 / n) * ALPHA_C.real
    se = (1.0 / math.sqrt(n)) / math.sqrt(trials)
    mean_ok = abs(ys.mean() - expected_mean) <= 3.0 * se
    std = ys.std(ddof=1)
    std_ok = abs(std * math.sqrt(n) - 1.0) <= 0.03
    acceptance(
        6,
        "group averages: mean sqrt(2/N)*Re(alpha) within 3 SE, std 1/sqrt(N) within 3%",
        mean_ok and std_ok,
        f"mean={ys.mean():.6f} target={expected_mean:.6f} std={std:.6f} target={1 / math.sqrt(n):.6f}",
    )


def test_criterion_7_transform_structure(acceptance):
    rng = np.random.default_rng(707)
    worst_ortho = worst_expm = worst_group = worst_norm = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        while True:
            r = rng.uniform(-2.0, 2.0, size=n)
            if np.any(r != 0.0):
                break
        t1 = float(rng.uniform(-10.0, 10.0))
        t2 = float(rng.uniform(-10.0, 10.0))
        u1 = build_transform(CouplingConfig(r, t1))
        worst_ortho = max(worst_ortho, orthogonality_residual(u1))
        worst_expm = max(worst_expm, float(np.abs(u1 - generator_exponential(r, t1)).max()))

        u2 = build_transform(CouplingConfig(r, t2))
        u12 = build_transform(CouplingConfig(r, t1 + t2))
        worst_group = max(worst_group, float(np.abs(u1 @ u2 - u12).max()))

        v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        total = float(np.sum(np.abs(v) ** 2))
        after = float(np.sum(np.abs(apply_transform(u1, v)) ** 2))
        worst_norm = max(worst_norm, abs(after - total) / total)
    ok = (
        worst_ortho <= 1e-12
        and worst_expm <= 1e-10
        and worst_group <= 1e-10
        and worst_norm <= 1e-12
    )
    acceptance(
        7,
        "1000 random transforms: orthogonality 1e-12, exponential match 1e-10, "
        "group law 1e-10, norm conservation 1e-12",
        ok,
        f"ortho={worst_ortho:.2e} expm={worst_expm:.2e} group={worst_group:.2e} norm={worst_norm:.2e}",
    )


def test_criterion_8_disentanglement_oracle(acceptance):
    rng = np.random.default_rng(808)
    worst = 1.0

    def random_amplitude():
        return complex(rng.uniform(-0.56, 0.56), rng.uniform(-0.56, 0.56))

    for _ in range(50):
        r = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        cfg = CouplingConfig([r], float(rng.uniform(-3.0, 3.0)))
        amps = [random_amplitude(), random_amplitude()]
        predicted = apply_transform(build_transform(cfg), amps)
        worst = min(worst, overlap(amps, predicted, cfg, 25)[1])
    for _ in range(10):
        while True:
            r = rng.uniform(-1.5, 1.5, size=2)
            if np.any(r != 0.0):
                break
        cfg = CouplingConfig(r, float(rng.uniform(-2.0, 2.0)))
        amps = [random_amplitude() for _ in range(3)]
        predicted = apply_transform(build_transform(cfg), amps)
        worst = min(worst, overlap(amps, predicted, cfg, 12)[1])
    acceptance(
        8,
        "evolved coherent products match the predicted products "
        "(fidelity >= 0.999 over 50 one-ancilla and 10 two-ancilla cases)",
        worst >= 0.999,
        f"worst fidelity {worst:.12f}",
    )


def test_criterion_9_reproducibility(acceptance, cli_runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"strategy": "offset", "beta": [50.0, 0.0], "trials": 400}))
    invocations = [
        ("transform", "--couplings", "1,1", "--time", "0.7"),
        ("oracle", "--couplings", "1", "--time", "1.1", "--alpha", "0.4,0.3", "--cutoff", "15"),
        ("estimate", "--trials", "500", "--seed", "77"),
        ("estimate", "--config", str(config), "--seed", "77"),
        ("estimate", "--trials", "500", "--seed", "77", "--format", "csv"),
        ("sweep", "--grid-axis", "n-copies", "--grid-values", "10,20", "--trials", "300"),
        ("sweep", "--grid-axis", "n-copies", "--grid-values", "10,20", "--trials", "300",
         "--format", "csv"),
    ]
    ok = True
    for argv in invocations:
        code_a, first = cli_runner(*argv)
        code_b, second = cli_runner(*argv)
        ok = ok and code_a == code_b and first == second and first != b""
    acceptance(
        9,
        "identical settings and seed reproduce identical output bytes for every subcommand",
        ok,
    )
