"""Workload definitions and input generation for the racemix benchmark.

Every workload is a closed loop run from one process: each `racemix`
command starts only after the previous one has finished.  Inputs come
from `simulate_dataset`, seeded by the workload seed, so the same seed
gives byte-identical CSVs.  The same seed is passed to `racemix fit`
and `racemix ppc`.

Both kept workloads fit two chains with the default worker pool, so the
pool and the cross-chain diagnostics run on each of them.  The data stay
at league scale (about 2,500 observations): below OpenBLAS's threading
threshold for dot products, so two chain processes fit on two cores.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

# parameters whose 95% intervals are checked against the generating truth
COVERAGE_PARAMETERS = ("tau_obs", "gamma_dist", "tau_athlete")


@dataclass(frozen=True)
class Workload:
    name: str
    burn_in: int
    iterations: int
    thin: int
    chains: int = 2

    @property
    def sweeps(self) -> int:
        return self.burn_in + self.iterations

    def schedule_args(self) -> list[str]:
        return ["--burn-in", str(self.burn_in), "--iterations", str(self.iterations),
                "--thin", str(self.thin), "--chains", str(self.chains)]


# why each workload is here is said once, in BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload(name="league", burn_in=500, iterations=25_000, thin=25),
        Workload(name="posthoc", burn_in=500, iterations=2_500, thin=1),
    )
}

# a few seconds per workload: every command and every check.  Shorter
# chains than this do not always span gamma_dist's posterior, and the
# coverage check then fails on a correct sampler.
SMOKE_SCHEDULE = {"burn_in": 2_000, "iterations": 2_000, "thin": 4}


def smoke(workload: Workload) -> Workload:
    return Workload(name=workload.name, chains=workload.chains,
                    **SMOKE_SCHEDULE)


def make_inputs(directory: str, seed: int) -> dict:
    """Simulate the league dataset for `seed` into `directory`.

    Returns the input paths, the observation count and the generating
    truth (also written as truth.json next to the CSVs).
    """
    from racemix.predictive import SyntheticSpec, simulate_dataset

    data = simulate_dataset(SyntheticSpec(seed=seed))
    data.write_csv(directory)
    truth = data.truth.to_dict()
    with open(os.path.join(directory, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump({"truth": truth, "seed": seed}, fh, indent=2, sort_keys=True)
    counts: dict[tuple[str, str], int] = {}
    for o in data.observations:
        counts[(o.course, o.season)] = counts.get((o.course, o.season), 0) + 1
    return {
        "data": os.path.join(directory, "results.csv"),
        "covariates": os.path.join(directory, "races.csv"),
        "rainfall": os.path.join(directory, "rainfall.csv"),
        "sex": data.sex,
        "n_obs": len(data.observations),
        "race_counts": counts,
        "truth": truth,
    }


def fit_args(inputs: dict, workload: Workload, seed: int, out_dir: str) -> list[str]:
    return ["fit", "--data", inputs["data"], "--covariates", inputs["covariates"],
            "--rainfall", inputs["rainfall"], "--sex", inputs["sex"],
            *workload.schedule_args(), "--seed", str(seed), "--out", out_dir]


def setup_args(inputs: dict, out_dir: str) -> list[str]:
    """The two-draw fit whose wall time is setup_s."""
    return ["fit", "--data", inputs["data"], "--covariates", inputs["covariates"],
            "--rainfall", inputs["rainfall"], "--sex", inputs["sex"],
            "--burn-in", "0", "--iterations", "2", "--thin", "1", "--out", out_dir]


def post_fit_args(fit_dir: str, seed: int) -> list[tuple[str, list[str]]]:
    """The three commands run on a fit directory, in pipeline order."""
    return [("summarize", ["summarize", "--fit", fit_dir]),
            ("ppc", ["ppc", "--fit", fit_dir, "--seed", str(seed)]),
            ("diagnose", ["diagnose", "--fit", fit_dir])]
