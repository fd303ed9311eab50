"""Shared fixtures: a fixed 5-observation toy model and a small synthetic fit."""
import multiprocessing
import os

import numpy as np
import pytest

from racemix.ingest import RaceContext, RaceObservation, build_design
from racemix.model import McmcSchedule, ModelConfig, ParameterState
from racemix.predictive import SyntheticSpec, simulate_dataset
from racemix.sampler import run_chain

TOY_OBSERVATIONS = [
    RaceObservation("A1", "Alnwick", "17/18", 47.5, "2017-10"),
    RaceObservation("A2", "Alnwick", "17/18", 46.1, "2017-10"),
    RaceObservation("A3", "Alnwick", "17/18", 52.9, "2017-10"),
    RaceObservation("A1", "Birtley", "18/19", 44.2, "2018-11"),
    RaceObservation("A2", "Birtley", "18/19", 49.7, "2018-11"),
]

TOY_CONTEXTS = [
    RaceContext("Alnwick", "17/18", 6.2, 5.0, "2017-10"),
    RaceContext("Birtley", "18/19", 5.9, 12.0, "2018-11"),
]

TOY_RAINFALL = {"2017-09": 80.0, "2017-10": 55.0, "2018-10": 95.0, "2018-11": 62.0}


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process running, such as a chain pool
    worker or diagnose's forked worker; the process is then ended."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.terminate()
        process.join(10)
    assert not left, f"processes left running: {left}"


def set_usable_cpus(monkeypatch, n):
    """Make racemix.predictive.usable_cpus() return n."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def make_toy_design(response="log_time", include_windspeed=False):
    config = ModelConfig(response=response, include_windspeed=include_windspeed)
    return build_design(TOY_OBSERVATIONS, TOY_CONTEXTS, TOY_RAINFALL, config)


def make_toy_state(include_windspeed=False) -> ParameterState:
    return ParameterState(
        intercept=3.85,
        athlete_effects=np.array([0.0, 0.04, -0.06]),
        course_effects=np.array([0.0, 0.03]),
        season_effects=np.array([0.0, 0.02]),
        gamma_dist=0.2,
        rho_cur=0.0015,
        rho_prev=0.0008,
        m_rho=0.001,
        phi=0.8,
        tau_obs=150.0,
        tau_athlete=30.0,
        tau_course=120.0,
        tau_season=400.0,
        lambda_wind=0.003 if include_windspeed else None,
    )


@pytest.fixture
def toy_design():
    return make_toy_design()


@pytest.fixture
def toy_state():
    return make_toy_state()


@pytest.fixture(scope="session")
def small_sim():
    """A small but identifiable synthetic dataset (about 500 observations)."""
    spec = SyntheticSpec(n_athletes=60, n_courses=6, n_seasons=3, n_races=12,
                         mean_finishers=40, seed=20)
    return simulate_dataset(spec)


@pytest.fixture(scope="session")
def small_fit(small_sim):
    """A chain fitted to small_sim; shared by diagnostics/predictive tests."""
    config = ModelConfig(mcmc=McmcSchedule(burn_in=1000, iterations=8000,
                                           thin=4, seed=77))
    design = build_design(small_sim.observations, small_sim.contexts,
                          small_sim.rainfall, config)
    chain = run_chain(design, config)
    return design, config, chain
