import dataclasses
import json

import numpy as np
import pytest

from cdf_lab import (FluidParams, HeatParams, cli, fluid_model, heat_model,
                     sign_flipped_heat_model)


@pytest.fixture(scope="session")
def heat():
    return heat_model(HeatParams())


@pytest.fixture(scope="session")
def heat_params():
    return HeatParams()


@pytest.fixture(scope="session")
def fluid():
    return fluid_model(FluidParams())


@pytest.fixture(scope="session")
def fluid_params():
    return FluidParams()


@pytest.fixture(scope="session")
def broken_heat():
    return sign_flipped_heat_model(HeatParams())


def random_heat_states(n, seed=0, u_range=(0.5, 2.0), w_range=(-1.0, 1.0)):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(*u_range, n),
                            rng.uniform(*w_range, n)])


def random_fluid_states(model, n, seed=0):
    rng = np.random.default_rng(seed)
    box = model.sample_box
    draws = rng.uniform(box[:, 0], box[:, 1], size=(n, box.shape[0]))
    return model.from_sample(draws)


def fluid_pulse_scenario(params, n_cells, t_end, cfl=0.45):
    """The `cdf-lab run` scenario of the `fns-sine` preset: a smooth
    periodic temperature bump of amplitude 0.05 on [0, 2], the heat-flux
    conjugate on its stationary closure, no stress and no velocity; one
    output at t_end."""
    return cli.build_scenario(cli.parse_config(json.dumps({
        "command": "run", "model": "fluid",
        "params": dataclasses.asdict(params),
        "scenario": {"n_cells": n_cells, "t_end": t_end, "x_max": 2.0,
                     "cfl": cfl,
                     "initial": {"preset": "fns-sine", "amplitude": 0.05}}})))
