"""Benchmark plants and random test-system generators.

The fixed benchmark is a three-state load-frequency power plant
(governor, turbine, generator) whose open-loop discretization at 10 ms
is slightly unstable, which makes it a good stress case for solvers
that must start from a non-stabilizing gain.
"""

import numpy as np

from .lti import CostWeights, LinearSystem, zoh_discretize
from .matkit import spectral_radius

__all__ = [
    "power_plant_continuous", "power_plant", "power_plant_weights",
    "POWER_PLANT_X0", "POWER_PLANT_SAMPLE_TIME",
    "random_controllable_system", "random_destabilizing_gain",
]

POWER_PLANT_SAMPLE_TIME = 0.01
POWER_PLANT_X0 = np.array([0.1, 0.1, 0.2])
RANDOM_N_CHOICES = (2, 3, 4)
RANDOM_M_CHOICES = (1, 2)
RANDOM_PLANT_RHO = (0.4, 1.15)
RANDOM_GAIN_RHO = (0.5, 3.0)
RANDOM_GAIN_TRIES = 200


def power_plant_continuous(T_g=0.08, T_t=0.1, T_p=20.0, R_g=2.5,
                           K_p=120.0, K_t=1.0):
    """Continuous-time load-frequency model ``(A_c, B_c)``.

    States: governor valve position increment, turbine output
    increment, frequency deviation.  The control input acts through
    the turbine channel with gain ``1 / T_g``.
    """
    A_c = np.array([
        [-1.0 / T_g, 0.0, 1.0 / (R_g * T_g)],
        [K_t / T_t, -1.0 / T_t, 0.0],
        [0.0, K_p / T_p, -1.0 / T_p],
    ])
    B_c = np.array([[0.0], [1.0 / T_g], [0.0]])
    return A_c, B_c


def power_plant(T=POWER_PLANT_SAMPLE_TIME):
    """Zero-order-hold discretization of the load-frequency model."""
    A_c, B_c = power_plant_continuous()
    return zoh_discretize(A_c, B_c, T)


def power_plant_weights():
    """Unit state and input weights for the benchmark."""
    return CostWeights(Q=np.eye(3), R=np.eye(1))


def random_controllable_system(rng):
    """Random controllable plant, sizes from ``RANDOM_N_CHOICES`` and
    ``RANDOM_M_CHOICES``, open-loop spectral radius from ``RANDOM_PLANT_RHO``.

    The radius cap keeps open-loop probing trajectories well enough
    conditioned for data-driven solves.
    """
    from .lti import is_controllable
    while True:
        n = int(rng.choice(RANDOM_N_CHOICES))
        m = int(rng.choice(RANDOM_M_CHOICES))
        A = rng.standard_normal((n, n))
        rho = spectral_radius(A)
        if rho < 1e-9:
            continue
        A *= rng.uniform(*RANDOM_PLANT_RHO) / rho
        B = rng.standard_normal((n, m))
        sys = LinearSystem(A, B)
        if is_controllable(sys):
            return sys


def random_destabilizing_gain(rng, sys):
    """Random starting gain whose closed loop has spectral radius inside
    ``RANDOM_GAIN_RHO`` (typically destabilizing)."""
    G = rng.standard_normal((sys.m, sys.n))
    for _ in range(RANDOM_GAIN_TRIES):
        K0 = rng.uniform(0.0, 6.0) * G
        rho = spectral_radius(sys.A - sys.B @ K0)
        if RANDOM_GAIN_RHO[0] <= rho <= RANDOM_GAIN_RHO[1]:
            return K0
    raise RuntimeError("could not place the closed-loop radius in range")
