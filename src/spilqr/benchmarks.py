"""The benchmark plant: a three-state load-frequency power plant
(governor, turbine, generator) whose open-loop discretization at 10 ms
is slightly unstable, which makes it a good stress case for solvers
that must start from a non-stabilizing gain.
"""

import numpy as np

from .lti import CostWeights, zoh_discretize

__all__ = [
    "power_plant_continuous", "power_plant", "power_plant_weights",
    "POWER_PLANT_X0", "POWER_PLANT_SAMPLE_TIME",
]

POWER_PLANT_SAMPLE_TIME = 0.01
POWER_PLANT_X0 = np.array([0.1, 0.1, 0.2])


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
