"""Zero-order-hold discretization and closed-loop simulation.

Discretizes the continuous load-frequency model, shows the unstable
open-loop response, then repeats the rollout with the optimal feedback
switched on after an initial uncontrolled window.  Trajectories are
written as CSV for plotting.
"""

import numpy as np

from spilqr import benchmarks, lti, matkit, model_based

np.set_printoptions(precision=4, suppress=True)

A_c, B_c = benchmarks.power_plant_continuous()
print("continuous plant:")
print("A_c =\n", A_c)
print("B_c =\n", B_c.ravel())

sys_d = lti.zoh_discretize(A_c, B_c, T=0.01)
print("\nzero-order hold at T = 0.01 s:")
print("A =\n", sys_d.A)
print("B =\n", sys_d.B.ravel())
print("eigenvalues of A:", np.round(np.linalg.eigvals(sys_d.A), 4))

x0 = benchmarks.POWER_PLANT_X0

# --- open loop: the small unstable mode grows ------------------------------
open_loop = lti.simulate(sys_d, x0, lambda k, x: np.zeros(1), 1000)
norms = np.linalg.norm(open_loop.states, axis=1)
print(f"\nopen loop: |x_0| = {norms[0]:.3f}, |x_500| = {norms[500]:.3f}, "
      f"|x_1000| = {norms[1000]:.3f}  (diverging)")

# --- closed loop after a 5 s uncontrolled window ---------------------------
weights = benchmarks.power_plant_weights()
K = model_based.spi_model_based(sys_d, weights, np.zeros((1, 3)),
                                tol=1e-8).solution.K
print("\nfeedback gain:", K.ravel())
print("closed-loop spectral radius:",
      round(matkit.spectral_radius(sys_d.A - sys_d.B @ K), 4))


def switched_policy(k, x):
    return np.zeros(1) if k < 500 else -K @ x


switched = lti.simulate(sys_d, x0, switched_policy, 2000)
norms = np.linalg.norm(switched.states, axis=1)
print(f"switched loop: |x_500| = {norms[500]:.3f} (end of open window), "
      f"|x_2000| = {norms[2000]:.2e}  (regulated to zero)")

for name, traj in (("open_loop", open_loop), ("switched_loop", switched)):
    path = f"trajectory_{name}.csv"
    table = np.column_stack([
        np.arange(traj.states.shape[0]),
        traj.states,
        np.vstack([traj.inputs, np.full((1, traj.m), np.nan)]),
    ])
    np.savetxt(path, table, delimiter=",", fmt="%.17g",
               header="k,x1,x2,x3,u1", comments="")
    print(f"wrote {path}")
