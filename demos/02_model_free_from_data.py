"""Data-driven scaling policy iteration: the solver sees only recorded
states and inputs, never the plant matrices.

One short trajectory is collected under a sum-of-sinusoids probing
input.  Every policy evaluation becomes a least-squares regression on
that data; the scaling divisor is found by probing for a positive
definite value matrix, and the inflation factors come from a
headroom that the data certify: the pencil of the gate ``P - Q - K'RK``
and ``P`` bounds the radius of the next scaled loop.
"""

import numpy as np

from spilqr import benchmarks, lti, matkit, model_based, model_free

np.set_printoptions(precision=4, suppress=True)

sys_d = benchmarks.power_plant()
weights = benchmarks.power_plant_weights()

# --- data collection: 30 transitions under probing input -------------------
policy = lti.exploration_input(sys_d.m, num_terms=100, freq_low=-10.0,
                               freq_high=10.0, seed=7)
traj = lti.simulate(sys_d, benchmarks.POWER_PLANT_X0, policy, 30)
data = model_free.build_regression_data(traj)
print(f"collected {data.l} transitions; "
      f"{model_free.unknown_count(data.n, data.m)} regression unknowns")
print("excitation rank condition holds:",
      model_free.check_rank_condition(data))

# --- solve from the zero gain ----------------------------------------------
K0 = np.zeros((1, 3))
report = model_free.spi_model_free(data, K0, weights, b_init=1.0,
                                   delta=0.1, lam=0.5, tol=1e-5)

print(f"\ndivisor probing: accepted b = {report.b:.2f} after "
      f"{report.probes} regressions")
print("\nscaling loop (factors chosen from data alone):")
print("  i     cum     headroom     c")
for s in report.phase1_trace[:-1]:
    print(f" {s.i:2d}   {s.cum:6.4f}    {s.bound:6.4f}    {s.c:6.4f}")
handoff = report.handoff_state
print(f"\nhandoff at iteration {report.handoff_index}: cumulative factor "
      f"{handoff.cum:.4f} >= 1")

# the solver never saw (A, B); verify its stability promise against them
rho = matkit.spectral_radius(sys_d.A - sys_d.B @ handoff.K_tilde)
print(f"hidden-model check: rho(A - B K_handoff) = {rho:.4f} < 1")

print(f"\nconverged after {report.solution.iterations} iterations total")
print("P* =\n", report.solution.P)
print("K* =", report.solution.K.ravel())

mb = model_based.spi_model_based(sys_d, weights, K0, tol=1e-8)
print("\nagreement with the model-based solver:")
print("max |P_data - P_model| =",
      f"{np.abs(report.solution.P - mb.solution.P).max():.3e}")
