"""A small seeded extremality experiment.

Points of the unit ball are sampled exactly (uniform digits), pushed
through the Veronese map, and their inhomogeneous approximation
profiles are measured.  The per-horizon ratio concentrates at the
critical value 1; quantile trajectories are exact rationals.
"""

from ffdioph.experiments import ExperimentConfig, run_extremal

cfg = ExperimentConfig(
    q=2, modulus=None, map_spec="veronese:2", theta="T^-1 + T^-5",
    tau_max=16, precision=0, depth=48, samples=40, seed=20240,
    format="json",
)
print(f"map {cfg.map_spec}, theta = {cfg.theta}, "
      f"{cfg.samples} samples at depth {cfg.depth}")
print(f"tau grid {cfg.tau_grid()}, working floor {cfg.working_floor()}")

report = run_extremal(cfg)
print(f"\nexcluded: {report.excluded_precision} precision, "
      f"{report.excluded_infinite} rational hits")
print("tau   count   median      p90")
for qd in report.quantiles:
    print(f"{qd['tau']:3d}   {qd['count']:5d}   "
          f"{str(qd['median']):>9}   {str(qd['p90']):>9}")
print("\nthe medians drift down toward 1 from above as tau grows;")
print("rerunning with the same seed reproduces this table byte for byte")
