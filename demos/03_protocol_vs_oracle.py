#!/usr/bin/env python3
"""Prove the scalar protocol faithful against a full-vector oracle.

The oracle is the same round loop with the "direct" transport: clients
receive the model and curvature by value, no reset, no replay. If the scalar
protocol's bookkeeping (ledger, rebuild, reset) is correct, both simulations
must produce the same server model -- not approximately, BITWISE -- round after
round, under any participation pattern. This is the strongest statement the
artifact makes about itself, and it is checked here on a handful of fuzzed
configurations plus one with 32-bit wire quantization, where the scalar
path is allowed to drift and we simply measure how much.
"""

from dataclasses import replace

import numpy as np

import scalarfed as sf
from scalarfed import harness

print(__doc__)

report = harness.verify_equivalence(fuzz_count=8, seed=0, transport="direct")
for line in report.lines():
    print(line)
print("all bitwise:", report.passed)

print("\nthe \"natural\" oracle instead, which averages delta vectors "
      "(mathematically identical, floating-point distinct):")
report = harness.verify_equivalence(fuzz_count=3, seed=1, transport="natural")
for line in report.lines():
    print(line)

print("\nwith float32 wire quantization the scalar path is *supposed* to "
      "drift from the float64 oracle:")
task = sf.QuadraticTask.build(dim=32, num_clients=5, seed=3,
                              spectrum_variance=1.0, offset_scale=0.1, x0_scale=0.5)
config = sf.RoundConfig(num_clients=5, sampled_per_round=2, rounds=30, eta=0.02,
                        tau=2, perturbations=3, mu=1e-4, nu=0.1,
                        root_seed=11, sampling_seed=12, quantize_wire=True)
scalar = sf.run_training(config, task, keep_models=True)
oracle = sf.run_training(replace(config, quantize_wire=False), task,
                         keep_models=True, transport="direct")
gaps = [float(np.max(np.abs(a - b))) for a, b in zip(scalar.models, oracle.models)]
for r in (0, 9, 19, 29):
    print(f"  round {r:2d}: max |scalar - oracle| = {gaps[r]:.3e}")
print("drift grows with accumulated rounding but stays tiny; reported, not asserted")
