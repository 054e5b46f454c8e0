#!/usr/bin/env python3
"""Walk through the scalar-only wire by hand.

A full d-dimensional model update travels as ONE float64 (well, a float32 on
the wire) plus a seed both sides already know. This script builds the pieces
one at a time: seed -> direction, forward difference -> scalar, scalar ->
reconstructed step, and finally a client that misses three rounds and
resynchronizes bitwise from nothing but the ledger.
"""

import numpy as np

import scalarfed as sf

print(__doc__)

# --- 1. a seed IS a direction -------------------------------------------------

schedule = sf.SeedSchedule(root=2024)
seed = schedule.perturbation_seed(r=0, k=0, p=0)
u_server = sf.gaussian_vector(seed, 6)
u_client = sf.gaussian_vector(seed, 6)  # "another machine"
print("perturbation seed for (round 0, step 0, perturbation 0):", seed)
print("server direction:", np.round(u_server, 4))
print("client direction:", np.round(u_client, 4))
print("bitwise identical:", np.array_equal(u_server, u_client))

# --- 2. one scalar encodes the whole update ------------------------------------

a = np.array([3.0, 1.0, 0.5, 2.0, 1.5, 0.2])
loss = lambda x, batch=None: 0.5 * float(a @ (x * x))
x = np.ones(6)
mu = 1e-4

g = (loss(x + mu * u_server) - loss(x)) / mu  # the forward difference
step = g * u_server
print("\ngradient scalar g =", g)
print("reconstructed step g*u:", np.round(step, 4))
print("true gradient        :", a * x)
print("(one random direction is a noisy but unbiased probe;",
      "averaging perturbations sharpens it)")

P = 64
scalars, dirs = [], []
for p in range(P):
    u = sf.gaussian_vector(schedule.perturbation_seed(0, 0, p), 6)
    dirs.append(u)
    scalars.append((loss(x + mu * u) - loss(x)) / mu)
isH = np.ones(6)  # the identity curvature's inverse square root: z = u
print(f"mean of {P} rank-one steps:", np.round(sf.multi_perturbation_delta(scalars, dirs, isH), 3))

# --- 3. a client rebuilds from the ledger --------------------------------------

task = sf.QuadraticTask.build(dim=6, num_clients=4, seed=7,
                              spectrum_variance=1.0, offset_scale=0.2, x0_scale=1.0)
config = sf.RoundConfig(num_clients=4, sampled_per_round=2, rounds=6, eta=0.05,
                        tau=2, perturbations=3, mu=1e-4, nu=0.1,
                        root_seed=2024, sampling_seed=9)
result = sf.run_training(config, task, keep_models=True)

ledger_bytes = sf.serialize(result.server.ledger, root_seed=config.root_seed)
print(f"\nafter {config.rounds} rounds the ledger serializes to {len(ledger_bytes)} bytes")
print("per-round wire content: tau x P =", config.tau * config.perturbations, "scalars")

provider = sf.DirectionProvider(config.schedule(), task.dim)
late_client = sf.ClientState(id=3, model=task.x0.copy(),
                             hessian=config.initial_hessian(task.dim))
ledger = sf.deserialize(ledger_bytes)
late_client = sf.client_rebuild(late_client, sf.fetch_since(ledger, 0),
                                config.eta, provider)
print("late client model == server model (bitwise):",
      np.array_equal(late_client.model, result.models[-1]))
print("late client curvature == server curvature  :",
      np.array_equal(late_client.hessian.diag, result.server.hessian.diag))
