"""Names and units of the metrics the benchmark reports."""

# Reported with --trace 0, per workload.
END_TO_END = {
    "setup_s": "s",
    "round_ms": "ms",
    "replay_round_ms": "ms",
    "peak_rss_mib": "MiB",
    "final_loss": "loss",
    "wire_bytes_per_round": "B/round",
}

# Per-layer metrics a traced federation reports: name -> unit. A traced
# federation is one set-up, one `harness.run_spec` and one offline replay.
# `.calls` counts calls, `.self_s` sums self time (span time not covered by
# child spans), `.total_s` sums inclusive time and `.s` is the inclusive time
# of one call, averaged over its calls. On quadratic tasks `global_loss`
# calls `client_loss` once per client, and those calls count too.
# `fedsim.direction.cache_bytes` is computed, not measured: the misses of the
# provider that missed most, times d, times 8 bytes.
# `fedsim.client_rebuild.ms_per_replayed_round` is inclusive time.
LAYER_METRICS = {
    "rng.gaussian_vector.calls": "count",
    "rng.gaussian_vector.coords": "count",
    "rng.gaussian_vector.self_s": "s",
    "rng.sample_without_replacement.self_s": "s",
    "rng.uniform_indices.self_s": "s",
    "fedsim.direction.requests": "count",
    "fedsim.direction.misses": "count",
    "fedsim.direction.hit_ratio": "ratio",
    "fedsim.direction.cache_bytes": "B",
    "fedsim.client_rebuild.calls": "count",
    "fedsim.client_rebuild.replayed_rounds": "count",
    "fedsim.client_rebuild.self_s": "s",
    "fedsim.client_rebuild.ms_per_replayed_round": "ms",
    "fedsim.client_local_update.self_s": "s",
    "fedsim.server_aggregate.self_s": "s",
    "fedsim.sample_clients.self_s": "s",
    "fedsim.run_training.self_s": "s",
    "zo.scale_direction.calls": "count",
    "zo.scale_direction.self_s": "s",
    "zo.multi_perturbation_delta.calls": "count",
    "zo.multi_perturbation_delta.self_s": "s",
    "curvature.ema_update.calls": "count",
    "curvature.ema_update.self_s": "s",
    "curvature.inv_sqrt.self_s": "s",
    "curvature.diagnostics.self_s": "s",
    "tasks.client_loss.calls": "count",
    "tasks.client_loss.self_s": "s",
    "tasks.global_loss.calls": "count",
    "tasks.global_loss.total_s": "s",
    "tasks.draw_batch.self_s": "s",
    "ledger.fetch_since.self_s": "s",
    "ledger.record_round.self_s": "s",
    "ledger.meter_round.self_s": "s",
    "ledger.serialize.s": "s",
    "ledger.serialize.bytes": "B",
    "ledger.deserialize.s": "s",
    "harness.build_task.s": "s",
    "harness.build_round_config.s": "s",
    "harness.write_trace.s": "s",
}

# Reported with --trace 1 next to LAYER_METRICS: run time per round without
# and with tracing, on the same federations, and their ratio.
TRACE_OVERHEAD = {
    "trace.round_ms.untraced": "ms",
    "trace.round_ms.traced": "ms",
    "trace.overhead_ratio": "ratio",
}
