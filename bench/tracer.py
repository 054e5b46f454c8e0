"""Span tracing around the library's public calls, installed from outside.

Each wrapped call records one span (name, start, end, parent) in memory.
Names are patched where their caller looks them up: `fedsim` binds
`gaussian_vector`, `ema_update`, `scale_direction` and others by name at
import, so wrapping only the defining module would miss those calls.
"""

import time
import weakref
from collections import Counter, defaultdict

from metrics import LAYER_METRICS
from scalarfed import fedsim, harness, ledger, rng, tasks

# (owner, attribute, span name): every place a traced name is looked up.
_TARGETS = [
    (fedsim, "gaussian_vector", "rng.gaussian_vector"),
    (rng, "gaussian_vector", "rng.gaussian_vector"),
    (fedsim, "sample_without_replacement", "rng.sample_without_replacement"),
    (rng, "uniform_indices", "rng.uniform_indices"),
    (fedsim, "scale_direction", "zo.scale_direction"),
    (fedsim, "multi_perturbation_delta", "zo.multi_perturbation_delta"),
    (fedsim, "ema_update", "curvature.ema_update"),
    (fedsim, "inv_sqrt", "curvature.inv_sqrt"),
    (fedsim, "diagnostics", "curvature.diagnostics"),
    (tasks.QuadraticTask, "client_loss", "tasks.client_loss"),
    (tasks.QuadraticTask, "global_loss", "tasks.global_loss"),
    (tasks.QuadraticTask, "draw_batch", "tasks.draw_batch"),
    (tasks.LogisticTask, "client_loss", "tasks.client_loss"),
    (tasks.LogisticTask, "global_loss", "tasks.global_loss"),
    (tasks.LogisticTask, "draw_batch", "tasks.draw_batch"),
    (fedsim, "fetch_since", "ledger.fetch_since"),
    (ledger, "fetch_since", "ledger.fetch_since"),
    (fedsim, "record_round", "ledger.record_round"),
    (fedsim, "meter_round", "ledger.meter_round"),
    (ledger, "serialize", "ledger.serialize"),
    (ledger, "deserialize", "ledger.deserialize"),
    (fedsim.DirectionProvider, "u", "fedsim.direction"),
    (fedsim, "client_rebuild", "fedsim.client_rebuild"),
    (fedsim, "client_local_update", "fedsim.client_local_update"),
    (fedsim, "server_aggregate", "fedsim.server_aggregate"),
    (fedsim, "sample_clients", "fedsim.sample_clients"),
    (harness, "run_training", "fedsim.run_training"),
    (harness, "build_task", "harness.build_task"),
    (harness, "build_round_config", "harness.build_round_config"),
    (harness, "write_trace", "harness.write_trace"),
    (harness, "run_spec", "harness.run_spec"),
]

class Tracer:
    """In-memory span recorder; `install` patches the targets, `uninstall`
    restores them."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._open = []
        self.gaussian_calls = 0
        self.gaussian_coords = 0
        self.misses = 0
        # Misses per live provider; the largest cache any provider reached.
        self.provider_misses = weakref.WeakKeyDictionary()
        self.largest_cache = 0
        self.replayed_rounds = 0
        self.serialized_bytes = 0
        self._saved = []

    def _wrap(self, name, fn):
        names, parents, starts, ends, open_ = (self.names, self.parents, self.starts,
                                               self.ends, self._open)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                open_.pop()

        return traced

    def _hooks(self):
        """Count work at the same boundaries the spans cover."""
        tracer = self

        def gaussian(fn):
            def counted(seed, dim):
                tracer.gaussian_coords += dim
                tracer.gaussian_calls += 1
                return fn(seed, dim)
            return counted

        def direction(fn):
            def counted(provider, r, k, p):
                before = tracer.gaussian_calls
                out = fn(provider, r, k, p)
                if tracer.gaussian_calls != before:
                    misses = tracer.provider_misses.get(provider, 0) + 1
                    tracer.provider_misses[provider] = misses
                    tracer.misses += 1
                    tracer.largest_cache = max(tracer.largest_cache,
                                               misses * provider.dim * 8)
                return out
            return counted

        def rebuild(fn):
            def counted(client, missed, *args, **kwargs):
                tracer.replayed_rounds += len(missed)
                return fn(client, missed, *args, **kwargs)
            return counted

        def serialize(fn):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.serialized_bytes += len(out)
                return out
            return counted

        return {"rng.gaussian_vector": gaussian, "fedsim.direction": direction,
                "fedsim.client_rebuild": rebuild, "ledger.serialize": serialize}

    def install(self):
        hooks = self._hooks()
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr]
            fn = hooks[name](original) if name in hooks else original
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, fn))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self):
        """(name, start, end, parent index) for every recorded span."""
        return zip(self.names, self.starts, self.ends, self.parents)

    def layer_metrics(self) -> dict:
        """Aggregate the recorded spans into LAYER_METRICS values."""
        child = [0.0] * len(self.names)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]

        def per_call(name):
            return total[name] / calls[name] if calls[name] else 0.0

        requests = calls["fedsim.direction"]
        out = {
            "rng.gaussian_vector.coords": self.gaussian_coords,
            "fedsim.direction.requests": requests,
            "fedsim.direction.misses": self.misses,
            "fedsim.direction.hit_ratio": 1.0 - self.misses / requests if requests else 0.0,
            "fedsim.direction.cache_bytes": self.largest_cache,
            "fedsim.client_rebuild.replayed_rounds": self.replayed_rounds,
            "fedsim.client_rebuild.ms_per_replayed_round":
                1e3 * total["fedsim.client_rebuild"] / self.replayed_rounds
                if self.replayed_rounds else 0.0,
            "ledger.serialize.bytes": self.serialized_bytes,
        }
        for metric in LAYER_METRICS:
            if metric in out:
                continue
            name, what = metric.rsplit(".", 1)
            out[metric] = {"calls": calls[name], "self_s": self_s[name],
                           "total_s": total[name], "s": per_call(name)}[what]
        return out
