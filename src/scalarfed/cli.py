"""Command-line front end over the harness.

Exit codes: 0 completed, 2 invalid specification, 3 runtime estimator failure.
"""

import argparse
import json
import sys

from .errors import ConfigError, EstimatorFailureError, ScalarFedError
from .ledger import WireCostModel
from . import harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _cmd_run(args):
    spec = harness.load_spec(args.spec)
    result = harness.run_spec(spec, output_dir=args.output)
    last = result.trace[-1]
    print(f"completed {len(result.trace)} rounds; final loss {last['loss']:.6g}; "
          f"uplink {last['cum_uplink_bytes']} B, downlink {last['cum_downlink_bytes']} B")
    if args.output:
        print(f"trace written under {args.output}")
    return EXIT_OK


def _report_out(report, args):
    for line in report.lines():
        print(line)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.output}")
    return EXIT_OK if report.passed else EXIT_RUNTIME


def _cmd_verify_lemmas(args):
    report = harness.verify_lemmas(dim=args.dim, samples=args.samples, seed=args.seed)
    return _report_out(report, args)


def _cmd_verify_equivalence(args):
    report = harness.verify_equivalence(fuzz_count=args.fuzz, seed=args.seed,
                                        transport=args.transport)
    return _report_out(report, args)


def _cmd_account(args):
    row = harness.account(
        rounds=args.rounds, m=args.m, tau=args.tau, perturbations=args.P,
        dim=args.dim,
        cost=WireCostModel(bytes_per_scalar=args.bytes_per_scalar,
                           bytes_per_seed=args.bytes_per_seed),
    )
    for line in harness.account_lines(row):
        print(line)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(row, fh, indent=2)
    return EXIT_OK


def _parse_list(text, cast, name):
    if not text:
        return None
    try:
        return [cast(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--{name} takes a comma-separated list: {exc}", field=name) from exc


def _cmd_sweep(args):
    spec = harness.load_spec(args.spec)
    rows = harness.sweep(
        spec,
        nu_list=_parse_list(args.nu, float, "nu"),
        tau_list=_parse_list(args.tau, int, "tau"),
        p_list=_parse_list(args.P, int, "P"),
        eta_list=_parse_list(args.eta, float, "eta"),
        loss_factor=args.loss_factor,
        max_runs=args.max_runs,
    )
    path = harness.write_sweep_csv(rows, args.output)
    print(f"{len(rows)} sweep rows written to {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scalarfed",
        description="Deterministic simulator of scalar-only federated zeroth-order training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a training spec, emit a JSONL/CSV trace")
    p.add_argument("spec", help="path to a JSON run spec")
    p.add_argument("--output", "-o", default=None, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify-lemmas", help="Monte Carlo checks of the Gaussian identities")
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None, help="JSON report path")
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("verify-equivalence",
                       help="scalar protocol vs full-vector oracle on fuzzed configs")
    p.add_argument("--fuzz", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transport", choices=("direct", "natural"), default="direct",
                   help="oracle to compare against: 'direct' (bitwise gate) or "
                        "'natural', which averages delta vectors (1e-9 gate)")
    p.add_argument("--output", "-o", default=None, help="JSON report path")
    p.set_defaults(func=_cmd_verify_equivalence)

    p = sub.add_parser("account", help="byte accounting: scalar protocol vs full vectors")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--P", type=int, default=5)
    p.add_argument("--dim", type=int, default=None,
                   help="model dimension for the full-vector rows (omit to skip them)")
    p.add_argument("--bytes-per-scalar", type=int, default=4)
    p.add_argument("--bytes-per-seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None, help="JSON output path")
    p.set_defaults(func=_cmd_account)

    p = sub.add_parser("sweep", help="cross-product ablation runs, one CSV row each")
    p.add_argument("spec", help="path to a JSON run spec")
    p.add_argument("--nu", default=None, help="comma-separated list")
    p.add_argument("--tau", default=None, help="comma-separated list")
    p.add_argument("--P", default=None, help="comma-separated list")
    p.add_argument("--eta", default=None, help="comma-separated list")
    p.add_argument("--loss-factor", type=float, default=10.0)
    p.add_argument("--max-runs", type=int, default=64)
    p.add_argument("--output", "-o", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"invalid spec: {exc}{field}", file=sys.stderr)
        return EXIT_CONFIG
    except EstimatorFailureError as exc:
        coords = f" at (round, step, perturbation)={exc.coords}" if exc.coords else ""
        client = f" on client {exc.client}" if exc.client is not None else ""
        print(f"estimator failure: {exc}{client}{coords}", file=sys.stderr)
        return EXIT_RUNTIME
    except ScalarFedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
