"""Command-line front end.

Subcommands: simulate, verify, preset, sweep.  Exit status 0 on success,
1 when a run or verification check fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

from .checks import FAULT_MODES, run_verification
from .propagation import IntegrationFailure
from .scenarios import (Scenario, preset, preset_document, preset_names,
                        run_scenario, run_sweep, scenario_from_dict)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _apply_overrides(s: Scenario, args) -> Scenario:
    updates = {key: getattr(args, key) for key in ("method", "t_end", "dt", "samples")
               if getattr(args, key) is not None}
    return replace(s, **updates, **({"svg": True} if args.svg else {}))


def _report(manifest) -> int:
    """Print each output with its sha256 prefix and the status; the exit status."""
    for entry in manifest.outputs:
        print(f"wrote {entry['path']}  sha256 {entry['sha256'][:16]}")
    print(f"status: {manifest.status}  ({manifest.duration_s:.2f}s)")
    return EXIT_OK if manifest.status == "ok" else EXIT_CHECK_FAILED


def _cmd_simulate(args) -> int:
    if (args.config is None) == (args.preset is None):
        print("simulate needs a config file or --preset (exactly one)", file=sys.stderr)
        return EXIT_BAD_INPUT
    scenario = (preset(args.preset) if args.preset is not None
                else scenario_from_dict(_load_json(args.config)))
    return _report(run_scenario(_apply_overrides(scenario, args), out_dir=args.out))


def _cmd_verify(args) -> int:
    config = _load_json(args.config) if args.config else None
    results = run_verification(config, inject_fault=args.inject_fault)
    failed = [r.name for r in results if not r.passed]
    if args.json:  # strict JSON: the residual inf of a check that raised is null
        print(json.dumps([dict(asdict(r), residual=r.residual if math.isfinite(r.residual)
                               else None) for r in results], allow_nan=False))
    else:
        for result in results:
            print(result.line())
        print(f"FAILED checks: {', '.join(failed)}" if failed else "all checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_preset(args) -> int:
    if args.list:
        for name in preset_names():
            print(name)
        return EXIT_OK
    if args.dump:
        print(json.dumps(preset_document(args.dump), indent=2, sort_keys=True))
        return EXIT_OK
    print("preset needs --list or --dump NAME", file=sys.stderr)
    return EXIT_BAD_INPUT


def _cmd_sweep(args) -> int:
    return _report(run_sweep(_load_json(args.config), out_dir=args.out))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscbath",
        description="Oscillator-bath excitation transfer and bath-partition entanglement")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario from a config file or preset")
    sim.add_argument("config", nargs="?", help="JSON scenario (or manifest) file")
    sim.add_argument("--preset", choices=preset_names(), help="built-in scenario")
    sim.add_argument("--out", help="output directory")
    sim.add_argument("--method", choices=("exact", "rk4", "both"))
    sim.add_argument("--t-end", type=float, dest="t_end")
    sim.add_argument("--dt", type=float)
    sim.add_argument("--samples", type=int)
    sim.add_argument("--svg", action="store_true", help="also write SVG line plots")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="run the residual verification suite")
    ver.add_argument("--config", help="JSON file overriding check parameters")
    ver.add_argument("--inject-fault", choices=FAULT_MODES,
                     help="deliberately corrupt the run to exercise failure paths")
    ver.add_argument("--json", action="store_true",
                     help="print the check results as one JSON list")
    ver.set_defaults(func=_cmd_verify)

    pre = sub.add_parser("preset", help="list or dump built-in scenarios")
    pre.add_argument("--list", action="store_true")
    pre.add_argument("--dump", metavar="NAME")
    pre.set_defaults(func=_cmd_preset)

    swp = sub.add_parser("sweep", help="grid over partition size and initial overlap")
    swp.add_argument("config", help="JSON sweep description")
    swp.add_argument("--out", help="output directory")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegrationFailure as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
