"""Command line interface: list and run scenario presets.

Exit codes: 0 success, 2 configuration/validation failure, 1 runtime failure.
"""

import argparse
import json
import sys

from .scenarios import ConfigError, ScenarioConfig, list_scenarios, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawsps",
        description="Acoustically driven single-photon source simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario preset")
    run.add_argument("--scenario", help="preset name (see `sawsps list`)")
    run.add_argument("--config", help="JSON config file with overrides")
    run.add_argument("--seed", type=int, help="master seed override")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--force", action="store_true",
                     help="overwrite a non-empty output directory")
    run.add_argument("--threads", type=int, default=1,
                     help="worker threads (results are thread-count independent)")

    sub.add_parser("list", help="list scenario presets")
    return parser


def _load_config(args) -> ScenarioConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
    if args.scenario:
        if "scenario" in data and data["scenario"] != args.scenario:
            raise ConfigError(
                f"--scenario {args.scenario} conflicts with config file "
                f"scenario '{data['scenario']}'")
        data["scenario"] = args.scenario
    if "scenario" not in data:
        raise ConfigError("no scenario given (use --scenario or a config file)")
    if args.seed is not None:
        data["master_seed"] = args.seed
    return ScenarioConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, description in list_scenarios():
            print(f"{name:20s} {description}")
        return 0
    try:
        config = _load_config(args)
        manifest = run_scenario(config, args.out, force=args.force,
                                threads=args.threads)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - runtime failures exit 1
        print(f"runtime failure: {err}", file=sys.stderr)
        return 1
    print(f"wrote {len(manifest['files'])} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
