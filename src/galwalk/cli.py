"""Command-line interface.

Verbs:
  scenarios   list the built-in scenarios
  run         convergence experiment (one CSV/JSON row per k and coset)
  finfield    finite-field census densities
  oracle      exact word enumeration for the counterexample scenario
  catalog     predicted-group cycle-type distributions

Data goes to the --out file; diagnostics go to stderr.  A flat key=value
JSON config file may replace flags; explicit flags win.  Each verb takes
only the flags and config keys it reads (experiment.VERB_SETTINGS, plus
--out and --format), with that table's defaults; any other is an error
(exit 2).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .experiment import (
    CONFIG_FIELDS,
    VERB_SETTINGS,
    ExperimentConfig,
    catalog_rows,
    run_convergence,
    run_finite_field,
    run_oracle,
)
from .output import emit
from .permkit import GroupTooLarge
from .scenarios import builtin_scenarios

_FORMATS = ("csv", "json")

# argparse keywords of each setting's flag
_FLAGS = {
    "scenario": {"help": "scenario name (see `scenarios`)"},
    "k": {"help": "comma-separated walk lengths"},
    "samples": {"type": int},
    "primes_min": {"type": int},
    "primes_max": {"type": int},
    "budget": {"type": int},
    "seed": {"type": int},
    "bound": {"type": int},
    "out": {"help": "output file path"},
    "format": {"choices": _FORMATS},
}

# where the data goes: every verb reads these after its own settings
_OUTPUT_KEYS = ("out", "format")


def _verb_keys(verb: str) -> tuple[str, ...]:
    return (*VERB_SETTINGS[verb], *_OUTPUT_KEYS)


def _add_flags(sub, verb: str):
    for key in _verb_keys(verb):
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, **_FLAGS[key])
    if VERB_SETTINGS[verb]:  # catalog reads no setting, so takes no --config
        sub.add_argument("--config", default=None, help="flat JSON config file")


def _merged_settings(args) -> dict:
    keys = _verb_keys(args.verb)
    settings: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a flat JSON object")
        for key, value in raw.items():
            if key not in keys:
                raise ValueError(f"unknown config key {key!r} for {args.verb}")
            settings[key] = value
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    return settings


def _field_value(key: str, value):
    """Integer keys take only integers, never a float or boolean; k also
    takes a comma-separated string."""
    if key == "scenario":
        return str(value)
    if key == "k" and isinstance(value, str):
        try:
            return tuple(int(x) for x in value.split(",") if x != "")
        except ValueError:
            raise ValueError(f"k must be comma-separated integers, got {value!r}") from None
    if type(value) is not int:
        kind = "an integer or a comma-separated string" if key == "k" else "an integer"
        raise ValueError(f"{key} must be {kind}, got {value!r}")
    return (value,) if key == "k" else value


def _build_config(settings: dict, verb: str) -> ExperimentConfig:
    if "scenario" not in settings:
        raise ValueError("--scenario is required")
    fields = {
        CONFIG_FIELDS.get(key, key): default
        for key, default in VERB_SETTINGS[verb].items()
        if default is not None
    }
    for key, value in settings.items():
        if key not in _OUTPUT_KEYS:
            fields[CONFIG_FIELDS.get(key, key)] = _field_value(key, value)
    return ExperimentConfig(**fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="galwalk", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)
    subs.add_parser("scenarios", help="list built-in scenarios")
    for verb in VERB_SETTINGS:
        _add_flags(subs.add_parser(verb), verb)

    args = parser.parse_args(argv)

    if args.verb == "scenarios":
        for name, scenario in builtin_scenarios().items():
            cosets = ", ".join(
                f"{lab}:{c.name}"
                + (f" -> {c.predicted.name}" if c.predicted else " (no prediction)")
                for lab, c in enumerate(scenario.cosets)
            )
            print(f"{name}  dim={scenario.dimension}  cosets[{cosets}]")
            print(f"    {scenario.description}")
        return 0

    try:
        settings = _merged_settings(args)
        if "out" not in settings:
            raise ValueError("--out is required (data goes to files)")
        out = settings["out"]
        if not isinstance(out, str) or not out:
            raise ValueError(f"out must be a non-empty path string, got {out!r}")
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"output directory of {out!r} does not exist")
        if os.path.isdir(out):
            raise ValueError(f"--out {out!r} is a directory")
        fmt = settings.get("format", "csv")
        if fmt not in _FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        if args.verb == "catalog":
            rows, fields, metadata = catalog_rows()
        else:
            config = _build_config(settings, args.verb)
            if args.verb == "run":
                rows, fields, metadata = run_convergence(config)
            elif args.verb == "finfield":
                rows, fields, metadata = run_finite_field(config)
            else:
                rows, fields, metadata = run_oracle(config)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        emit(rows, fields, metadata, out, fmt)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
