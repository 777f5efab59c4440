"""Command-line interface for the exact icosahedral extension toolkit.

Exit codes: 0 success; 1 usage error, an unwritable --out, or a failed
`verify` check (its report is still delivered); 2 expression or file
parse error, out-of-range literals included; 3 no trivalent cage found
where one was requested; 4 resource cap exceeded.  Every run writes
a machine-readable result to stdout unless --out redirects it to a file,
and identical argument vectors produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

from . import cages
from .configs import BUILTIN_NAMES, ConfigError, StartConfig, builtin, \
    load_custom
from .engine import (DEFAULT_SCAN_SPEC, EmptyScanError, PointBudgetError,
                     classify_length, classify_scan, generate_array,
                     make_translation, outer_cage, parse_scan_spec)
from .export import (BOND_LENGTH, ExportError, canonical_json, export_csv,
                     export_off, export_xyz, provenance_comment)
from .golden import (FieldParseError, GoldenNumber, format_golden,
                     parse_field_expr, within_magnitude)
from .groups import ClosureBoundError, full_group, rotation_group
from .onion import build_onion
from .pentagon import pentagon_array
from .verify import as_payload, render_table, run_checks

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NO_CAGE = 3
EXIT_BUDGET = 4


class UsageError(Exception):
    """Bad flag combination or unknown name (exit 1)."""


class ParseFailure(Exception):
    """Unparsable expression, scan spec, or seed file (exit 2)."""


class NoCageError(Exception):
    """A trivalent cage was requested but none exists (exit 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; we map to 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="icofold",
        description="Exact affine extensions of icosahedral symmetry: "
                    "point arrays, trivalent cages, and nested cage "
                    "families.",
        epilog="Exit codes: 0 ok, 1 usage or a failed verify check, "
               "2 parse error, 3 no trivalent cage, 4 resource cap.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, description=help_text)

    p = add("group-info", "orders, axis counts, and element orders of the "
                          "symmetry groups")
    _out_flag(p)

    p = add("configs", "catalog of built-in start configurations")
    p.add_argument("--config", metavar="NAME|PATH",
                   help="show a single configuration (builtin name or seed "
                        "file path)")
    _out_flag(p)

    p = add("pentagon", "planar five-fold demo: rotated translates of a "
                        "pentagon with exact coincidence counting")
    p.add_argument("--length", metavar="EXPR", default="tau",
                   help="translation length as an exact field literal "
                        "(default: tau)")
    p.add_argument("--direction", choices=("vertex", "edge"),
                   default="vertex",
                   help="translate toward a vertex or an edge midpoint "
                        "(default: vertex)")
    p.add_argument("--emit", choices=("json", "csv"), default="json",
                   help="output format (csv: float points for plotting)")
    _out_flag(p)

    p = add("extend", "classify one affine translation: cardinalities, "
                      "radial bands, and the outer cage")
    _config_flag(p)
    _axis_flag(p, required=True)
    p.add_argument("--length", metavar="EXPR", required=True,
                   help="exact translation length, e.g. '3', 'tau^2', "
                        "'(7+tau)/5'")
    p.add_argument("--depth", type=int, default=1, metavar="K",
                   help="number of translation applications (default: 1)")
    p.add_argument("--emit", choices=("json", "xyz", "off", "csv"),
                   default="json",
                   help="json: full report; xyz/off/csv: the outer cage")
    _bond_scale_flag(p)
    _out_flag(p)

    p = add("classify", "scan a grid of translation lengths and report "
                        "every row")
    _config_flag(p)
    _axis_flag(p, required=False)
    p.add_argument("--scan", metavar="SPEC",
                   help="grid 'a=lo..hi,b=lo..hi,c=lo..hi,max=R' for "
                        "lengths (a+b*tau)/c (default: a in -7..7, "
                        "b in -6..6, c in 1..5, max = 2x start radius)")
    _out_flag(p)

    p = add("onion", "iterate one translation into a family of nested "
                     "trivalent cages")
    _config_flag(p)
    _axis_flag(p, required=True)
    p.add_argument("--length", metavar="EXPR", required=True,
                   help="exact translation length")
    p.add_argument("--depth", type=int, default=2, metavar="K",
                   help="number of iterations (default: 2)")
    _bond_scale_flag(p)
    p.add_argument("--out", metavar="PATH",
                   help="write the family report here and one XYZ file "
                        "per cage next to it")

    p = add("verify", "run the built-in verification suite and print a "
                      "pass/fail table")
    p.add_argument("--only", metavar="CHECK",
                   help="run a single named check (see table output for "
                        "names)")
    _out_flag(p)

    p = add("export", "write a start configuration as xyz, off, csv, or "
                      "json")
    _config_flag(p)
    p.add_argument("--emit", choices=("xyz", "off", "csv", "json"),
                   default="xyz", help="output format (default: xyz)")
    _bond_scale_flag(p)
    _out_flag(p)

    return parser


def _config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="NAME|PATH", required=True,
                   help="builtin name (" + ", ".join(BUILTIN_NAMES)
                        + ") or path to a seed file")


def _axis_flag(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--axis", type=int, choices=(2, 3, 5), required=required,
                   help="axis fold the translation runs along"
                        + ("" if required else " (default: all of 2, 3, 5)"))


def _bond_scale_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bond-scale", action="store_true",
                   help="rescale coordinates so the shortest pairwise "
                        f"distance is {BOND_LENGTH}")


def _out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH",
                   help="write the result to this file instead of stdout")


def _resolve_config(value: str) -> StartConfig:
    if value in BUILTIN_NAMES:
        return builtin(value)
    if os.path.exists(value):
        try:
            return load_custom(value)
        except (ConfigError, FieldParseError) as exc:
            raise ParseFailure(str(exc)) from exc
    raise UsageError(
        f"unknown configuration '{value}': not a builtin name "
        f"({', '.join(BUILTIN_NAMES)}) and no such file"
    )


def _parse_length(text: str) -> GoldenNumber:
    length = parse_field_expr(text)
    if length.sign() <= 0:
        raise UsageError(f"translation length must be positive, got {text}")
    if not within_magnitude(length):
        raise ParseFailure(
            f"translation length {text} is outside 2^-32 <= |x| <= 2^32 "
            "or has terms past 256 bits")
    return length


def _translation(start: StartConfig, fold: int, text: str):
    return make_translation(start.symmetry, fold, _parse_length(text))


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def _deliver(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _cmd_group_info(args) -> int:
    full = full_group()
    payload = {
        "rotation_order": rotation_group().order,
        "full_order": full.order,
        "axes": {str(fold): len(full.axes(fold)) for fold in (2, 3, 5)},
        "element_order_histogram": {
            str(order): count
            for order, count in sorted(full.order_histogram().items())
        },
    }
    _deliver(canonical_json(payload), args.out)
    return EXIT_OK


def _config_summary(config: StartConfig) -> dict:
    cages._check_search_budget(len(config))
    graph = cages.trivalence_threshold_search(config.vertices)
    return {
        "name": config.name,
        "vertices": len(config.vertices),
        "radius2_spectrum": [format_golden(r)
                             for r in config.radius2_spectrum],
        "radius_outer": round(math.sqrt(float(config.radius2)), 9),
        "trivalent": graph is not None,
    }


def _cmd_configs(args) -> int:
    if args.config:
        payload = _config_summary(_resolve_config(args.config))
    else:
        payload = {"configs": [_config_summary(builtin(name))
                               for name in BUILTIN_NAMES]}
    _deliver(canonical_json(payload), args.out)
    return EXIT_OK


def _cmd_pentagon(args) -> int:
    result = pentagon_array(_parse_length(args.length), args.direction)
    if args.emit == "csv":
        lines = ["x,y"]
        rows = sorted(
            (p.as_floats() for p in result.points),
            key=lambda q: (q[0] * q[0] + q[1] * q[1], q),
        )
        lines += [f"{x:.6f},{y:.6f}" for x, y in rows]
        _deliver("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    payload = {
        "length": format_golden(result.length),
        "direction": args.direction,
        "generic": result.generic,
        "actual": result.actual,
        "coincidences": result.coincidences,
        "nontrivial": result.nontrivial,
    }
    _deliver(canonical_json(payload), args.out)
    return EXIT_OK


def _cage_or_die(start: StartConfig, array):
    finding = outer_cage(array)
    if finding is None:
        raise NoCageError(
            f"no trivalent outer cage for this extension of {start.name}"
        )
    return finding


def _cage_artifact(args, start: StartConfig) -> str:
    translation = _translation(start, args.axis, args.length)
    array = generate_array(start, translation, args.depth)
    finding = _cage_or_die(start, array)
    radii = [array.shells[i].radius for i in finding.shell_indices]
    if args.emit == "xyz":
        comment = provenance_comment(
            start=start.name, fold=args.axis, length=format_golden(
                translation.length),
            depth=args.depth, band=(min(radii), max(radii)),
        )
        return export_xyz(finding.graph.points, comment, args.bond_scale)
    if args.emit == "off":
        return export_off(finding.graph, finding.census, args.bond_scale)
    return export_csv(finding.graph.points)


def _cmd_extend(args) -> int:
    start = _resolve_config(args.config)
    if args.depth < 1:
        raise UsageError("--depth must be at least 1")
    if args.emit != "json":
        _deliver(_cage_artifact(args, start), args.out)
        return EXIT_OK
    translation = _translation(start, args.axis, args.length)
    row = classify_length(start, translation, args.depth)
    _deliver(canonical_json(row), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    start = _resolve_config(args.config)
    if args.scan:
        try:
            spec = parse_scan_spec(args.scan)
        except ValueError as exc:
            raise ParseFailure(str(exc)) from exc
    else:
        spec = DEFAULT_SCAN_SPEC
    folds = (args.axis,) if args.axis else (2, 3, 5)
    try:
        rows = classify_scan(start, folds, spec)
    except EmptyScanError as exc:
        raise ParseFailure(f"bad scan spec '{args.scan}': {exc}") from exc
    payload = {
        "start": start.name,
        "rows": rows,
        "trivalent_rows": sum(
            1 for row in rows if any(b["trivalent"] for b in row["bands"])
        ),
        "nontrivial_rows": sum(1 for row in rows if row["nontrivial"]),
    }
    _deliver(canonical_json(payload), args.out)
    return EXIT_OK


def _cmd_onion(args) -> int:
    start = _resolve_config(args.config)
    if args.depth < 1:
        raise UsageError("--depth must be at least 1")
    translation = _translation(start, args.axis, args.length)
    report = build_onion(start, translation, args.depth)
    if not report.family:
        raise NoCageError(report.failure or "no trivalent cage")
    text = canonical_json(report.as_dict())
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    stem = Path(args.out)
    stem = stem.with_name(stem.stem)
    files = [(args.out, text)]
    for shell in report.family:
        comment = provenance_comment(
            start=start.name, fold=args.axis,
            length=format_golden(translation.length),
            depth=shell.iteration,
        )
        files.append((f"{stem}.shell{shell.iteration}.xyz",
                      export_xyz(shell.points, comment, args.bond_scale)))
    # every text is rendered before the first write, and a failed write
    # takes back the files written before it, so a failure leaves nothing
    written: list[str] = []
    try:
        for path, content in files:
            _write(path, content)
            written.append(path)
    except UsageError:
        for path in written:
            with contextlib.suppress(OSError):
                Path(path).unlink()
        raise
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        results = run_checks(only=args.only)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(render_table(results), file=sys.stderr)
    _deliver(canonical_json(as_payload(results)), args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_USAGE


def _cmd_export(args) -> int:
    start = _resolve_config(args.config)
    if args.emit == "json":
        _deliver(canonical_json(_config_summary(start)), args.out)
        return EXIT_OK
    if args.emit == "off":
        cages._check_search_budget(len(start))
        graph = cages.trivalence_threshold_search(start.vertices)
        if graph is None:
            raise NoCageError(f"{start.name} has no trivalent bond graph")
        _deliver(export_off(graph, None, args.bond_scale), args.out)
        return EXIT_OK
    if args.emit == "csv":
        _deliver(export_csv(start.vertices), args.out)
        return EXIT_OK
    if args.bond_scale:
        cages._check_search_budget(len(start))
    comment = provenance_comment(start=start.name)
    _deliver(export_xyz(start.vertices, comment, args.bond_scale), args.out)
    return EXIT_OK


_COMMANDS = {
    "group-info": _cmd_group_info,
    "configs": _cmd_configs,
    "pentagon": _cmd_pentagon,
    "extend": _cmd_extend,
    "classify": _cmd_classify,
    "onion": _cmd_onion,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required "
                             f"(one of {', '.join(_COMMANDS)})")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FieldParseError, ParseFailure) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NoCageError, ExportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CAGE
    except (PointBudgetError, ClosureBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
