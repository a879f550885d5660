"""Command-line entry point: figure reproductions and custom sweeps.

Results are written as CSV for external plotting, with a short summary table
on stdout. Exit codes: 0 success, 1 usage error (a bad flag or a bad
configuration value, caught before the first trial), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import re
import sys
from dataclasses import fields

from . import experiments
from .channel import GAIN_MODES
from .experiments import FIGURES, LOS, NLOS, SCHEMES, SWEEP_GRIDS, ConfigError, ScenarioConfig, SweepRow, schemes_for

CSV_HEADER = ",".join(f.name for f in fields(SweepRow))

_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}

#: The numeric ScenarioConfig flags of ``sweep``: (flag, field, type, help). Each
#: stores under its field name and defaults to the field's default.
_CONFIG_FLAGS = (
    ("--carrier-hz", "carrier_hz", float, "carrier frequency"),
    ("--bandwidth-hz", "bandwidth_hz", float, "total bandwidth"),
    ("--subcarriers", "num_subcarriers", int, "OFDM subcarriers"),
    ("--bs-antennas", "num_bs_antennas", int, "BS antennas"),
    ("--ris-elements", "num_ris_elements", int, "surface elements"),
    ("--paths", "num_paths", int, f"user-side paths (default: 1 on {LOS}, {experiments.NLOS_PATHS} on {NLOS})"),
    ("--snr-db", "snr_db", float, "SNR in dB for non-SNR sweeps"),
)

#: Exactly the stripped strings float() accepts: decimal digits with single
#: underscores between them, with an optional point and exponent, or inf,
#: infinity or nan in any case; each with an optional sign.
_DIGITS = r"\d(?:_?\d)*"
_NUMBER = re.compile(
    rf"[+-]?(?:(?:(?:{_DIGITS})?\.{_DIGITS}|{_DIGITS}\.?)(?:[eE][+-]?{_DIGITS})?"
    r"|[iI][nN][fF](?:[iI][nN][iI][tT][yY])?|[nN][aA][nN])"
)

# glibc mallopt parameters. 32 MiB is glibc's 64-bit ceiling for the mmap
# threshold, above every preset's largest block: the nlos chunk of five
# (128, 64) path tables, 640 KiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_THRESHOLD_BYTES = 32 << 20


class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 (argparse hook)
        raise UsageError(message)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):  # a flag whose default is None states its own in the help
        return action.help if action.default is None else super()._get_help_string(action)


def _config_usage_error(exc: ConfigError, ns: argparse.Namespace) -> UsageError:
    """The error of a bad input, under the flag that set it: the table's flag, else
    the field's own name as a flag (``--values``, ``--schemes``, ``--trials``).

    A value of the built-in grid goes under ``--var``, since no one flag is at
    fault for it: --subcarriers can push a ris_elements value past the size
    cap, --carrier-hz a bandwidth.
    """
    if exc.field == "values" and ns.values is None:
        return UsageError(f"argument --var: {exc} (a value of the built-in {ns.var} grid)")
    flag = next((f for f, name, *_ in _CONFIG_FLAGS if name == exc.field), "--" + exc.field.replace("_", "-"))
    return UsageError(f"argument {flag}: {exc}")


def _split_floats(raw: str, flag: str) -> tuple[float, ...]:
    tokens = [token.strip() for token in raw.split(",") if token.strip()]
    for token in tokens:
        if not _NUMBER.fullmatch(token):
            raise UsageError(f"argument {flag}: invalid number {token!r}")
    if not tokens:
        raise UsageError(f"argument {flag}: expected at least one value")
    return tuple(map(float, tokens))


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="squintsim",
        description="Monte Carlo rate comparisons of RIS phase-design schemes "
        "over a wideband mmWave OFDM link.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_run_flags(p: _Parser) -> None:
        p.add_argument("--trials", type=int, default=_DEFAULTS["trials"], help="Monte Carlo trials per point")
        p.add_argument("--seed", type=int, default=_DEFAULTS["seed"], help="base seed of the trial substreams")
        p.add_argument(
            "--gain-mode",
            choices=GAIN_MODES,
            default=_DEFAULTS["gain_mode"],
            help="path gains: complex standard normal or pinned to 1",
        )

    presets = ", ".join(f"{fig_id}: {scenario} vs {variable}" for fig_id, (scenario, variable) in FIGURES.items())
    fig = sub.add_parser(
        "figure",
        help=f"run a preset sweep ({presets})",
        formatter_class=_HelpFormatter,
    )
    fig.add_argument("--id", type=int, required=True, choices=tuple(FIGURES), help=f"preset sweep id ({presets})")
    add_run_flags(fig)
    fig.add_argument("--out", default=None, help="CSV output path (default figure<ID>.csv)")

    swp = sub.add_parser(
        "sweep",
        help="run a custom sweep",
        formatter_class=_HelpFormatter,
    )
    # Each ScenarioConfig flag stores under its field name; parse_args builds the config by name.
    swp.add_argument(
        "--scenario", choices=(LOS, NLOS), default=_DEFAULTS["scenario"], help="surface-to-user propagation"
    )
    swp.add_argument("--schemes", help=f"comma-separated list of {', '.join(SCHEMES)} (default: all of the scenario)")
    swp.add_argument("--var", choices=tuple(SWEEP_GRIDS), default="snr_db", help="sweep variable")
    swp.add_argument("--values", default=None, help="comma-separated sweep values (default: built-in grid)")
    for flag, name, kind, description in _CONFIG_FLAGS:
        swp.add_argument(flag, dest=name, type=kind, default=_DEFAULTS[name], help=description)
    add_run_flags(swp)
    swp.add_argument("--out", default="sweep.csv", help="CSV output path")
    return parser


def parse_args(argv) -> tuple:
    """Parse flags into ``(run_sweep arguments, output path)``.

    Raises UsageError on any bad flag or input, before a trial runs; an input
    that ``experiments`` rejects raises ConfigError, whose field names the flag.
    """
    ns = _build_parser().parse_args(argv)
    try:
        if ns.subcommand == "figure":
            job = experiments.figure_sweep(ns.id, ns.trials, ns.seed, ns.gain_mode)
            return job, ns.out if ns.out is not None else f"figure{ns.id}.csv"
        schemes = schemes_for(ns.scenario)
        if ns.schemes is not None:
            schemes = tuple(token.strip() for token in ns.schemes.split(",") if token.strip())
        values = _split_floats(ns.values, "--values") if ns.values is not None else SWEEP_GRIDS[ns.var]
        config = ScenarioConfig(**{name: getattr(ns, name) for name in _DEFAULTS})
        points = experiments.sweep_points(config, ns.var, values)
        experiments.check_schemes(schemes, ns.scenario, max(point.num_ris_elements for point in points))
    except ConfigError as exc:
        raise _config_usage_error(exc, ns) from None
    return (config, schemes, ns.var, values), ns.out


def _fmt(value: float) -> str:
    return format(value, ".10g")


def emit_csv(rows: tuple[SweepRow, ...], path: str) -> None:
    """Write the sweep rows as UTF-8 CSV with 10-significant-digit numbers.

    The rows go to a temporary file in the target directory, which then
    replaces ``path``; a failed write leaves no file under either name.
    """
    directory, name = os.path.split(path)
    tmp_path = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                numbers = map(_fmt, (row.sweep_value, row.mean_rate_bits, row.std_error_bits))
                fields = (row.scenario, row.scheme, row.sweep_variable, *numbers, str(row.trials), str(row.seed))
                fh.write(",".join(fields) + "\n")
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def _print_summary(rows: tuple[SweepRow, ...]) -> None:
    print(f"{'scenario':<9}{'scheme':<14}{'variable':<14}{'value':>14}{'mean rate':>12}{'std err':>11}")
    for row in rows:
        print(
            f"{row.scenario:<9}{row.scheme:<14}{row.sweep_variable:<14}"
            f"{row.sweep_value:>14.6g}{row.mean_rate_bits:>12.4f}{row.std_error_bits:>11.4f}"
        )


def _reuse_freed_blocks() -> None:
    """Keep freed channel-sized blocks in the heap of this process, on glibc.

    glibc serves a block at or above its mmap threshold with a fresh mapping,
    and its dynamic threshold only rises to the size of the last freed mapped
    block, so every same-size (K, M) table or chunk of path tables is mapped and
    faulted in again. Free memory above the trim threshold at the top of the
    heap goes back to the kernel as well, so both thresholds are raised.
    Library callers keep their allocator as it is. A no-op off Linux and
    where libc has no ``mallopt``.
    """
    if sys.platform != "linux":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD_BYTES)


def main(argv=None) -> int:
    try:
        job, output_path = parse_args(argv if argv is not None else sys.argv[1:])
    except UsageError as exc:
        print(f"squintsim: error: {exc}", file=sys.stderr)
        return 1

    _reuse_freed_blocks()
    try:
        rows = experiments.run_sweep(*job)
        emit_csv(rows, output_path)
        _print_summary(rows)
        print(f"wrote {len(rows)} rows to {output_path}")
    except Exception as exc:  # noqa: BLE001 (single CLI boundary)
        print(f"squintsim: failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
