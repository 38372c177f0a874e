"""Command-line front end.

Commands
--------
table1     render the reference operating table (display mimics the
           one-significant-figure engineering notation, exports keep
           full precision)
analytic   evaluate the closed-form error budget at one operating point
simulate   run the Monte Carlo engine (plain or tail-stratified)
sweep      scan a*delta0 values, report (E0, E2) series and the fitted
           log-log slope of each E2 series against E0, null where
           analytic.fit_loglog_slope determines no line
roundtrip  exhaustive codec self-test

Every result document embeds a run manifest (command, parameters, tool
version, timestamp), which ``table`` and ``csv`` reports carry as two
``#`` header lines; rerunning with the recorded parameters reproduces
the numerical content byte-for-byte.  Exit status is 2 on parameter or
I/O errors and 1 when the roundtrip self-test fails, never nonzero on
statistical outcomes; an ``--out`` path that cannot be written is refused
before the command runs.

``main`` parses with one parser per process, built on its first call, so
repeated in-process calls (a benchmark, a script) do not rebuild the
argparse tree.  Each command's ``run`` and ``render`` defaults are bound
when that parser is built: a test that stubs out a command's work
monkeypatches what the command calls (``cli.read_byte``,
``cli.run_trials``), not ``cmd_*`` itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analytic import (
    ChannelPoint,
    baseline_approximation,
    fit_loglog_slope,
    protected_rates,
    ratio_approximation,
    regime_approximations,
    scaling_sweep,
    table1,
)
from .codec import (
    BITS_PER_WORD, CodeBook, encode, enumerate_codewords, parity_ok, read_byte
)
from .channel import _whole_number, five_level_grid
from .montecarlo import (
    _MAX_COUNT,
    _MAX_SUBTRIALS,
    SimConfig,
    estimate_to_dict,
    run_stratified,
    run_trials,
)

__all__ = ["main", "format_sig1"]


def format_sig1(x: float) -> str:
    """One-significant-figure engineering notation, e.g. 5.E-06."""
    if x == 0:
        return "0.E+00"
    return f"{x:.0E}".replace("E", ".E")


# ---------------------------------------------------------------- helpers


def _load_config_file(path: str) -> dict:
    """Flat key = value file mirroring flag names; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _as_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"must be a boolean, got {text!r}")


def _apply_config(args, parser: argparse.ArgumentParser, path: str) -> None:
    """Fill each flag not given on the command line from the config file,
    parsed as the flag would parse it, so the manifest records it."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices[args.command]._actions}
    for key, raw in _load_config_file(path).items():
        flag, name = flags.get(key), key.replace("_", "-")
        if flag is None or key in ("help", "config"):
            raise ValueError(f"{path}: {name!r} is not a flag of {args.command}")
        if hasattr(args, key):
            continue
        try:
            val = _as_bool(raw) if flag.nargs == 0 else (flag.type or str)(raw)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{path}: {name} {exc}") from None
        if flag.choices is not None and val not in flag.choices:
            raise ValueError(f"{path}: {name} must be one of {flag.choices}")
        # a store_true switch has no --no- form: false is the same as absent
        if val is not False or isinstance(flag, argparse.BooleanOptionalAction):
            setattr(args, key, val)


def _whole(minimum: int, maximum: float = math.inf):
    """Argument type: a whole number in [minimum, maximum], also in 1e6-style notation."""
    bounds = f">= {minimum}" + (f" and <= {maximum}" if maximum < math.inf else "")

    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            try:
                val = _whole_number("value", float(text))
            except ValueError:
                val = None
        if val is None or not minimum <= val <= maximum:
            raise argparse.ArgumentTypeError(f"must be a whole number {bounds}, got {text!r}")
        return val

    return parse


# SimConfig's bounds: a count must fit numpy's int64, as Generator.binomial's
# n does; so must the trials that --subtrials sets, 4 * --subtrials
_count = _whole(1, _MAX_COUNT)
_subtrials = _whole(1, _MAX_SUBTRIALS)


def _channel_flags(args) -> tuple[float, float]:
    """(a_w, tail) from --aw and --tail, ChannelPoint's defaults where absent."""
    return getattr(args, "aw", ChannelPoint.a_w), getattr(args, "tail", ChannelPoint.tail)


def _resolve_point(args) -> tuple[float, float, float]:
    """(a_delta0, a_w, tail) from --a-delta0 xor --exp-margin plus flags."""
    ad0 = getattr(args, "a_delta0", None)
    em = getattr(args, "exp_margin", None)
    if (ad0 is None) == (em is None):
        raise ValueError("give exactly one of --a-delta0 and --exp-margin")
    if em is not None:
        if not 0.0 < em < 1.0:
            raise ValueError(f"--exp-margin must be in (0, 1), got {em}")
        ad0 = -math.log(em)
    return (ad0, *_channel_flags(args))


def _check_out(path: str) -> None:
    """Raise now the OSError that writing the report to path would raise,
    leaving the file system as it was; a path that exists as neither file
    nor directory (a pipe, a device, a dangling link) is left to the write."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        os.unlink(path)
    except FileExistsError:
        if os.path.isfile(path) or os.path.isdir(path):
            os.close(os.open(path, os.O_WRONLY))  # open(path, "w") minus truncation


def _emit(doc: dict, fmt: str, out: str | None, render_table) -> None:
    """Write the result document in the requested format: json whole, csv
    and table as the manifest header over the body lines their renderer
    makes from the results block."""
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        m = doc["manifest"]
        params = " ".join(f"{k}={v}" for k, v in m["params"].items())
        render = _csv_lines if fmt == "csv" else render_table
        lines = [
            f"# command={m['command']} version={m['version']} numpy={m['numpy']} "
            f"created={m['created_utc']}",
            f"# params: {params}",
            *render(doc["results"]),
        ]
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_lines(results: dict) -> list[str]:
    rows = results.get("rows")
    if rows is None:
        flat = _flatten(results)
        return [",".join(flat), ",".join(_csv_num(v) for v in flat.values())]
    header = list(rows[0])
    return [
        ",".join(header),
        *(",".join(_csv_num(row.get(k)) for k in header) for row in rows),
        *(f"# {k}={_csv_num(v)}" for k, v in results.items() if k != "rows"),
    ]


def _csv_num(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, dict):
        return json.dumps(v)
    return str(v)


def _flatten(d, prefix: str = "") -> dict:
    """Leaves of nested dicts and lists keyed by dotted paths (list items by index)."""
    out = {}
    for k, v in d.items() if isinstance(d, dict) else enumerate(d):
        key = f"{prefix}{k}"
        if isinstance(v, (dict, list, tuple)):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


# ---------------------------------------------------------------- commands


def cmd_table1(args) -> dict:
    return {"rows": [asdict(r) for r in table1()]}


def _table1_lines(results: dict) -> list[str]:
    keys = ("exp_margin", "tail", "e0", "e2", "ratio")
    return ["exp_margin tail   e0     e2     e2/e0"] + [
        " ".join(format_sig1(r[k]) for k in keys) for r in results["rows"]
    ]


def cmd_analytic(args) -> dict:
    ad0, aw, tail = _resolve_point(args)
    point = ChannelPoint(a_delta0=ad0, a_w=aw, tail=tail)
    protected = asdict(protected_rates(point))
    e2_tail, e2_swap = regime_approximations(point)
    if tail == 0.0:
        regime = "noiseless"
    elif tail < math.exp(-aw):
        regime = "tail_dominated"
    else:
        regime = "swap_dominated"
    return {
        "point": {
            "a_delta0": ad0,
            "a_w": aw,
            "tail": tail,
            "a_delta": point.a_delta,
        },
        "baseline": {
            "p0": protected.pop("p0"),
            "e0": protected.pop("e0"),
            "e0_approx": baseline_approximation(point),
        },
        "protected": protected,
        "approximations": {
            "ratio_width_like_margin": ratio_approximation(point),
            "e2_tail_dominated": e2_tail,
            "e2_swap_dominated": e2_swap,
            "applicable_regime": regime,
        },
    }


def _analytic_lines(results: dict) -> list[str]:
    lines = []
    for section, vals in results.items():
        lines.append(f"{section}:")
        for k, v in vals.items():
            lines.append(f"  {k:26s} {v if isinstance(v, str) else f'{v:.15e}'}")
    return lines


# the simulation flags, each named as its SimConfig field but --subtrials;
# a flag not given keeps the field's default
_SIM_FLAGS = ("protected", "trials", "seed", "shards", "stratified", "data_mode", "subtrials")


def _sim_config(args, a_delta0: float, aw: float, tail: float) -> SimConfig:
    given = {k: getattr(args, k) for k in _SIM_FLAGS if hasattr(args, k)}
    if "subtrials" in given:
        given["subtrials_per_stratum"] = given.pop("subtrials")
    if given.get("stratified"):
        # each stratum is one stream; the run draws --trials words, which
        # --subtrials S sets to 4 * S, split by stratum weight
        if "shards" in given:
            raise ValueError("--shards does not apply to a stratified run")
        if "subtrials_per_stratum" in given and "trials" in given:
            raise ValueError("--trials does not apply to a stratified run given --subtrials")
    elif "subtrials_per_stratum" in given:
        raise ValueError("--subtrials applies only to a stratified run")
    return SimConfig(a=1.0, tail=tail, width=aw, delta0=a_delta0, **given)


def _estimate(config: SimConfig):
    return run_stratified(config) if config.stratified else run_trials(config)


# error class -> its closed-form rate in ErrorBudget
_BUDGET_FIELDS = {
    "type_i": "e2_i",
    "type_ii": "e2_ii",
    "type_iii": "e2_iii",
    "total": "e2_total",
}


def cmd_simulate(args) -> dict:
    ad0, aw, tail = _resolve_point(args)
    config = _sim_config(args, ad0, aw, tail)
    est = _estimate(config)
    doc = estimate_to_dict(est, config)
    budget = protected_rates(ChannelPoint(a_delta0=ad0, a_w=aw, tail=tail))
    nbits = est.trials * BITS_PER_WORD
    if config.protected:
        doc["analytic"] = {f: getattr(budget, f) for f in _BUDGET_FIELDS.values()}
        analytic = {c: getattr(budget, f) for c, f in _BUDGET_FIELDS.items()}
        rates = {c: n / nbits for c, n in est.per_class.items() if c != "none"}
    else:
        analytic = {"total": budget.e0}
        doc["analytic"] = {"p0": budget.p0, "e0": budget.e0}
        rates = {}
    rates["total"] = est.event_rate_per_bit
    doc["empirical_rates"] = rates
    doc["empirical_over_analytic"] = {
        c: rates[c] / a if a > 0.0 else None for c, a in analytic.items()
    }
    return doc


def _simulate_lines(results: dict) -> list[str]:
    est = results["estimate"]
    return [
        f"trials={est['trials']} events={est['word_error_events']} "
        f"event_rate_per_bit={est['event_rate_per_bit']:.6e} "
        f"ci95=({est['ci95'][0]:.3e}, {est['ci95'][1]:.3e})",
        f"hamming_rate={est['hamming_rate']:.6e}",
        "per_class: " + json.dumps(est["per_class"]),
        "analytic: " + json.dumps(results["analytic"]),
        "empirical/analytic: " + json.dumps(results["empirical_over_analytic"]),
    ]


def cmd_sweep(args) -> dict:
    grid_text = getattr(args, "grid", None)
    if not grid_text:
        raise ValueError("sweep requires --grid with comma-separated a*delta0 values")
    try:
        values = [float(x) for x in grid_text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"--grid must be comma-separated numbers: {exc}") from None
    if not values:
        raise ValueError("empty sweep grid")
    mode = getattr(args, "mode", "analytic")
    # the closed forms use no simulation flag
    unused = [k for k in _SIM_FLAGS if hasattr(args, k)] if mode == "analytic" else []
    if unused:
        flag = unused[0].replace("_", "-")
        raise ValueError(f"--{flag} applies only to a simulated sweep (--mode simulate or both)")
    aw, tail = _channel_flags(args)

    e0s, e2s = scaling_sweep(values, tail=tail, a_w=aw)
    rows = []
    for ad0, e0, e2 in zip(values, e0s, e2s):
        rows.append({"a_delta0": ad0, "e0": float(e0), "e2_analytic": float(e2)})
    slopes = {}
    if mode != "simulate":
        slopes["analytic"] = fit_loglog_slope(e0s, e2s)
    if mode in ("simulate", "both"):
        for row in rows:
            config = _sim_config(args, row["a_delta0"], aw, tail)
            est = _estimate(config)
            row["e2_simulated"] = est.event_rate_per_bit
            row["ci95_lo"], row["ci95_hi"] = est.ci95
        slopes["simulated"] = fit_loglog_slope(e0s, [row["e2_simulated"] for row in rows])
    return {"rows": rows, "slopes": slopes}


def _sweep_lines(results: dict) -> list[str]:
    rows = results["rows"]
    header = list(rows[0])
    return [
        " ".join(f"{h:>14s}" for h in header),
        *(" ".join(f"{_csv_num(row.get(k)):>14s}" for k in header) for row in rows),
        "slopes: " + json.dumps(results["slopes"]),
    ]


def cmd_roundtrip(args) -> dict:
    book = CodeBook.build(5)
    grid = five_level_grid(delta0=1.0, width=0.25)
    checks = {}
    checks["codeword_count_313"] = len(enumerate_codewords(5)) == 313
    ok = True
    for byte in range(256):
        word = encode(byte, book)
        out = read_byte(grid.level_voltage(word), grid, book)
        ok &= out.byte == byte and out.parity_passed and parity_ok(out.word)
    checks["zero_noise_roundtrip_256"] = bool(ok)
    rng = np.random.default_rng(0)
    valid = True
    for _ in range(500):
        volts = rng.uniform(-1.0, grid.levels[-1] + 1.0, 4)
        valid &= parity_ok(read_byte(volts, grid, book).word)
    checks["decoder_outputs_parity_valid"] = bool(valid)
    checks["all_ok"] = all(checks.values())
    return checks


def _roundtrip_lines(results: dict) -> list[str]:
    return [f"{'ok' if v else 'FAIL'}  {k}" for k, v in results.items()]


# ---------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser whose namespace holds exactly the flags given and the
    command's run and render functions: no flag has a default, so
    SimConfig's fields hold the simulation defaults.  ``main`` builds one on
    its first call and reuses it for the process, with run and render bound
    then: to stub a command, patch what it calls, not its ``cmd_*``."""
    parser = argparse.ArgumentParser(
        prog="norsim",
        description="Five-level parity-coded NOR storage: analytics and simulation",
        argument_default=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, about, run, render, point=False, sim=False):
        p = sub.add_parser(name, help=about, argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run, render=render)
        p.add_argument("--config", help="flat key = value file mirroring flag names")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument(
            "--format", choices=("table", "csv", "json"),
            help="output format (default table)",
        )
        if point:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--a-delta0", type=float, help="dimensionless a*delta0")
            g.add_argument(
                "--exp-margin", type=float,
                help="exp(-a*delta0), alternative to --a-delta0",
            )
        if point or sim:
            p.add_argument(
                "--aw", type=float, help=f"dimensionless a*width (default {ChannelPoint.a_w:g})"
            )
            p.add_argument(
                "--tail", type=float, help=f"tail fraction (default {ChannelPoint.tail:g})"
            )
        if sim:
            p.add_argument(
                "--protected", action=argparse.BooleanOptionalAction,
                help="5-level coded system (default) vs 4-level margin sensing",
            )
            p.add_argument(
                "--trials", type=_count, help=f"word trials (default {SimConfig.trials:,})"
            )
            p.add_argument(
                "--seed", type=_whole(0),
                help=f"random seed, a whole number >= 0 (default {SimConfig.seed})",
            )
            p.add_argument(
                "--shards", type=_count, help=f"independent streams (default {SimConfig.shards})"
            )
            p.add_argument(
                "--stratified", action="store_true",
                help="tail-count stratified rare-event estimator",
            )
            p.add_argument(
                "--subtrials", type=_subtrials,
                help="sets --trials to 4 x this: a stratified run draws --trials words, "
                     "split by stratum weight, at least one per stratum",
            )
            p.add_argument(
                "--data-mode", choices=("uniform", "interior"),
                help="written data: uniform bytes or interior-level words",
            )
        return p

    add_command("table1", "render the reference operating table", cmd_table1, _table1_lines)
    add_command("analytic", "closed-form error budget", cmd_analytic, _analytic_lines, point=True)
    add_command("simulate", "Monte Carlo error-rate estimate", cmd_simulate, _simulate_lines,
                point=True, sim=True)
    p_sweep = add_command("sweep", "scan a*delta0 and fit the log-log slope", cmd_sweep,
                          _sweep_lines, sim=True)
    p_sweep.add_argument("--grid", help="comma-separated a*delta0 values")
    p_sweep.add_argument(
        "--mode", choices=("analytic", "simulate", "both"),
        help="which rates to compute per grid point",
    )
    add_command("roundtrip", "exhaustive codec self-test", cmd_roundtrip, _roundtrip_lines)
    return parser


def _public_params(args) -> dict:
    skip = {"command", "run", "render", "config", "out", "format"}
    return {k.replace("_", "-"): v for k, v in sorted(vars(args).items()) if k not in skip}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser: parsing leaves no state on it, so calls share it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "config"):
            _apply_config(args, parser, args.config)
        out = getattr(args, "out", None)
        if out:
            _check_out(out)
        results = args.run(args)
        manifest = {
            "command": args.command,
            "version": __version__,
            "numpy": np.__version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "params": _public_params(args),
            "out": out,
        }
        doc = {"manifest": manifest, "results": results}
        _emit(doc, getattr(args, "format", "table"), out, args.render)
    except (ValueError, OSError) as exc:
        print(f"norsim: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "roundtrip" and not results["all_ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
