"""Command-line front end.

Commands
--------
table1     render the reference operating table (display mimics the
           one-significant-figure engineering notation, exports keep
           full precision)
analytic   evaluate the closed-form error budget at one operating point
simulate   run the Monte Carlo engine (plain or tail-stratified)
sweep      scan a*delta0 values, report (E0, E2) series and the fitted
           log-log slope
roundtrip  exhaustive codec self-test

Every result document embeds a run manifest (command, parameters, tool
version, timestamp); rerunning with the recorded parameters reproduces
the numerical content byte-for-byte.  Exit status is nonzero exactly on
parameter or I/O errors, never on statistical outcomes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analytic import (
    ChannelPoint,
    baseline_approximation,
    baseline_rates,
    fit_loglog_slope,
    protected_rates,
    ratio_approximation,
    regime_approximations,
    scaling_sweep,
    table1,
)
from .codec import CodeBook, encode, enumerate_codewords, parity_ok, read_byte
from .channel import five_level_grid
from .montecarlo import (
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
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _as_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


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


def _whole(minimum: int):
    """Argument type: a whole number >= ``minimum``, also in 1e6-style notation."""

    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            try:
                val = float(text)
            except ValueError:
                val = math.nan
            val = int(val) if val.is_integer() else None
        if val is None or val < minimum:
            raise argparse.ArgumentTypeError(
                f"must be a whole number >= {minimum}, got {text!r}"
            )
        return val

    return parse


_count = _whole(1)


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
    return ad0, getattr(args, "aw", 0.0), getattr(args, "tail", 1.0)


def _emit(doc: dict, fmt: str, out: str | None, render_table) -> None:
    """Write the result document in the requested format."""
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        text = _render_csv(doc)
    else:
        text = render_table(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _manifest_comment_lines(doc: dict) -> list[str]:
    m = doc["manifest"]
    lines = [
        f"# command={m['command']} version={m['version']} numpy={m['numpy']} "
        f"created={m['created_utc']}"
    ]
    params = " ".join(f"{k}={v}" for k, v in m["params"].items())
    lines.append(f"# params: {params}")
    return lines


def _render_csv(doc: dict) -> str:
    lines = _manifest_comment_lines(doc)
    rows = doc["results"].get("rows")
    if rows is None:
        flat = _flatten(doc["results"])
        lines.append(",".join(flat))
        lines.append(",".join(_csv_num(v) for v in flat.values()))
    else:
        header = list(rows[0])
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_csv_num(row.get(k)) for k in header))
        for k, v in doc["results"].items():
            if k != "rows":
                lines.append(f"# {k}={_csv_num(v)}")
    return "\n".join(lines) + "\n"


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
    rows = [
        {
            "exp_margin": r.exp_margin,
            "tail": r.tail,
            "e0": r.e0,
            "e2": r.e2,
            "ratio": r.ratio,
        }
        for r in table1()
    ]
    return {"rows": rows}


def _table1_text(doc: dict) -> str:
    lines = _manifest_comment_lines(doc)
    lines.append("exp_margin tail   e0     e2     e2/e0")
    for r in doc["results"]["rows"]:
        lines.append(
            f"{format_sig1(r['exp_margin'])} {format_sig1(r['tail'])} "
            f"{format_sig1(r['e0'])} {format_sig1(r['e2'])} {format_sig1(r['ratio'])}"
        )
    return "\n".join(lines) + "\n"


def cmd_analytic(args) -> dict:
    ad0, aw, tail = _resolve_point(args)
    point = ChannelPoint(a_delta0=ad0, a_w=aw, tail=tail)
    budget = protected_rates(point)
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
            "p0": budget.p0,
            "e0": budget.e0,
            "e0_approx": baseline_approximation(point),
        },
        "protected": {
            "e2_i": budget.e2_i,
            "e2_ii": budget.e2_ii,
            "e2_iii": budget.e2_iii,
            "e2_total": budget.e2_total,
            "ratio": budget.ratio,
        },
        "approximations": {
            "ratio_width_like_margin": ratio_approximation(point),
            "e2_tail_dominated": e2_tail,
            "e2_swap_dominated": e2_swap,
            "applicable_regime": regime,
        },
    }


def _analytic_text(doc: dict) -> str:
    lines = _manifest_comment_lines(doc)
    for section, vals in doc["results"].items():
        lines.append(f"{section}:")
        for k, v in vals.items():
            lines.append(f"  {k:26s} {v if isinstance(v, str) else f'{v:.15e}'}")
    return "\n".join(lines) + "\n"


# simulation flag -> SimConfig field; a flag not given keeps the field's default
_SIM_FIELDS = {
    "protected": "protected",
    "trials": "trials",
    "seed": "seed",
    "shards": "shards",
    "stratified": "stratified",
    "data_mode": "data_mode",
    "subtrials": "subtrials_per_stratum",
}


def _sim_config(args, a_delta0: float, aw: float, tail: float) -> SimConfig:
    given = {f: getattr(args, k) for k, f in _SIM_FIELDS.items() if hasattr(args, k)}
    if given.get("stratified"):
        # each stratum is one stream of --subtrials words, or --trials / 4
        if "shards" in given:
            raise ValueError("--shards does not apply to a stratified run")
        if "trials" in given and "subtrials_per_stratum" in given:
            raise ValueError("--trials does not apply to a stratified run given --subtrials")
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
    point = config.point()
    nbits = est.trials * 8
    if config.protected:
        budget = protected_rates(point)
        doc["analytic"] = {f: getattr(budget, f) for f in _BUDGET_FIELDS.values()}
        analytic = {c: getattr(budget, f) for c, f in _BUDGET_FIELDS.items()}
        rates = {c: n / nbits for c, n in est.per_class.items() if c != "none"}
    else:
        p0, e0 = baseline_rates(point)
        analytic = {"total": e0}
        doc["analytic"] = {"p0": p0, "e0": e0}
        rates = {}
    rates["total"] = est.event_rate_per_bit
    doc["empirical_rates"] = rates
    doc["empirical_over_analytic"] = {
        c: _safe_ratio(rates[c], a) for c, a in analytic.items()
    }
    return doc


def _safe_ratio(num: float, den: float) -> float | None:
    return num / den if den > 0.0 else None


def _simulate_text(doc: dict) -> str:
    lines = _manifest_comment_lines(doc)
    est = doc["results"]["estimate"]
    lines.append(
        f"trials={est['trials']} events={est['word_error_events']} "
        f"event_rate_per_bit={est['event_rate_per_bit']:.6e} "
        f"ci95=({est['ci95'][0]:.3e}, {est['ci95'][1]:.3e})"
    )
    lines.append(f"hamming_rate={est['hamming_rate']:.6e}")
    lines.append("per_class: " + json.dumps(est["per_class"]))
    lines.append("analytic: " + json.dumps(doc["results"]["analytic"]))
    lines.append(
        "empirical/analytic: " + json.dumps(doc["results"]["empirical_over_analytic"])
    )
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> dict:
    grid_text = getattr(args, "grid", None)
    if not grid_text:
        raise ValueError("sweep requires --grid with comma-separated a*delta0 values")
    values = [float(x) for x in grid_text.split(",") if x.strip()]
    if not values:
        raise ValueError("empty sweep grid")
    mode = getattr(args, "mode", "analytic")
    aw = getattr(args, "aw", 0.0)
    tail = getattr(args, "tail", 1.0)

    e0s, e2s = scaling_sweep(values, tail=tail, a_w=aw)
    rows = []
    for ad0, e0, e2 in zip(values, e0s, e2s):
        rows.append({"a_delta0": ad0, "e0": float(e0), "e2_analytic": float(e2)})
    slopes = {}
    if mode != "simulate":
        slopes["analytic"] = fit_loglog_slope(e0s, e2s)
    if mode in ("simulate", "both"):
        sim = []
        for row in rows:
            config = _sim_config(args, row["a_delta0"], aw, tail)
            est = _estimate(config)
            row["e2_simulated"] = est.event_rate_per_bit
            row["ci95_lo"], row["ci95_hi"] = est.ci95
            sim.append(est.event_rate_per_bit)
        slopes["simulated"] = fit_loglog_slope(e0s, sim) if min(sim) > 0 else None
    return {"rows": rows, "slopes": slopes}


def _sweep_text(doc: dict) -> str:
    lines = _manifest_comment_lines(doc)
    rows = doc["results"]["rows"]
    header = list(rows[0])
    lines.append(" ".join(f"{h:>14s}" for h in header))
    for row in rows:
        lines.append(" ".join(f"{_csv_num(row.get(k)):>14s}" for k in header))
    lines.append("slopes: " + json.dumps(doc["results"]["slopes"]))
    return "\n".join(lines) + "\n"


def cmd_roundtrip(args) -> dict:
    book = CodeBook.build(5)
    grid = five_level_grid(delta0=1.0, width=0.25)
    checks = {}
    checks["codeword_count_313"] = len(enumerate_codewords(5)) == 313
    ok = True
    for byte in range(256):
        word = encode(byte, book)
        volts = [grid.l0 + grid.pitch * s for s in word]
        out = read_byte(volts, grid, book)
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


def _roundtrip_text(doc: dict) -> str:
    lines = _manifest_comment_lines(doc)
    for k, v in doc["results"].items():
        lines.append(f"{'ok' if v else 'FAIL'}  {k}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- driver

_COMMANDS = {
    "table1": (cmd_table1, _table1_text),
    "analytic": (cmd_analytic, _analytic_text),
    "simulate": (cmd_simulate, _simulate_text),
    "sweep": (cmd_sweep, _sweep_text),
    "roundtrip": (cmd_roundtrip, _roundtrip_text),
}


def build_parser() -> argparse.ArgumentParser:
    """Parser whose namespace holds exactly the flags given: no flag has a
    default, so SimConfig's fields hold the simulation defaults."""
    parser = argparse.ArgumentParser(
        prog="norsim",
        description="Five-level parity-coded NOR storage: analytics and simulation",
        argument_default=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, about, point=False, sim=False):
        p = sub.add_parser(name, help=about, argument_default=argparse.SUPPRESS)
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
            p.add_argument("--aw", type=float, help="dimensionless a*width (default 0)")
            p.add_argument("--tail", type=float, help="tail fraction (default 1)")
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
                "--subtrials", type=_count,
                help="sub-trials per stratum (stratified runs)",
            )
            p.add_argument(
                "--data-mode", choices=("uniform", "interior"),
                help="written data: uniform bytes or interior-level words",
            )
        return p

    add_command("table1", "render the reference operating table")
    add_command("analytic", "closed-form error budget", point=True)
    add_command("simulate", "Monte Carlo error-rate estimate", point=True, sim=True)
    p_sweep = add_command("sweep", "scan a*delta0 and fit the log-log slope", sim=True)
    p_sweep.add_argument("--grid", help="comma-separated a*delta0 values")
    p_sweep.add_argument(
        "--mode", choices=("analytic", "simulate", "both"),
        help="which rates to compute per grid point",
    )
    add_command("roundtrip", "exhaustive codec self-test")
    return parser


def _public_params(args) -> dict:
    skip = {"command", "config", "out", "format"}
    return {k.replace("_", "-"): v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "config"):
            _apply_config(args, parser, args.config)
        out = getattr(args, "out", None)
        runner, renderer = _COMMANDS[args.command]
        results = runner(args)
        manifest = {
            "command": args.command,
            "version": __version__,
            "numpy": np.__version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "params": _public_params(args),
            "out": out,
        }
        doc = {"manifest": manifest, "results": results}
        _emit(doc, getattr(args, "format", "table"), out, renderer)
    except (ValueError, OSError) as exc:
        print(f"norsim: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "roundtrip" and not results["all_ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
