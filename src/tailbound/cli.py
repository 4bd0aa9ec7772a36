"""Command-line front end.

Subcommands: bound, compare, sample-size, moments, verify. Flags can also
come from a key=value config file (--config); explicit flags win. The env
var TAILBOUND_SEED overrides any configured seed. Exit codes: 0 success,
2 bad configuration, 3 infeasible moments, 4 solver/oracle failure,
5 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .bennett import bennett_bound
from .distributions import Distribution, make_distribution
from .errors import (
    ConfigError,
    InfeasibleMomentsError,
    InternalConsistencyError,
    OracleError,
    SolverFailureError,
    TailboundError,
)
from .hoeffding import (
    ci_c_bar,
    classical_sample_size,
    hoeffding_bound,
    hoeffding_limit,
    hoeffding_two_sided,
    sample_size_for_ci,
)
from .moments import (
    EnsembleSpec,
    MomentVector,
    Support,
    moments_from_samples,
    read_sample_file,
)
from .oracle import mc_tail

_FAMILIES = ("hoeffding", "bennett", "both")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config(list(argv))
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse reports its own message
        return int(exc.code or 0)
    except InfeasibleMomentsError as exc:
        print(f"error: infeasible moments: {exc}", file=sys.stderr)
        return 3
    except (SolverFailureError, InternalConsistencyError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TailboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailbound",
        description="Moment-based tail bounds for sums of independent "
                    "bounded random variables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute deviation bounds")
    _add_ensemble_flags(p_bound)
    _add_output_flags(p_bound)
    p_bound.add_argument("--family", choices=_FAMILIES, default="hoeffding")
    p_bound.add_argument("--t", required=True,
                         help="thresholds: single value, comma list, or lo:hi:k")
    p_bound.add_argument("--p", default="2", help="comma list of moment orders")
    p_bound.add_argument("--per-var", action="store_true",
                         help="thresholds are per variable; multiplied by n")
    p_bound.add_argument("--two-sided", action="store_true",
                         help="bound |S_n - E S_n| instead (hoeffding only)")
    p_bound.set_defaults(handler=_cmd_bound)

    p_cmp = sub.add_parser("compare",
                           help="classical vs moment-improved bound curve")
    _add_ensemble_flags(p_cmp)
    _add_output_flags(p_cmp)
    p_cmp.add_argument("--t", required=True)
    p_cmp.add_argument("--p", type=int, default=None,
                       help="target moment order (omit with --limit)")
    p_cmp.add_argument("--limit", action="store_true",
                       help="use the all-moments limit as the target")
    p_cmp.add_argument("--per-var", action="store_true")
    p_cmp.set_defaults(handler=_cmd_compare)

    p_size = sub.add_parser("sample-size",
                            help="observations needed for a confidence interval")
    _add_ensemble_flags(p_size)
    _add_output_flags(p_size)
    p_size.add_argument("--t", required=True, help="half-width of the interval")
    p_size.add_argument("--alpha", type=float, required=True)
    p_size.add_argument("--p", type=int, default=2)
    p_size.set_defaults(handler=_cmd_sample_size)

    p_mom = sub.add_parser("moments",
                           help="estimate or evaluate a moment vector")
    _add_ensemble_flags(p_mom)
    _add_output_flags(p_mom)
    p_mom.add_argument("--p", type=int, default=4)
    p_mom.set_defaults(handler=_cmd_moments)

    p_ver = sub.add_parser("verify",
                           help="check bounds against Monte-Carlo tails")
    _add_ensemble_flags(p_ver)
    _add_output_flags(p_ver)
    p_ver.add_argument("--family", choices=_FAMILIES, default="hoeffding")
    p_ver.add_argument("--t", required=True)
    p_ver.add_argument("--p", default="2")
    p_ver.add_argument("--per-var", action="store_true")
    p_ver.add_argument("--trials", type=int, default=1_000_000)
    p_ver.add_argument("--seed", type=int, default=20260809)
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def _add_ensemble_flags(sub):
    sub.add_argument("--dist", help="distribution tag (uniform, bernoulli, "
                                    "point, beta, truncexp)")
    sub.add_argument("--params", default="",
                     help="distribution parameters, e.g. lo=0,hi=1")
    sub.add_argument("--data", help="sample file: one value per line or "
                                    "two-column CSV (id,value)")
    sub.add_argument("--mu", help="inline raw moments, e.g. 0.5,0.333,0.25")
    sub.add_argument("--support", help="interval support LO,HI for --data/--mu")
    sub.add_argument("--upper", type=float,
                     help="upper-only support bound for --data/--mu")
    sub.add_argument("--pos-pth", type=float, default=None,
                     help="bound on E max(X^p, 0) for --mu with --upper")
    sub.add_argument("--inflate", type=float, default=1.0,
                     help="inflation factor for empirical moment upper "
                          "bounds of order >= 2 (upper-only supports)")
    sub.add_argument("--n", type=int, default=1,
                     help="number of i.i.d. copies in the sum")
    sub.add_argument("--config", help="key=value config file mirroring flags")


def _add_output_flags(sub):
    sub.add_argument("--output", help="write results here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


_SWITCHES = ("per_var", "per-var", "two_sided", "two-sided", "limit")


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file entries in front of explicit flags (which win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    if i == 0:
        raise ConfigError("give the subcommand before --config")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    tokens: list[str] = []
    for key, value in _read_config(path):
        flag = "--" + key.replace("_", "-")
        low = value.strip().lower()
        if key in _SWITCHES and low in ("true", "yes", "1"):
            tokens.append(flag)
        elif not (key in _SWITCHES and low in ("false", "no", "0")):
            tokens.extend([flag, value])
    return [rest[0], *tokens, *rest[1:]]


def _read_config(path) -> list[tuple[str, str]]:
    pairs = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _parse_grid(text: str) -> list[float]:
    try:
        if ":" in text:
            lo, hi, k = text.split(":")
            lo, hi = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(
                    f"threshold grid ends must be finite; got {text!r}")
            values = _linspace(lo, hi, int(k))
        else:
            values = [float(v) for v in text.split(",") if v.strip()]
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"cannot parse threshold grid {text!r}: {exc}") from None
    if not values:
        raise ConfigError("empty threshold grid")
    if any(v <= 0.0 for v in values):
        raise ConfigError(f"thresholds must be strictly positive; got {values}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"thresholds must be strictly ascending; got {values}")
    return values


def _linspace(lo: float, hi: float, k: int) -> list[float]:
    """The k points of np.linspace(lo, hi, k) for finite lo and hi, by
    numpy's own arithmetic, so a grid does not need numpy loaded."""
    if k < 0:
        raise ValueError(f"Number of samples, {k}, must be non-negative.")
    div = k - 1
    delta = hi - lo
    if div < 1:
        return [i * delta + lo for i in range(k)]
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + lo for i in range(k)]
    else:
        values = [i * step + lo for i in range(k)]
    values[-1] = hi
    return values


def _parse_p_list(text: str) -> list[int]:
    try:
        ps = [int(v) for v in str(text).split(",") if str(v).strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse order list {text!r}: {exc}") from None
    if not ps or any(p < 1 for p in ps):
        raise ConfigError(f"moment orders must be >= 1; got {text!r}")
    return ps


def _parse_floats(flag: str, texts: list[str]) -> list[float]:
    try:
        return [float(v) for v in texts]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _parse_params(text: str) -> dict:
    params = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"distribution parameter {chunk!r} is not key=value")
        key, value = chunk.split("=", 1)
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"parameter {key!r} has non-numeric value "
                              f"{value!r}") from None
    return params


def _support_from_args(args) -> Support:
    if args.support and args.upper is not None:
        raise ConfigError("give either --support LO,HI or --upper B, not both")
    if args.support:
        parts = args.support.split(",")
        if len(parts) != 2:
            raise ConfigError(f"--support must be LO,HI; got {args.support!r}")
        return Support.interval(*_parse_floats("--support", parts))
    if args.upper is not None:
        return Support.upper_only(args.upper)
    raise ConfigError("--data/--mu need --support LO,HI or --upper B")


def _distribution_from_args(args) -> Distribution:
    if not args.dist:
        raise ConfigError("this command needs --dist")
    return make_distribution(args.dist, **_parse_params(args.params))


def _variable_from_args(args, p: int) -> MomentVector:
    return _law_and_variable(args, p)[1]


def _law_and_variable(args, p: int) -> tuple[Distribution | None, MomentVector]:
    """The --dist law and its order-p vector; no law for --data and --mu."""
    if p < 1:
        raise ConfigError(f"--p must be >= 1; got {p}")
    sources = [s for s in (args.dist, args.data, args.mu) if s]
    if len(sources) != 1:
        raise ConfigError("give exactly one of --dist, --data, --mu")
    if args.dist:
        dist = _distribution_from_args(args)
        return dist, dist.moment_vector(p)
    support = _support_from_args(args)
    if args.data:
        try:
            samples = read_sample_file(args.data)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"cannot read data file {args.data}: {exc}") from None
        mv = moments_from_samples(samples, p, support)
        return None, _inflate(mv, args.inflate)
    mu = _parse_floats("--mu", [v for v in args.mu.split(",") if v.strip()])
    if len(mu) < p:
        raise ConfigError(f"--mu lists {len(mu)} moments but order {p} is needed")
    return None, MomentVector(p, tuple(mu[:p]), support, args.pos_pth)


def _inflate(mv: MomentVector, factor: float) -> MomentVector:
    if factor == 1.0:
        return mv
    if factor < 1.0:
        raise ConfigError(f"--inflate must be >= 1; got {factor}")
    if mv.support.lower is not None:
        raise ConfigError("--inflate only applies to upper-only supports "
                          "(moment upper bounds for above-bounded sums)")
    mu = (mv.mu[0],) + tuple(factor * m for m in mv.mu[1:])
    return MomentVector(mv.p, mu, mv.support, factor * mv.positive_part_pth)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ";".join(map(_fmt, value))
    return str(value)


def _fmt_groups(values, counts) -> str:
    """_fmt of values[g] repeated counts[g] times: each group's value (an
    iid factor's n copies) is formatted once."""
    return ";".join([";".join((_fmt(v),) * count)
                     for v, count in zip(values, counts)])


def _emit(records: list[dict], columns: list[str], args) -> None:
    if args.format == "json":
        import json  # only JSON output needs it

        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        for rec in records:
            lines.append(",".join(_fmt(rec.get(col)) for col in columns))
        text = "\n".join(lines) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(
                f"cannot write output file {args.output}: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

_BOUND_COLUMNS = ["family", "t", "p", "bound", "mode", "d_n", "s_star",
                  "c_values", "alpha", "roots", "y_star", "b", "residual"]


def _grid_orders_families(args):
    """The thresholds, moment orders and bound families of bound/verify."""
    t_grid = _parse_grid(args.t)
    p_list = _parse_p_list(args.p)
    families = ("hoeffding", "bennett") if args.family == "both" else (args.family,)
    if "bennett" in families and any(p < 2 for p in p_list):
        raise ConfigError("the bennett family needs moment orders p >= 2")
    return t_grid, p_list, families


def _cmd_bound(args) -> int:
    t_grid, p_list, families = _grid_orders_families(args)
    if args.two_sided and "bennett" in families:
        raise ConfigError("--two-sided applies to the hoeffding family only")
    p_max = max(p_list)
    dist, mv = _law_and_variable(args, p_max)
    spec = EnsembleSpec.iid_replicate(mv, args.n)
    records = []
    for family in families:
        for p in p_list:
            # a law's vector knows E max(X^p, 0) at its own order only
            spec_p = (EnsembleSpec.iid_replicate(dist.moment_vector(p), args.n)
                      if family == "bennett" and dist is not None else spec)
            for t in t_grid:
                t_abs = t * args.n if args.per_var else t
                if family == "hoeffding":
                    if args.two_sided:
                        result = hoeffding_two_sided(spec, t_abs, p)
                    else:
                        result = hoeffding_bound(spec, t_abs, p)
                else:
                    result = bennett_bound(spec_p, t_abs, p)
                records.append(_bound_row(family, result, args.format))
    _emit(records, _BOUND_COLUMNS, args)
    return 0


def _bound_row(family: str, result, fmt: str) -> dict:
    """One output row of `bound`. A Hoeffding record's factors go to CSV
    as their groups, so c_values is never expanded for it."""
    if fmt == "csv" and family == "hoeffding":
        return {"family": family, "t": result.t, "p": result.p,
                "bound": result.bound, "mode": result.mode,
                "d_n": result.d_n, "s_star": result.s_star,
                "c_values": _fmt_groups(result.c_groups, result.c_counts)}
    return {"family": family, **result.to_json_dict()}


def _cmd_compare(args) -> int:
    t_grid = _parse_grid(args.t)
    if args.limit == (args.p is not None):
        raise ConfigError("give exactly one of --p or --limit")
    if args.limit:
        dist = _distribution_from_args(args)
        mv = dist.moment_vector(2)
    else:
        dist = None
        mv = _variable_from_args(args, args.p)
    spec = EnsembleSpec.iid_replicate(mv, args.n)
    records = []
    for t in t_grid:
        t_abs = t * args.n if args.per_var else t
        classical = hoeffding_bound(spec, t_abs, 1).bound
        if args.limit:
            new = hoeffding_limit(EnsembleSpec.iid_replicate(dist, args.n),
                                  t_abs).bound
        else:
            new = hoeffding_bound(spec, t_abs, args.p).bound
        records.append({
            "t": t,
            "classical_bound": classical,
            "new_bound": new,
            # undefined once the new bound underflows to 0
            "ratio": classical / new if new > 0.0 else None,
        })
    _emit(records, ["t", "classical_bound", "new_bound", "ratio"], args)
    return 0


def _cmd_sample_size(args) -> int:
    t_grid = _parse_grid(args.t)
    if len(t_grid) != 1:
        raise ConfigError("sample-size takes a single half-width --t")
    t = t_grid[0]
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must be in (0, 1); got {args.alpha}")
    mv = _variable_from_args(args, args.p)
    n = sample_size_for_ci(mv, t, args.alpha, args.p)
    record = {
        "alpha": args.alpha,
        "t": t,
        "p": args.p,
        "c_bar": ci_c_bar(mv, t, args.p),
        "classical_n": classical_sample_size(mv.support.width, t, args.alpha),
        "n": n,
    }
    _emit([record], ["alpha", "t", "p", "c_bar", "classical_n", "n"], args)
    return 0


def _cmd_moments(args) -> int:
    mv = _variable_from_args(args, args.p)
    if args.format == "json":
        record = {
            "p": mv.p,
            "mu": list(mv.mu),
            "support": {"lower": mv.support.lower, "upper": mv.support.upper},
            "positive_part_pth": mv.positive_part_pth,
        }
        _emit([record], [], args)
        return 0
    records = [{"k": k, "value": mv.mu[k - 1]} for k in range(1, mv.p + 1)]
    records.append({"k": "positive_part", "value": mv.positive_part_pth})
    records.append({"k": "support_lower", "value": mv.support.lower})
    records.append({"k": "support_upper", "value": mv.support.upper})
    _emit(records, ["k", "value"], args)
    return 0


def _cmd_verify(args) -> int:
    t_grid, p_list, families = _grid_orders_families(args)
    if args.trials < 1000:
        raise ConfigError(f"--trials must be at least 1000; got {args.trials}")
    seed = args.seed
    env_seed = os.environ.get("TAILBOUND_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"TAILBOUND_SEED must be an integer; got {env_seed!r}") from None
    dist = _distribution_from_args(args)
    # a law's vector knows E max(X^p, 0) at its own order only
    specs = {p: EnsembleSpec.iid_replicate(dist.moment_vector(p), args.n)
             for p in p_list}

    lines = []
    failures = 0
    for i, t in enumerate(t_grid):
        t_abs = t * args.n if args.per_var else t
        estimate = mc_tail(dist, args.n, t_abs, trials=args.trials,
                           seed=seed + i)
        for family in families:
            for p in p_list:
                if family == "hoeffding":
                    bound = hoeffding_bound(specs[p], t_abs, p).bound
                else:
                    bound = bennett_bound(specs[p], t_abs, p).bound
                margin = bound + 3.0 * estimate.stderr - estimate.probability
                ok = estimate.compatible_with_bound(bound)
                failures += 0 if ok else 1
                lines.append(
                    f"t={_fmt(t_abs)} p={p} family={family}: "
                    f"bound={_fmt(bound)} mc={_fmt(estimate.probability)} "
                    f"stderr={_fmt(estimate.stderr)} margin={_fmt(margin)} "
                    f"{'ok' if ok else 'VIOLATION'}")
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} violations)"
    lines.append(f"verify: {verdict} over {len(t_grid)} thresholds, "
                 f"trials={args.trials}, seed={seed}")
    _write("\n".join(lines) + "\n", args)
    return 0 if failures == 0 else 5


if __name__ == "__main__":
    sys.exit(main())
