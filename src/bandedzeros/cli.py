"""Command-line entry points.

One invocation produces exactly one artifact: a CSV table or a JSON
summary.  Every artifact starts with a metadata record carrying the
sha256 of the resolved configuration and the package/library versions,
and all floats are written with 17 significant digits, so a rerun of
the same command reproduces the file byte for byte.

Commands can be driven by flags or by ``run config.json`` with a JSON
object holding ``"command"`` plus the command's flag names without the
dashes; unknown keys are rejected by name.  ``_COMMANDS`` declares each
command once: its handler, its help and its flags, from which the
parser, the keys a config may hold and the dispatch all follow.  Each
flag's entry names its ``required``, its ``choices`` and its ``parse``.
``_run_command`` checks each config, from flags or from ``run``, against
``required`` and ``choices`` and checks ``--out``, which every command
takes; it hashes the config as given, then parses every given value,
whatever the mode, and writes the handler's artifact.  Handlers read
typed values and check only rules that involve more than one key, among
them that a flag the chosen mode never reads is refused.  Exit codes: 0
on success, 2 on a validation problem, 3 when a computation fails
numerically or runs out of memory.
"""

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__
from .bandop import build_truncation, trace_table, variance_bound, variance_moment
from .errors import (
    ConfigError,
    NumericalFailure,
    OracleScaleError,
    SchemeError,
)
from .freeprob import (
    curve_hermite,
    curve_laguerre,
    curve_moments,
    free_add,
    free_mul,
    stieltjes_density,
)
from .measures import (
    ArcsineMixture,
    AtomicMeasure,
    MarchenkoPasturLaw,
    SemicircleLaw,
)
from .mop import mop_scheme
from .recurrence import CLASSICAL_ENSEMBLES, classical_scheme, kva_functions
from .sampler import _KINDS as _MODELS
from .sampler import STREAM_VERSION, MatrixModelSpec, mc_moments, realize_diagonal
from .zeros import reality_check, spectrum, zero_moments

__all__ = ["main"]

_MOP_KINDS = ("multiple-hermite", "multiple-laguerre")
_CURVE_KINDS = ("hermite", "laguerre")


# ---------------------------------------------------------------------------
# config plumbing


def _require(config, key):
    """config[key]; an absent or null value is missing."""
    if config.get(key) is None:
        raise ConfigError(f"missing key {key!r}")
    return config[key]


def _as_int(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    try:
        out = int(str(value), 10) if isinstance(value, str) else int(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
    if isinstance(value, float) and value != out:
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return out


def _as_number(value, key):
    """Exact-friendly scalar: strings parse as fractions/decimals.  The
    numerics run in doubles, so the value must be a finite float."""
    if isinstance(value, str):
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        number = value
    else:
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        finite = math.isfinite(number)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _as_float(value, key):
    return float(_as_number(value, key))


def _split(value, key):
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigError(f"{key}: expected a comma list or array, got {value!r}")
    if not parts:
        raise ConfigError(f"{key}: empty list")
    return parts


def _int_list(value, key):
    return [_as_int(p, key) for p in _split(value, key)]


def _number_list(value, key):
    return [_as_number(p, key) for p in _split(value, key)]


def _float_list(value, key):
    return [_as_float(p, key) for p in _split(value, key)]


def _parse_law(text, key):
    """Measure from a compact spec: sc | mp:RATE | point:X | atoms:X@W,...

    Numbers may be fractions ("1/2") and are kept exact.
    """
    if not isinstance(text, str):
        raise ConfigError(f"{key}: expected a law string, got {text!r}")
    head, _, rest = text.partition(":")
    try:
        if head == "sc" and not rest:
            return SemicircleLaw()
        if head == "mp":
            return MarchenkoPasturLaw(Fraction(rest))
        if head == "point":
            return AtomicMeasure([(Fraction(rest), Fraction(1))])
        if head == "atoms":
            atoms = []
            for piece in rest.split(","):
                loc, sep, weight = piece.partition("@")
                if not sep:
                    raise ValueError(piece)
                atoms.append((Fraction(loc), Fraction(weight)))
            return AtomicMeasure(atoms)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: malformed law {text!r} ({exc})") from None
    raise ConfigError(f"{key}: unknown law {text!r} (use sc, mp:RATE, point:X, atoms:X@W,...)")


def _ranks(value, key):
    """Rank list; a JSON number is a one-rank list."""
    return _int_list([value] if isinstance(value, (int, float)) else value, key)


def _single_n(value, key):
    ns = _ranks(value, key)
    if len(ns) != 1:
        raise ConfigError(f"{key}: this command takes a single truncation rank")
    if ns[0] < 1:
        raise ConfigError(f"{key}: need a positive rank, got {ns[0]}")
    return ns[0]


def _sweep_ns(value, key):
    ns = _ranks(value, key)
    if any(n < 1 for n in ns):
        raise ConfigError(f"{key}: ranks must be positive")
    if list(ns) != sorted(set(ns)):
        raise ConfigError(f"{key}: sweep ranks must be strictly ascending")
    return ns


def _moment_order(value, key):
    order = _as_int(value, key)
    if order < 0:
        raise ConfigError(f"{key}: need a nonnegative order, got {order}")
    return order


def _positive_int(value, key):
    n = _as_int(value, key)
    if n < 1:
        raise ConfigError(f"{key}: need a positive integer, got {n}")
    return n


def _positive_float(value, key):
    x = _as_float(value, key)
    if x <= 0:
        raise ConfigError(f"{key}: need a positive number, got {x}")
    return x


def _switch(value, key):
    if not isinstance(value, bool):  # bool("false") would be True
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value


def _config_sha(config) -> str:
    """sha256 of the config without its output path: the same computation
    written to two paths hashes the same."""
    computed = {key: value for key, value in config.items() if key != "out"}
    blob = json.dumps(computed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _meta(command, config) -> dict:
    return {
        "command": command,
        "config_sha256": _config_sha(config),
        "versions": {
            "bandedzeros": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(path, meta, columns, rows):
    lines = ["# meta " + json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _unread(config, keys, mode):
    """Refuse each of ``keys`` given to a mode that never reads it."""
    for key in keys:
        if key in config:
            raise ConfigError(f"{key}: not read {mode}")


def _classical_params(config):
    return {key: config[key] for key in ("alpha", "beta") if key in config}


def _scheme_from(config):
    """Recurrence scheme from either classical or multi-index keys."""
    if "scheme" in config:
        _unread(config, ("kind", "q", "a"), "with scheme")
        return classical_scheme(config["scheme"], **_classical_params(config))
    if "kind" not in config:
        raise ConfigError("missing key 'scheme' (or 'kind')")
    _unread(config, ("beta",), "with kind")
    a, q = _require(config, "a"), _require(config, "q")
    return mop_scheme(config["kind"], a=a, q=q, alpha=config.get("alpha"))


def _loglog_slope(ns, values):
    """Least-squares slope of log(value) against log(N); nan if fewer
    than two positive entries survive."""
    pts = [(n, v) for n, v in zip(ns, values) if v > 0]
    if len(pts) < 2:
        return float("nan")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


_TRACE_COLUMNS = (
    "N",
    "ell",
    "mean",
    "zero_side",
    "gap",
    "gap_bound",
    "variance",
    "variance_bound",
)


def _ell0_row(N):
    # Length-zero paths cannot leave the starting site, so every ell = 0
    # statistic is pinned: both traces are N/N and nothing crosses the
    # boundary.
    return (N, 0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_traces(config):
    scheme = _scheme_from(config)
    rows = []
    for n in config["n"]:
        rows.append(_ell0_row(n))
        rows.extend(trace_table(scheme, n, config["moments"]))
    return _TRACE_COLUMNS, rows


def _cmd_zeros(config):
    scheme = _scheme_from(config)
    if config.get("format", "csv") == "csv":
        _unread(config, ("moments",), "in CSV mode")
        order = None
    else:
        order = _require(config, "moments")
    measure = spectrum(build_truncation(scheme, config["n"], 0))
    if order is None:
        return ("index", "re", "im"), [
            (idx, z.real, z.imag) for idx, z in enumerate(measure.points)
        ]
    moments, residuals = zero_moments(measure, order)
    real, max_imag = reality_check(measure)
    return {
        "N": config["n"],
        "moments": moments.floats(),
        "imag_residuals": residuals,
        "max_imag": max_imag,
        "real": real,
        "route": measure.route,
        "certified": measure.certified,
    }


def _cmd_gap_sweep(config):
    scheme = _scheme_from(config)
    ns, order = config["n"], config["moments"]
    # row ell of table[n] is the traces row (N = n, ell)
    table = {n: [_ell0_row(n)] + trace_table(scheme, n, order) for n in ns}
    rows = []
    for ell in range(order + 1):
        slope = _loglog_slope(ns, [table[n][ell][4] for n in ns])
        rows.extend((*table[n][ell][:6], slope) for n in ns)
    return ("N", "ell", "mean", "zero_side", "gap", "gap_bound", "slope"), rows


def _cmd_variance_sweep(config):
    scheme = _scheme_from(config)
    ns = config["n"]
    rows = []
    for ell in range(config["moments"] + 1):
        variances = [variance_moment(scheme, n, ell) for n in ns]
        bounds = [variance_bound(scheme, n, ell) if ell else 0.0 for n in ns]
        slope = _loglog_slope(ns, variances)
        rows.extend(
            (n, ell, v, b, slope) for n, v, b in zip(ns, variances, bounds)
        )
    return ("N", "ell", "variance", "variance_bound", "slope"), rows


def _cmd_kva(config):
    a_fn, b_fn = kva_functions(config["scheme"], **_classical_params(config))
    mixture = ArcsineMixture(a_fn, b_fn, order=config.get("order", 200))
    if "density" in config:
        _unread(config, ("moments",), "with density")
        return ("x", "density"), [(x, mixture.density(x)) for x in config["density"]]
    order = _require(config, "moments")
    return ("ell", "moment"), [(ell, mixture.moment(ell)) for ell in range(order + 1)]


def _cmd_free_conv(config):
    convolve = free_add if config["op"] == "add" else free_mul
    moments = convolve(config["mu"], config["nu"], config["moments"])
    payload = {"op": config["op"], "moments": moments.floats()}
    if all(isinstance(v, (int, Fraction)) for v in moments.values):
        payload["moments_exact"] = [str(v) for v in moments.values]
    return payload


def _curve_from(config):
    q, a = config["q"], config["a"]
    if config["kind"] == "hermite":
        _unread(config, ("alpha",), "by the hermite curve")
        return curve_hermite(q, a)
    return curve_laguerre(q, a, config.get("alpha", 0))


def _cmd_curve(config):
    curve = _curve_from(config)
    if "density" in config:
        _unread(config, ("moments",), "with density")
        eps, richardson = config.get("eps", 1e-6), config.get("richardson", False)
        return ("x", "density"), [
            (x, stieltjes_density(curve, x, eps=eps, richardson=richardson))
            for x in config["density"]
        ]
    _unread(config, ("eps", "richardson"), "without density")
    order = _require(config, "moments")
    return {"kind": config["kind"], "moments": curve_moments(curve, order).floats()}


def _cmd_sample(config):
    model, n = config["model"], config["n"]
    source = None
    if model in ("gue_source", "wishart_cov"):
        source = realize_diagonal(_require(config, "ratios"), _require(config, "atoms"), n)
    else:
        _unread(config, ("ratios", "atoms"), f"by model {model!r}")
    samples, seed = config["samples"], config.get("seed", 0)
    spec = MatrixModelSpec(kind=model, N=n, alpha=config.get("alpha", 0.0), source=source)
    mean, var, se = mc_moments(spec, config["moments"], samples, seed)
    return {
        "meta": {"stream_version": STREAM_VERSION},
        "model": model,
        "N": n,
        "samples": samples,
        "seed": seed,
        "mean": mean.floats(),
        "var": [float(v) for v in var],
        "se": [float(s) for s in se],
    }


# ---------------------------------------------------------------------------
# dispatch


class _Command(NamedTuple):
    """A command: ``handler(config)`` returns its artifact, (columns, rows)
    for a CSV table or a dict for a JSON summary, whose own "meta" entry
    extends the meta record.  Each flag is (name, argparse keyword
    arguments): it parses as --name and is the config key name, and
    ``_run_command`` applies its ``required`` and ``choices`` to every
    config, then hands the handler each given value as its
    ``parse(value, key)`` returns it."""

    handler: Callable
    help: str
    flags: tuple


_LAW = "law: sc | mp:RATE | point:X | atoms:X@W,..."
_CLASSICAL_FLAGS = (
    ("scheme", dict(choices=tuple(CLASSICAL_ENSEMBLES), help="classical ensemble")),
    ("alpha", dict(parse=_as_float, help="ensemble parameter, where applicable")),
    ("beta", dict(parse=_as_float, help="second ensemble parameter (jacobi, meixner)")),
)
_SCHEME_FLAGS = (
    *_CLASSICAL_FLAGS,
    ("kind", dict(choices=_MOP_KINDS, help="multi-index family")),
    ("q", dict(parse=_number_list, help="comma list of ratios, e.g. 1/2,1/2")),
    ("a", dict(parse=_number_list, help="comma list of locations, e.g. 1,-1")),
)
_MOMENTS = ("moments", dict(parse=_moment_order, required=True, help="highest moment order"))
# no parser default: "csv" applies after the config is hashed, as every
# other flag's default does, so a flag invocation and its run config agree
_FORMAT = ("format", dict(choices=("csv", "json"), help="artifact format (default csv)"))
_ZERO_MOMENTS = ("moments", dict(parse=_moment_order, help="highest moment order (JSON format)"))
_SWEEP_FLAGS = (
    *_SCHEME_FLAGS,
    ("n", dict(parse=_sweep_ns, required=True, help="ascending rank list, e.g. 25,50,100")),
    _MOMENTS,
)

_COMMANDS = {
    "traces": _Command(_cmd_traces, "moment/gap/variance table over N", (
        *_SCHEME_FLAGS,
        ("n", dict(parse=_sweep_ns, required=True, help="truncation rank(s), comma list")),
        _MOMENTS,
    )),
    "zeros": _Command(_cmd_zeros, "zeros of the averaged characteristic polynomial", (
        *_SCHEME_FLAGS,
        ("n", dict(parse=_single_n, required=True, help="truncation rank")),
        _ZERO_MOMENTS,
        _FORMAT,
    )),
    "gap-sweep": _Command(_cmd_gap_sweep, "gap decay over an N sweep", _SWEEP_FLAGS),
    "variance-sweep": _Command(
        _cmd_variance_sweep, "variance decay over an N sweep", _SWEEP_FLAGS
    ),
    "kva": _Command(_cmd_kva, "limiting zero law from coefficient profiles", (
        # only a classical ensemble has limit profiles
        ("scheme", dict(_CLASSICAL_FLAGS[0][1], required=True)),
        *_CLASSICAL_FLAGS[1:],
        ("moments", dict(parse=_moment_order, help="highest moment order")),
        ("order", dict(parse=_positive_int, help="quadrature order for the profile integral")),
        ("density", dict(parse=_float_list,
                         help="evaluate the density on these x values instead")),
    )),
    "free-conv": _Command(_cmd_free_conv, "free additive/multiplicative convolution", (
        ("op", dict(required=True, choices=("add", "mul"))),
        ("mu", dict(parse=_parse_law, required=True, help=_LAW)),
        ("nu", dict(parse=_parse_law, required=True, help=_LAW)),
        _MOMENTS,
    )),
    "curve": _Command(_cmd_curve, "algebraic spectral curve: moments, density", (
        ("kind", dict(required=True, choices=_CURVE_KINDS)),
        ("q", dict(parse=_number_list, required=True, help="comma list of ratios")),
        ("a", dict(parse=_number_list, required=True, help="comma list of locations")),
        ("alpha", dict(parse=_as_float, help="rate parameter (laguerre)")),
        ("moments", dict(parse=_moment_order, help="highest moment order, from the "
                         "free-convolution series (JSON format, without density)")),
        ("density", dict(parse=_float_list,
                         help="evaluate the density on these x values (CSV mode)")),
        ("eps", dict(parse=_positive_float, help="imaginary offset for density evaluation")),
        # default None: an absent switch stays out of the config like any
        # absent flag
        ("richardson", dict(parse=_switch, action="store_true", default=None,
                            help="extrapolate eps -> 0")),
    )),
    "sample": _Command(_cmd_sample, "Monte-Carlo moments of a random matrix model", (
        ("model", dict(required=True, choices=_MODELS)),
        ("n", dict(parse=_positive_int, required=True, help="matrix size")),
        ("alpha", dict(parse=_as_float, help="aspect offset (wishart models)")),
        ("ratios", dict(parse=_number_list, help="source multiplicity ratios (source models)")),
        ("atoms", dict(parse=_float_list, help="source diagonal values (source models)")),
        ("samples", dict(parse=_as_int, required=True, help="number of independent samples")),
        ("seed", dict(parse=_as_int, help="base seed (default 0)")),
        _MOMENTS,
    )),
}


def _run_command(command, config) -> str:
    """Run one command and write its artifact, by default to the command's
    name with an extension after the artifact's format; returns the path."""
    handler, _, flags = _COMMANDS[command]
    extra = sorted(set(config) - {name for name, _ in flags} - {"out"})
    if extra:
        raise ConfigError(f"unknown key {extra[0]!r} for command {command!r}")
    for name, kwargs in flags:
        if kwargs.get("required"):
            _require(config, name)
        choices = kwargs.get("choices")
        if choices and config.get(name) not in (None, *choices):
            raise ConfigError(
                f"{name}: expected one of {', '.join(choices)}, got {config[name]!r}"
            )
    out = config.get("out")
    if out is not None:
        if not isinstance(out, str):
            raise ConfigError(f"out: expected a file path, got {out!r}")
        if not Path(out).parent.is_dir():
            raise ConfigError(f"out: no directory {str(Path(out).parent)!r}")
        if Path(out).is_dir():
            raise ConfigError(f"out: {out!r} is a directory")
    meta = _meta(command, config)
    # a null value is an absent one; every other value reaches the handler parsed
    typed = {key: value for key, value in config.items() if value is not None}
    for name, kwargs in flags:
        if name in typed and "parse" in kwargs:
            typed[name] = kwargs["parse"](typed[name], name)
    artifact = handler(typed)
    stem = command.replace("-", "_")
    if isinstance(artifact, dict):
        out = out or stem + ".json"
        _write_json(out, {**artifact, "meta": {**meta, **artifact.get("meta", {})}})
    else:
        out = out or stem + ".csv"
        _write_csv(out, meta, *artifact)
    return out


def _load_config(path) -> tuple:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if "command" not in config:
        raise ConfigError("missing key 'command'")
    command = config.pop("command")
    if command not in _COMMANDS:
        raise ConfigError(f"command: unknown command {command!r}")
    return command, config


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandedzeros",
        description="Trace statistics and zero laws of banded recurrence operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kwargs in flags:
            # parse, required and choices are _run_command's to apply; the
            # help lists choices
            shown = {k: v for k, v in kwargs.items() if k not in ("parse", "required", "choices")}
            if "choices" in kwargs:
                shown["metavar"] = "{" + ",".join(kwargs["choices"]) + "}"
            p.add_argument("--" + name, **shown)
        p.add_argument("--out", help="output path (default: the command name)")
    p = sub.add_parser("run", help="run a command described by a JSON config")
    p.add_argument("config", help="path to the JSON config")
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    try:
        if args["command"] == "run":
            command, config = _load_config(args["config"])
        else:
            command = args.pop("command")
            config = {key: value for key, value in args.items() if value is not None}
        out = _run_command(command, config)
        print(out)
        return 0
    except (ConfigError, SchemeError, OracleScaleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"numerical failure: result outside the double range: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
