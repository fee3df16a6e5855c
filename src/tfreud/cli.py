"""Command-line surface: tables, zero checks, density data, the verification
suite, and figure data files.

Exit codes: 0 success / all checks pass, 1 verification or table-check
failure, 2 usage or configuration error, 3 numerical failure."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import mpmath as mp

from . import __version__
from .kernel import (
    ConvergenceError,
    DomainError,
    PrecisionContext,
    PrecisionExhaustionError,
    default_bits,
    positive_finite,
)
from .moments import moment_sequence
from .recurrence import asymptotic_ratio, chebyshev_coeffs
from .verify import run_verification
from .zeros import (
    DensityModel,
    chebyshev_zeros,
    comparison_beta,
    density_at,
    density_normalization,
    ptilde_zeros,
    zero_sweep,
)

# Reference values for the smallest and largest zero at z = 1, 4 decimals;
# the canonical regression fixture behind --table-check.
REF_SMALLEST = (
    "0.4889", "0.2363", "0.1372", "0.0901", "0.0640", "0.0480", "0.0375",
    "0.0302", "0.0249", "0.0209", "0.0178", "0.0154", "0.0135", "0.0115",
)
REF_LARGEST = (
    "0.4889", "0.8808", "1.1103", "1.2740", "1.4024", "1.5088", "1.6002",
    "1.6804", "1.7522", "1.8174", "1.8771", "1.9323", "1.9843", "2.0393",
)

# Errata to the published table above, keyed by (which, n): the correct
# 4-decimal value of each entry whose published digits are wrong.  The
# published tuples stay verbatim and --table-check compares against them.
# The corrected zeros come from the Chebyshev algorithm and, independently,
# from the exact moments Gamma((k+1)/4)/4 by a Hankel solve at 120 digits
# and polynomial root-finding: 0.0119153420, 1.9836887043, 2.0318247424.
# All three are tail entries, where the moment-to-coefficient map is badly
# conditioned (the float64 Hankel matrix has condition number 3.7e15 at
# n = 13 and 1.2e17 at n = 14).
REF_ERRATA = {
    ("smallest", 14): "0.0119",
    ("largest", 13): "1.9837",
    ("largest", 14): "2.0318",
}

DENSITY_POINTS = 64


@dataclass(frozen=True)
class RunConfig:
    command: str
    z: mp.mpf
    z_given: bool
    n_max: int
    bits: int
    epsilon: mp.mpf
    ts: tuple
    fmt: str
    out: str | None
    round_digits: int | None
    table_check: bool
    all_zeros: bool
    fault: str | None

    @property
    def dps(self) -> int:
        return self.bits * 30103 // 100000 + 2

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        if args.n_max < 1:
            raise DomainError(f"--n-max must be >= 1, got {args.n_max}")
        bits = args.bits if args.bits is not None else default_bits(args.n_max)
        if bits < 64:
            raise DomainError(f"--bits must be >= 64, got {bits}")
        with PrecisionContext(bits).workprec():
            z = positive_finite(args.z if args.z is not None else 1, "--z")
            epsilon = positive_finite(args.epsilon, "--epsilon")
            ts = tuple(positive_finite(t, "--t") for t in (args.t or ["1"]))
        if args.round is not None and args.round < 0:
            raise DomainError(f"--round must be >= 0, got {args.round}")
        return cls(args.command, z, args.z is not None, args.n_max, bits, epsilon, ts,
                   args.format, args.out, args.round, args.table_check,
                   args.all_zeros, args.fault_inject)


def round_half_away(x, digits: int) -> str:
    """Decimal string of the mpf x = m 2^e with exactly `digits` places,
    ties away from zero, computed in integers.  x is read at its own
    precision, at least the 64 bits of a context: it stands for a decimal
    tie that is the shortest decimal within half a unit of its last bit."""
    s, m, e, bc = x._mpf_
    g, unit = max(0, 64 - bc), 10 ** digits
    d = 1 << max(0, g - e)
    # |x| 10^digits = q + r/d and half a unit of the last bit of x is
    # unit / 2d: the tie r/d = 1/2 lies within it when |2r - d| <= unit, and
    # is the shortest decimal there when 10 unit < d
    q, r = divmod(m * unit << max(g, e), d)
    q += 2 * r + (unit if 10 * unit < d else 0) >= d
    sign = "-" if s and q else ""
    if digits == 0:
        return f"{sign}{q}"
    return f"{sign}{q // unit}.{q % unit:0{digits}d}"


def _fmt_value(v, cfg: RunConfig) -> str:
    if isinstance(v, (int, bool)) or v is None:
        return "" if v is None else str(v)
    if isinstance(v, str):
        return v
    if cfg.round_digits is not None:
        return round_half_away(v, cfg.round_digits)
    # v is already an mpf at the working precision; no re-conversion, which
    # would round it at the (possibly lower) ambient precision
    return mp.nstr(v, cfg.dps)


def _json_value(v, cfg: RunConfig):
    if isinstance(v, (int, bool)) or v is None:
        return v
    if isinstance(v, str):
        return v
    return _fmt_value(v, cfg)


def _csv_cell(v: str) -> str:
    """v as csv.writer writes it under minimal quoting: only a cell holding
    a comma, a quote or a newline (verify's z_values cell holds commas)
    is put in double quotes, with each quote inside it doubled."""
    if any(c in v for c in ',"\n'):
        return '"' + v.replace('"', '""') + '"'
    return v


def write_table(cfg: RunConfig, columns: list, rows: list, out_path=None) -> None:
    """Serialize one table as CSV or JSON (meta + data) to out_path/stdout."""
    path = out_path if out_path is not None else cfg.out
    if cfg.fmt == "csv":
        lines = [",".join(map(_csv_cell, columns))]
        for row in rows:
            lines.append(",".join(_csv_cell(_fmt_value(row[c], cfg)) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        # only the subcommands that read --z report it
        z = {"z": mp.nstr(cfg.z, cfg.dps)} if "z" in ACCEPTS[cfg.command] else {}
        payload = {
            "meta": {**z, "n_max": cfg.n_max, "bits": cfg.bits, "version": __version__},
            "data": [{c: _json_value(row[c], cfg) for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_moments(cfg: RunConfig) -> int:
    mu = moment_sequence(cfg.z, 2 * cfg.n_max + 1, PrecisionContext(cfg.bits))
    rows = [{"n": n, "mu_n": v} for n, v in enumerate(mu)]
    write_table(cfg, ["n", "mu_n"], rows)
    return 0


def cmd_coeffs(cfg: RunConfig) -> int:
    ctx = PrecisionContext(cfg.bits)
    with ctx.workprec(64):
        tbl = chebyshev_coeffs(cfg.z, cfg.n_max, ctx)
        rows = []
        for n in range(cfg.n_max + 1):
            ra, rb = asymptotic_ratio(tbl, n) if n >= 1 else (None, None)
            rows.append({"n": n, "a_n": tbl.a[n], "b_n": tbl.b[n], "h_n": tbl.h[n],
                         "ratio_a": ra, "ratio_b": rb})
    write_table(cfg, ["n", "a_n", "b_n", "h_n", "ratio_a", "ratio_b"], rows)
    return 0


def cmd_zeros(cfg: RunConfig) -> int:
    ctx = PrecisionContext(cfg.bits)
    if cfg.table_check:
        if cfg.z != 1:
            raise DomainError("--table-check compares z = 1 values; do not pass --z")
        return _table_check(cfg, ctx)
    with ctx.workprec(64):
        tbl = chebyshev_coeffs(cfg.z, cfg.n_max, ctx)
        sets = zero_sweep(tbl, cfg.n_max, ctx)
        if cfg.all_zeros:
            columns = ["n", "k", "x"]
            rows = [{"n": zs.n, "k": k + 1, "x": x}
                    for zs in sets for k, x in enumerate(zs.values)]
        else:
            columns = ["n", "smallest", "largest"]
            rows = [{"n": zs.n, "smallest": zs[0], "largest": zs[-1]} for zs in sets]
    write_table(cfg, columns, rows)
    return 0


def _table_check(cfg: RunConfig, ctx: PrecisionContext) -> int:
    n_top = 14
    if cfg.n_max < n_top:
        raise DomainError(f"--table-check needs --n-max >= {n_top}")
    with ctx.workprec(64):
        tbl = chebyshev_coeffs(1, n_top, ctx)
        rows = []
        mismatches = 0
        for zs in zero_sweep(tbl, n_top, ctx):
            n = zs.n
            for which, val, ref in (("smallest", zs[0], REF_SMALLEST[n - 1]),
                                    ("largest", zs[n - 1], REF_LARGEST[n - 1])):
                got4 = round_half_away(val, 4)
                ok = got4 == ref
                mismatches += 0 if ok else 1
                rows.append({"n": n, "which": which, "computed": val,
                             "rounded": got4, "reference": ref, "match": ok})
    write_table(cfg, ["n", "which", "computed", "rounded", "reference", "match"], rows)
    if mismatches:
        print(f"table check: {mismatches} of {len(rows)} entries differ", file=sys.stderr)
        return 1
    return 0


def _t_label(t) -> str:
    s = mp.nstr(mp.mpf(t), 6)
    return s.rstrip("0").rstrip(".") if "." in s else s


def cmd_density(cfg: RunConfig) -> int:
    ctx = PrecisionContext(cfg.bits)
    multi = len(cfg.ts) > 1
    for t in cfg.ts:
        with ctx.workprec(64):
            model = DensityModel.for_t(t, ctx)
            omega = density_at(t, ctx)
            total = density_normalization(t)
            rows = []
            for j in range(DENSITY_POINTS):
                x = model.beta_t * (2 * j + 1) / (2 * DENSITY_POINTS)
                rows.append({"x": x, "omega": omega(x),
                             "beta_t": model.beta_t, "normalization": total})
        out = cfg.out
        if out is not None and multi:
            stem, ext = os.path.splitext(out)
            out = f"{stem}_t{_t_label(t)}{ext}"
        elif out is None and multi:
            out = f"density_t{_t_label(t)}.{cfg.fmt}"
        write_table(cfg, ["x", "omega", "beta_t", "normalization"], rows, out_path=out)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    z_values = (cfg.z,) if cfg.z_given else (mp.mpf(1) / 4, mp.mpf(1), mp.mpf(4))
    report = run_verification(z_values=z_values, n_max=cfg.n_max, bits=cfg.bits,
                              epsilon=cfg.epsilon, fault=cfg.fault)
    for line in report.lines():
        print(line)
    if cfg.out is not None:
        columns = ["name", "n_range", "z_values", "residual", "tolerance", "passed"]
        rows = [{"name": r.name, "n_range": r.n_range, "z_values": r.z_values,
                 "residual": r.residual, "tolerance": r.tolerance,
                 "passed": r.passed} for r in report.records]
        write_table(cfg, columns, rows)
    return 0 if report.overall else 1


def cmd_figures(cfg: RunConfig) -> int:
    ctx = PrecisionContext(cfg.bits)
    out_dir = cfg.out if cfg.out is not None else "."
    os.makedirs(out_dir, exist_ok=True)
    n_top = max(cfg.n_max, 14)
    written = []

    def emit(stem, columns, rows):
        path = os.path.join(out_dir, f"{stem}.{cfg.fmt}")
        write_table(cfg, columns, rows, out_path=path)
        written.append(path)

    with ctx.workprec(64):
        rows = []
        for t in (mp.mpf("0.5"), mp.mpf(1), mp.mpf(2)):
            model = DensityModel.for_t(t, ctx)
            omega = density_at(t, ctx)
            for j in range(DENSITY_POINTS):
                x = model.beta_t * (2 * j + 1) / (2 * DENSITY_POINTS)
                rows.append({"t": t, "x": x, "omega": omega(x)})
        emit("figure1_density", ["t", "x", "omega"], rows)

        tbl = chebyshev_coeffs(1, n_top, ctx)
        extremes = [(zs.n, zs[0], zs[-1]) for zs in zero_sweep(tbl, n_top, ctx)]
        emit("figure2_zero_extremes", ["n", "smallest", "largest"],
             [{"n": n, "smallest": lo, "largest": hi} for n, lo, hi in extremes])

        emit("figure3_transforms",
             ["n", "smallest_inv_sqrt", "smallest_inv_sq", "largest_cubed"],
             [{"n": n, "smallest_inv_sqrt": 1 / mp.sqrt(lo),
               "smallest_inv_sq": 1 / lo ** 2, "largest_cubed": hi ** 3}
              for n, lo, hi in extremes])

        beta = comparison_beta(ctx)
        emit("figure4_chebyshev", ["n", "y_n1", "smallest", "w_n"],
             [{"n": n, "y_n1": chebyshev_zeros(n, ctx)[0], "smallest": lo,
               "w_n": beta * mp.pi ** 2 / (2 * (n + 1) ** 2)}
              for n, lo, _ in extremes])

        emit("figure5_ptilde", ["n", "ptilde_largest", "largest"],
             [{"n": n, "ptilde_largest": ptilde_zeros(n, ctx)[-1], "largest": hi}
              for n, _, hi in extremes])

    for path in written:
        print(path)
    return 0


COMMANDS = {
    "moments": cmd_moments,
    "coeffs": cmd_coeffs,
    "zeros": cmd_zeros,
    "density": cmd_density,
    "verify": cmd_verify,
    "figures": cmd_figures,
}


# Each option and its default, written once.  A subcommand accepts only the
# options it lists; the rest keep their default, so RunConfig reads the same
# fields whatever the subcommand.
OPTIONS = {
    "z": ("--z", {"default": None, "help": "weight parameter (default 1; verify "
                                           "defaults to the triple 1/4, 1, 4)"}),
    "n_max": ("--n-max", {"type": int, "default": 14, "help": "top degree (default 14)"}),
    "bits": ("--bits", {"type": int, "default": None,
                        "help": "working precision (default: policy for n_max)"}),
    "epsilon": ("--epsilon", {"default": "1e-3", "help": "slack in the largest-zero "
                                                         "bound constant (default 1e-3)"}),
    "t": ("--t", {"action": "append", "default": None,
                  "help": "density time parameter; repeatable (default 1)"}),
    "format": ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    "out": ("--out", {"default": None, "help": "output path (figures: directory)"}),
    "table_check": ("--table-check", {"action": "store_true", "default": False,
                                      "help": "compare n = 1..14 extremes against the "
                                              "embedded reference table"}),
    "all_zeros": ("--all-zeros", {"action": "store_true", "default": False,
                                  "help": "emit every zero, not just the extremes"}),
    "round": ("--round", {"type": int, "default": None, "metavar": "K",
                          "help": "round real columns to K decimals, ties away from zero"}),
    "fault_inject": ("--fault-inject", {"default": None, "metavar": "SPEC",
                                        "help": "perturb one table entry, e.g. a:3:1e-6"}),
}
TABLE_OPTIONS = ("z", "n_max", "bits", "format", "out", "round")
SUBCOMMANDS = (
    ("moments", "write mu_n(z) for n <= 2*n_max+1", TABLE_OPTIONS),
    ("coeffs", "write a_n, b_n, h_n and their asymptotic ratios", TABLE_OPTIONS),
    ("zeros", "write smallest/largest (or all) zeros; --table-check compares against "
              "the embedded 4-decimal reference values",
     TABLE_OPTIONS + ("table_check", "all_zeros")),
    ("density", "write the limiting zero density on a grid for each --t",
     ("n_max", "bits", "t", "format", "out", "round")),
    ("verify", "run the full verification suite; exit 1 on any failure",
     TABLE_OPTIONS + ("epsilon", "fault_inject")),
    ("figures", "write the five figure data files", ("n_max", "bits", "format", "out", "round")),
)
ACCEPTS = {name: options for name, _, options in SUBCOMMANDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfreud",
        description="High-precision tables and verification for the monic "
                    "orthogonal family of exp(-z*x^4) on (0, inf).")
    parser.add_argument("--version", action="version", version=f"tfreud {__version__}")
    parser.set_defaults(**{dest: kw["default"] for dest, (_, kw) in OPTIONS.items()})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for dest in options:
            flag, kw = OPTIONS[dest]
            p.add_argument(flag, **kw)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except PrecisionExhaustionError as exc:
        print(f"error: precision exhausted: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: no convergence: {exc}", file=sys.stderr)
        return 3
    except (DomainError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
