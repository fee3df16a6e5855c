"""Results do not depend on mpmath's global precision.

Every library function that reads a RecurrenceTable, a MomentSequence or a
PrecisionContext takes its working precision from that context.  Each one is
evaluated here with the global precision at 53 and at 1200 bits and must
return the same bits both times."""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import mpmath as mp
import pytest

import tfreud
from tfreud.kernel import (
    PrecisionContext,
    tridiag_eigenvalues,
)
from tfreud.moments import (
    MomentSequence,
    moment,
    moment_recurrence_residual,
    moment_sequence,
    pearson_data,
    pearson_product,
    stieltjes_residual,
)
from tfreud.operators import (
    beta_row,
    confluent_check,
    identity_i_residual,
    identity_ii_residual,
    ladder_A,
    ladder_B,
    ladder_residuals,
    lax_block_check,
    lowering_data,
    lowering_residuals,
    recurrence_passes,
    sample_grid,
    structure_coeffs,
    structure_residual,
)
from tfreud.recurrence import (
    asymptotic_ratio,
    chebyshev_coeffs,
    h_scaling_check,
    lf_forward,
    lf_residual_1,
    lf_residual_2,
    lf_residual_I,
    scaling_check,
)
from tfreud.verify import inject_fault, run_verification
from tfreud.zeros import (
    DensityModel,
    _fields,
    chebyshev_zeros,
    comparison_beta,
    density,
    density_at,
    density_cdf,
    density_closed_form,
    density_consistency,
    density_integral,
    density_normalization,
    electro_energy,
    empirical_density_distance,
    interlacing_margin,
    largest_zero_bound,
    ode_at_zeros_check,
    ptilde_zeros,
    stationarity_check,
    zero_scaling_check,
    zero_sweep,
    zeros,
)

CTX = PrecisionContext(192)
TBL = chebyshev_coeffs(1, 12, CTX)
TBL4 = chebyshev_coeffs(4, 12, CTX)
MSEQ = MomentSequence.build("0.3", 12, CTX)
XS = sample_grid(6, 1, CTX, count=5)
PASSES = recurrence_passes(TBL, 8, XS)
ZS = zeros(TBL, 6, CTX)
FAULT = ("a", 3, mp.mpf(2) ** -200 / 3)

# Decimal strings are passed where a function accepts them, so the parse
# itself has to happen at the function's own precision.
CASES = {
    "tridiag_eigenvalues": lambda: tridiag_eigenvalues(TBL.b[:4], TBL.a[1:4], CTX),
    "moment": lambda: moment(5, "0.3", CTX),
    "MomentSequence.build": lambda: MomentSequence.build("0.3", 8, CTX),
    "moment_sequence": lambda: moment_sequence("0.3", 40, CTX),
    "moment_recurrence_residual": lambda: moment_recurrence_residual(MSEQ, 3),
    "pearson_product": lambda: pearson_product("0.3", CTX),
    "pearson_data": lambda: pearson_data("0.3", CTX),
    "stieltjes_residual": lambda: stieltjes_residual(MSEQ, "2.5", 9),
    "chebyshev_coeffs": lambda: chebyshev_coeffs("0.3", 6, CTX),
    "lf_residual_1": lambda: [lf_residual_1(TBL, n) for n in range(1, 11)],
    "lf_residual_2": lambda: [lf_residual_2(TBL, n) for n in range(1, 11)],
    "lf_residual_I": lambda: [lf_residual_I(TBL, n) for n in range(1, 11)],
    # R, T and the lower band of a fresh copy's band, under the names of the
    # accessors they replaced
    "RecurrenceTable.R": lambda: dataclasses.replace(TBL).band.R,
    "RecurrenceTable.T": lambda: dataclasses.replace(TBL).band.T,
    "RecurrenceTable.sigma": lambda: [TBL.sigma(n) for n in range(14)],
    # a fresh copy, so the cached value of TBL cannot answer for it
    "RecurrenceTable.at_zero": lambda: dataclasses.replace(TBL).at_zero,
    "RecurrenceTable.band": lambda: dataclasses.replace(TBL).band,
    "RecurrenceTable.gamma": lambda: dataclasses.replace(TBL).gamma,
    "lf_forward": lambda: lf_forward((TBL.b[0], TBL.a[1], TBL.b[1]), 8, TBL),
    "asymptotic_ratio": lambda: asymptotic_ratio(TBL, 7),
    "scaling_check": lambda: scaling_check(TBL4, TBL, 7),
    "h_scaling_check": lambda: h_scaling_check(TBL4, TBL, 7),
    "sample_grid": lambda: sample_grid(6, "0.3", CTX, count=5),
    # recurrence_passes, under the name of the evaluator it replaced
    "ttrr_eval_d2": lambda: recurrence_passes(TBL, 9, ["0.7", XS[2]]),
    "beta_row": lambda: beta_row(TBL, 5),
    "beta_lower": lambda: dataclasses.replace(TBL).band.lower,
    "structure_coeffs": lambda: structure_coeffs(TBL, 5),
    "structure_residual": lambda: structure_residual(TBL, 5, PASSES),
    "ladder_A": lambda: ladder_A(TBL, 5),
    "ladder_B": lambda: ladder_B(TBL, 5),
    "identity_i_residual": lambda: [identity_i_residual(TBL, n) for n in range(1, 11)],
    "identity_ii_residual": lambda: [identity_ii_residual(TBL, n) for n in range(1, 11)],
    # each record's column of the shared ladder_residuals and
    # lowering_residuals, under the record's former function name
    "compat_residuals": lambda: [r[:2] for r in ladder_residuals(TBL, 5, PASSES)],
    "lowering_data": lambda: lowering_data(TBL, 6),
    "lowering_apply": lambda: lowering_residuals(TBL, 6, PASSES)[0],
    "raising_apply": lambda: lowering_residuals(TBL, 6, PASSES)[1],
    "holonomic_residual_Dn": lambda: lowering_residuals(TBL, 6, PASSES)[2],
    "holonomic_residual_chen": lambda: [r[2] for r in ladder_residuals(TBL, 5, PASSES)],
    "confluent_check": lambda: confluent_check(TBL, 6, PASSES),
    "lax_block_check": lambda: lax_block_check(TBL, 10),
    "zeros": lambda: zeros(TBL, 6, CTX),
    "zero_sweep": lambda: zero_sweep(TBL, 6, CTX),
    "interlacing_margin": lambda: interlacing_margin(ZS, zeros(TBL, 5, CTX)),
    "zero_scaling_check": lambda: zero_scaling_check(zeros(TBL4, 6, CTX), ZS, CTX),
    "largest_zero_bound": lambda: largest_zero_bound(TBL, 8, eps="1e-3"),
    # V_n and V_n' at a decimal x, read from the private _fields
    "potential_eval": lambda: _fields(TBL, 6, ["0.7"])[0][0],
    "potential_deriv": lambda: _fields(TBL, 6, ["0.7"])[0][1],
    "electro_energy": lambda: electro_energy(TBL, ("0.3", "0.7", "1.1")),
    "stationarity_check": lambda: stationarity_check(TBL, ZS),
    "ode_at_zeros_check": lambda: ode_at_zeros_check(TBL, 6),
    "inject_fault": lambda: inject_fault(TBL, FAULT),
    "DensityModel.for_t": lambda: DensityModel.for_t("0.3", CTX),
    "density": lambda: density("0.4", "0.3", CTX),
    "density_at": lambda: density_at("1", CTX)("0.3"),
    "density_integral": lambda: density_integral("0.4", "0.3", CTX),
    "density_closed_form": lambda: density_closed_form("0.3", CTX),
    "density_cdf": lambda: density_cdf("0.3", CTX),
    "density_consistency": lambda: density_consistency("0.3"),
    "density_normalization": lambda: density_normalization("0.3"),
    "empirical_density_distance": lambda: empirical_density_distance(4, 4, "0.3", CTX),
    "comparison_beta": lambda: comparison_beta(CTX),
    "chebyshev_zeros": lambda: chebyshev_zeros(5, CTX),
    "ptilde_zeros": lambda: ptilde_zeros(5, CTX),
}


# Public functions that take a table or context but need no CASES entry.
EXEMPT = {
    "jacobi_matrix": "copies table entries; no arithmetic",
    "internal_bits_for": "integer arithmetic on ctx.bits",
    "ladder_residuals": "covered by the compat_residuals and holonomic_residual_chen cases",
    "lowering_residuals": "covered by the lowering_apply, raising_apply and "
                          "holonomic_residual_Dn cases",
    "recurrence_passes": "covered by the ttrr_eval_d2 case",
}


def exact_bits(v):
    """The value with every mpf replaced by its exact (sign, man, exp, bc)."""
    if isinstance(v, mp.mpf):
        return v._mpf_
    if isinstance(v, (tuple, list)):
        return tuple(exact_bits(x) for x in v)
    if isinstance(v, dict):
        return tuple(sorted((k, exact_bits(x)) for k, x in v.items()))
    if dataclasses.is_dataclass(v):
        return (type(v).__name__,) + tuple(exact_bits(getattr(v, f.name))
                                           for f in dataclasses.fields(v))
    return v


def at_both_precisions(fn):
    with mp.workprec(53):
        low = exact_bits(fn())
    with mp.workprec(1200):
        high = exact_bits(fn())
    return low, high


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_independent_of_global_precision(name):
    low, high = at_both_precisions(CASES[name])
    assert low == high


def test_every_context_reader_has_a_case():
    missing = []
    for info in pkgutil.iter_modules(tfreud.__path__):
        mod = importlib.import_module(f"tfreud.{info.name}")
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_") and name not in CASES
                    and name not in EXEMPT
                    and {"tbl", "ctx", "mseq"} & set(inspect.signature(fn).parameters)):
                missing.append(f"{info.name}.{name}")
    assert missing == []


def test_verification_records_independent_of_global_precision():
    low, high = at_both_precisions(lambda: run_verification(n_max=8).records)
    assert low == high


def test_library_never_reads_global_precision():
    pattern = re.compile(r"mp\.mp\.(prec|dps)|mp\.(prec|dps)\s*=")
    src = pathlib.Path(tfreud.__file__).parent
    hits = [f"{path.relative_to(src)}:{i}"
            for path in sorted(src.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []
