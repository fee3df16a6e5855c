"""Spans around every public function of the tfreud layers, installed from
outside the library.

The modules import each other's functions by name (`from .kernel import
tridiag_eigenvalues`), so a wrapper replaces the function in every module
namespace, and in every module-level dict such as `cli.COMMANDS`, that holds
it.  Spans are kept in memory as parallel lists and summarized when the
traced pass ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import mpmath as mp

LAYERS = ("kernel", "moments", "recurrence", "operators", "zeros", "verify", "cli")

# Metrics that sum the self time of a family of functions.
GROUPS = {
    "recurrence.lf_residuals": ("recurrence.lf_residual_1", "recurrence.lf_residual_2",
                                "recurrence.lf_residual_I", "recurrence.lf_scale_I"),
    "operators.identities": (
        "operators.identity_i_residual", "operators.identity_ii_residual",
        "operators.compat_residuals", "operators.structure_residual",
        "operators.lowering_apply", "operators.raising_apply",
        "operators.holonomic_residual_Dn", "operators.holonomic_residual_chen",
        "operators.confluent_check", "operators.lax_block_check"),
    "zeros.electrostatics": ("zeros.stationarity_check", "zeros.electro_energy",
                             "zeros.potential_eval", "zeros.potential_deriv"),
}
# Functions whose self time and call count are reported one by one.
TIMED = ("kernel.tridiag_eigenvalues", "kernel.hyp2f1_series", "moments.moment",
         "recurrence.chebyshev_coeffs", "operators.poly_table", "operators.ttrr_eval_d2",
         "zeros.zeros", "zeros.density", "zeros.density_integral",
         "zeros.density_normalization", "verify.run_verification", "cli.write_table",
         "cli.main")


def _table_key(args):
    """What a call of chebyshev_coeffs computes: (z, n_max, bits, override)."""
    z, n_max, ctx, *rest = args
    return (mp.mpf(z), n_max, ctx.bits, tuple(rest))


def _zeros_key(args):
    """What a call of zeros computes: the entries of the table it reads,
    the degree, the precision and the refine flag."""
    tbl, n, ctx, *rest = args
    return (tbl.z, tbl.a[1:n], tbl.b[:n], n, ctx.bits, tuple(rest))


def _written_bytes(args, before):
    cfg, path = args[0], (args[3] if len(args) > 3 else None)
    path = path if path is not None else cfg.out
    if path is None:
        return sys.stdout.tell() - before
    return os.path.getsize(path)


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.eigs = 0
        self.keys = {"recurrence.chebyshev_coeffs": set(), "zeros.zeros": set()}
        self.bytes_written = 0
        self._stack = [-1]

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        key_of = {"recurrence.chebyshev_coeffs": _table_key, "zeros.zeros": _zeros_key}.get(name)
        noted = key_of is not None or name in ("kernel.tridiag_eigenvalues", "cli.write_table")
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if noted:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if key_of is not None:
                    self.keys[name].add(key_of(bound.args))
                elif name == "kernel.tridiag_eigenvalues":
                    self.eigs += len(bound.args[0])
                else:
                    before = sys.stdout.tell()
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = start
                stack.pop()
                if name == "cli.write_table":
                    self.bytes_written += _written_bytes(bound.args, before)
        return traced

    def install(self):
        """Replace each public function of each layer everywhere it is held."""
        modules = [importlib.import_module(f"tfreud.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules + [importlib.import_module("tfreud")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in obj.items():
                        if id(v) in wrappers:
                            obj[k] = wrappers[id(v)]

    def self_times(self):
        """Self time per span: its duration minus that of its direct children
        (children nest inside their parent, so they never overlap)."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def summary(self, pass_s: float) -> dict:
        """Per-layer metrics of the traced pass, which took pass_s seconds."""
        own = self.self_times()
        self_s, calls = {}, {}
        for name, t in zip(self.names, own):
            self_s[name] = self_s.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + "."))
        for name in TIMED:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        for group, members in GROUPS.items():
            out[f"{group}.self_s"] = sum(self_s.get(m, 0.0) for m in members)
        eig_s = self_s.get("kernel.tridiag_eigenvalues", 0.0)
        out["kernel.tridiag_eigenvalues.eigs_per_s"] = self.eigs / eig_s if eig_s else 0.0
        for name, keys in self.keys.items():
            n_calls = calls.get(name, 0)
            out[f"{name}.useful_ratio"] = len(keys) / n_calls if n_calls else 0.0
        out["cli.write_table.bytes"] = self.bytes_written
        out["trace.spans"] = len(self.names)
        out["trace.pass_s"] = pass_s
        return out
