"""One verdict reader per fellsem module.

The library returns verdicts in several shapes: ``(ok, violations)`` pairs,
the ``classify_bundle`` dict, ``germ_preservation_check``'s triple, the
``algebra_preservation_check`` report, bare booleans and CLI exit codes.
Every workload reads a verdict through the reader of the module it called,
so a change to a module's return shape is absorbed here and nowhere else.
"""

from __future__ import annotations

import json

from fellsem.isg import InverseSemigroup
from fellsem.tro import AssociationReport


def isg(result) -> bool:
    """verify_inverse_semigroup returns the semigroup, or raises IsgError."""
    return isinstance(result, InverseSemigroup)


def action(result) -> bool:
    """verify_twisted_action, verify_consequences, check_sieben and
    GermGroupoid.verify return (ok, violations)."""
    ok, _ = result
    return bool(ok)


def bundle(result) -> bool:
    """verify_fell_bundle and roundtrip_check return (ok, detail);
    classify_bundle returns a dict, which passes for a saturated,
    semi-abelian bundle whose fibers are all regular."""
    if isinstance(result, dict):
        return bool(result["saturated"] and result["semi_abelian"]
                    and all(result["regular"].values()))
    ok, _ = result
    return bool(ok)


def saturated(result) -> bool:
    """The saturation flag of a classify_bundle dict."""
    return bool(result["saturated"])


def groupoid(result) -> bool:
    """verify_cocycle and germ_recovers_groupoid return (ok, detail)."""
    ok, _ = result
    return bool(ok)


def tro(result) -> bool:
    """is_tro and is_locally_regular return a bool; is_regular returns
    (ok, witness or trial log); an AssociationReport passes when the
    implications between its four association conditions hold."""
    if isinstance(result, AssociationReport):
        r = result
        return all(not hyp or conc for hyp, conc in
                   [(r.a and r.b, r.c), (r.a and r.b, r.d), (r.a and r.c, r.b), (r.b and r.d, r.c)])
    if isinstance(result, tuple):
        return bool(result[0])
    return bool(result)


def tro_strict(result) -> bool:
    """An AssociationReport of a regularity witness: a strictly associated
    partial isometry."""
    return bool(result.strict and result.partial_isometry)


def algebra(result):
    """StarAlgebra.verify returns (ok, violations); block_decompose returns
    the sorted block dimensions, which are the verdict itself."""
    if isinstance(result, list):
        return result
    ok, _ = result
    return bool(ok)


def reps(result) -> bool:
    """verify_covariant and verify_representation return (ok, violations);
    reps_equal returns a bool."""
    if isinstance(result, bool):
        return result
    ok, _ = result
    return bool(ok)


def refine(result) -> bool:
    """verify_refinement returns (ok, violations), germ_preservation_check
    (ok, mapping, groupoids), algebra_preservation_check a report dict."""
    if isinstance(result, dict):
        return bool(result["ok"])
    return bool(result[0])


def cli(result) -> bool:
    """cli.main's exit code and printed JSON report: 0 and "pass" together."""
    code, printed = result
    report = json.loads(printed.strip().splitlines()[-1])
    return code == 0 and report["status"] == "pass"
