"""Batch command line interface.

Reads a JSON payload, checks it, and prints a JSON report:
{"command", "digest", "status", "violations", "timings", "seed", ...}.
Exit codes: 0 pass, 1 verification failure, 2 input error.  A bundle that
is not saturated or not semi-abelian where a check needs it to be is a
verification failure.

COMMANDS is the whole surface.  Each command names the reader that turns
its payload into a subject, and its operations.  An operation is a
function of the subject and the parsed arguments (tolerance, seed,
trials) that returns (ok, violations, extra): the violations as report
strings, and the keys the report adds after "seed", in order.  main reads
the payload, looks the operation up, runs it and builds the one report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

import numpy as np

from fellsem import action as act, algebra as alg, bundle as bnd, groupoid as gpd, isg, refine, reps, tro


class InputError(Exception):
    pass


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}") from exc


def _tro_from(data):
    if not data:
        raise InputError("expected a non-empty list of matrices")
    return tro.MatrixTRO.from_matrices(
        [np.array([[complex(re, im) for re, im in row] for row in m]) for m in data])


def _groupoid_from(data):
    """tau, with its groupoid tau.G, from a groupoid payload: tau's fractions
    go to the cocycle's encoder, 0 on every composable pair the payload
    leaves out."""
    G = gpd.FiniteGroupoid.from_json(data)
    idx = {lab: i for i, lab in enumerate(G.labels)}
    tau = dict.fromkeys(G.composable_pairs(), 0)
    for key, val in data.get("tau", {}).items():
        pair = act.split_labels(key, idx, 2)
        if pair not in tau:
            raise InputError(f"tau given on non-composable pair {key}")
        tau[pair] = Fraction(val)
    return gpd.TwoCocycle(G, tau)


def _bundle_from(data):
    """A bundle from either an action payload or a groupoid payload with
    optional carrier overrides."""
    if "semigroup" in data:
        return bnd.build_bundle(act.TwistedAction.from_json(data))
    tau = _groupoid_from(data)
    G = tau.G
    S, biss, wide = gpd.bisection_semigroup(G)
    carriers = None
    if "carriers" in data:
        idx = {lab: i for i, lab in enumerate(G.labels)}
        bis_key = {frozenset(b): i for i, b in enumerate(biss)}
        carriers = {}
        for key, arrows in data["carriers"].items():
            want = frozenset(act.split_labels(key, idx))
            carriers[bis_key[want]] = frozenset(idx[a] for a in arrows)
    return bnd.SectionBundle(G, tau, S, biss, carriers)


# ---------------------------------------------------------------------------
# operations: (subject, args) -> (ok, violations, extra)

def _checked(result, **extra):
    """A check's (ok, records) with each record as its repr."""
    ok, records = result
    return ok, [repr(r) for r in records], extra


def _unless(ok, message, **extra):
    """A check whose one violation is message."""
    return ok, [] if ok else [message], extra


def _detailed(result, **extra):
    """A check's (ok, detail, ...) whose one violation is the detail's repr."""
    ok, detail = result[:2]
    return ok, [] if ok else [repr(detail)], extra


def _with_action(check, A):
    """check of an action the operation made, with the action in the report."""
    return _checked(check(A), action=A.to_json())


def _isg_verify(data, args):
    try:
        S = isg.verify_inverse_semigroup(data["table"], labels=data.get("elements"))
    except isg.IsgError as exc:
        return False, [str(exc)], {}
    return True, [], {"n": S.n, "idempotents": [S.label(e) for e in S.idem]}


def _tro_regular(M, args):
    ok, witness = tro.is_regular(M, trials=args.trials, rng=random.Random(args.seed), tol=args.tolerance)
    if ok:
        return True, [], {"dim": len(M.basis)}
    return False, ["no regular element found"], {"dim": len(M.basis), "trial_log": witness}


def _if_action(then, check=act.verify_twisted_action):
    """then(A) once check(A) holds, else check's failure: siebenize and germs
    mean nothing for a non-action, and the consequences read omega where
    the structure family puts its carriers."""
    def op(A, args):
        ok, bad = check(A)
        return then(A) if ok else _checked((ok, bad))
    return op


def _germs(A):
    G = act.germ_groupoid(A)
    return _checked(G.verify(), arrows=G.arrow_count)


def _bundle_classify(A, args):
    info = bnd.classify_bundle(bnd.build_bundle(A), tol=args.tolerance)
    return (info["saturated"] and info["semi_abelian"], [],
            {key: info[key] for key in ("saturated", "semi_abelian", "regular")})


def _bundle_extract(A, args):
    B = bnd.build_bundle(A)
    return _with_action(act.verify_twisted_action, bnd.extract_action(B, bnd.canonical_multipliers(B)))


def _bundle_roundtrip(A, args):
    ok, diff = bnd.roundtrip_check(A)
    return ok, [] if ok else [repr(d) for d in diff], {"exact": ok}


def _groupoid_bisections(tau, args):
    S, biss, wide = gpd.bisection_semigroup(tau.G)
    return True, [], {"semigroup_size": S.n, "wide": wide}


def _algebra(a, args, dim=True, blocks=True):
    """The algebra's axioms, with its dimension and block profile."""
    ok, bad = a.verify(args.tolerance)
    extra = {"dim": len(a.carrier(0))} if dim else {}
    if blocks:
        extra["blocks"] = alg.block_decompose(a, rng=random.Random(args.seed))
    return _checked((ok, bad), **extra)


def _convolution(data):
    tau = _groupoid_from(data)
    return alg.convolution_algebra(tau.G, tau)


def _covariant(tau):
    """The cocycle's action and its regular covariant representation."""
    S, biss, wide = gpd.bisection_semigroup(tau.G)
    return gpd.action_from_cocycle(tau.G, tau, S, biss, wide), reps.regular_covariant_rep(tau.G, tau, S, biss)


def _rep_verify(tau, args):
    A, R = _covariant(tau)
    return _checked(reps.verify_covariant(R, A, args.tolerance), dimension=R.d)


def _rep_convert(tau, args):
    A, R = _covariant(tau)
    B = bnd.build_bundle(A)
    pi = reps.to_bundle_rep(R, B)
    ok, bad, extra = _checked(reps.verify_representation(pi, B, args.tolerance))
    same = reps.reps_equal(R, reps.to_covariant(pi, B, A), args.tolerance)
    return ok and same, bad + ([] if same else ["round trip differs"]), extra


def _refine_algebra(m, args):
    report = refine.algebra_preservation_check(m)
    ok = report.pop("ok")
    return _unless(ok, "algebra mismatch",
                   **{k: v if isinstance(v, (int, list)) else repr(v) for k, v in report.items()})


COMMANDS = {
    "isg": (lambda data: data, {"verify": _isg_verify}),
    "tro": (_tro_from, {
        "regular": _tro_regular,
        "local": lambda M, args: _unless(tro.is_locally_regular(
            M, trials=args.trials, rng=random.Random(args.seed), tol=args.tolerance), "not locally regular"),
        "closed": lambda M, args: _unless(M.is_tro(args.tolerance), "span is not closed under x y* z"),
    }),
    "action": (act.TwistedAction.from_json, {
        "verify": lambda A, args: _checked(act.verify_twisted_action(A)),
        "consequences": _if_action(lambda A: _checked(act.verify_consequences(A)), act.verify_structure),
        "sieben": lambda A, args: _checked(act.check_sieben(A)),
        "siebenize": _if_action(lambda A: _with_action(act.check_sieben, act.siebenize(A)[1])),
        "germs": _if_action(_germs),
    }),
    "bundle": (act.TwistedAction.from_json, {
        "verify": lambda A, args: _checked(bnd.verify_fell_bundle(bnd.build_bundle(A), tol=args.tolerance)),
        "classify": _bundle_classify,
        "extract": _bundle_extract,
        "roundtrip": _bundle_roundtrip,
    }),
    "groupoid": (_groupoid_from, {
        "verify": lambda tau, args: (True, [], {"arrows": tau.G.m, "objects": len(tau.G.objects)}),
        "bisections": _groupoid_bisections,
        "cocycle": lambda tau, args: _checked(gpd.verify_cocycle(tau.G, tau)),
        "to-action": lambda tau, args: _with_action(
            act.verify_twisted_action, gpd.action_from_cocycle(tau.G, tau, *gpd.bisection_semigroup(tau.G))),
        "roundtrip": lambda tau, args: _detailed(
            gpd.germ_recovers_groupoid(tau.G, tau, *gpd.bisection_semigroup(tau.G)), arrows=tau.G.m),
    }),
    # germ reads an action payload, build and blocks a groupoid payload
    "algebra": (lambda data: data, {
        "germ": lambda data, args: _algebra(alg.germ_algebra(act.TwistedAction.from_json(data)), args),
        "build": lambda data, args: _algebra(_convolution(data), args, blocks=False),
        "blocks": lambda data, args: _algebra(_convolution(data), args, dim=False),
    }),
    "rep": (_groupoid_from, {"regular": _rep_verify, "verify": _rep_verify, "convert": _rep_convert}),
    "refine": (lambda data: refine.saturated_refinement(_bundle_from(data))[1], {
        "saturate": lambda m, args: _unless(bnd.classify_bundle(m.B, tol=args.tolerance)["saturated"],
                                            "refinement is not saturated", refined_semigroup_size=m.B.S.n),
        "verify": lambda m, args: _checked(refine.verify_refinement(m, args.tolerance)),
        "germ-check": lambda m, args: _detailed(refine.germ_preservation_check(m)),
        "algebra-check": _refine_algebra,
    }),
}


def build_parser():
    p = argparse.ArgumentParser(prog="fellsem")
    p.add_argument("--tolerance", type=float,
                   help="tolerance of the numeric checks (default 1e-9, or FELLSEM_TOLERANCE); "
                        "refine algebra-check compares its constants exactly and does not read it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=16)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--pretty", action="store_true")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("operation")
    p.add_argument("file")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"{args.command} {args.operation}"
    start = time.perf_counter()
    try:
        if args.tolerance is None:
            env = os.environ.get("FELLSEM_TOLERANCE", "1e-9")
            try:
                args.tolerance = float(env)
            except ValueError:
                raise InputError(f"FELLSEM_TOLERANCE is not a number: {env!r}") from None
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise InputError(f"tolerance must be finite and non-negative, got {args.tolerance}")
        if args.trials < 1:
            raise InputError(f"trials must be at least 1, got {args.trials}")
        data, digest = _load(args.file)
        read, operations = COMMANDS[args.command]
        try:
            subject = read(data)
            if args.operation not in operations:
                raise InputError(f"unknown {args.command} operation {args.operation}")
            ok, violations, extra = operations[args.operation](subject, args)
        except (bnd.NotSaturated, bnd.NotSemiAbelian) as exc:
            # a property of valid input, so a failed check, not an input error
            ok, violations, extra = False, [f"{type(exc).__name__}: {exc}"], {}
    except (InputError, KeyError, TypeError, ValueError) as exc:
        error = str(exc) if isinstance(exc, InputError) else f"{type(exc).__name__}: {exc}"
        print(json.dumps({"command": command, "status": "input-error", "error": error}))
        return 2
    elapsed = time.perf_counter() - start
    report = {"command": command, "digest": digest, "status": "pass" if ok else "fail",
              "violations": violations, "timings": {"total_s": round(elapsed, 6)}, "seed": args.seed,
              **extra}
    if args.pretty:
        print(f"{command}: {report['status']} ({len(violations)} violations, {elapsed:.3f}s)")
        for v in violations[:20]:
            print(f"  - {v}")
        for key, val in extra.items():
            print(f"  {key}: {val}")
    else:
        print(json.dumps(report, default=str))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
