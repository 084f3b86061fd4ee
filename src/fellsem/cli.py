"""Batch command line interface.

Reads JSON inputs, dispatches to the library, and prints a JSON report:
{"command", "digest", "status", "violations", "timings", "seed", ...}.
Exit codes: 0 pass, 1 verification failure, 2 input error.  A bundle that
is not saturated or not semi-abelian where a check needs it to be is a
verification failure.
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


def _matrices(data):
    import numpy as np
    if not data:
        raise InputError("expected a non-empty list of matrices")
    mats = []
    for m in data:
        mats.append(np.array([[complex(re, im) for re, im in row] for row in m]))
    return mats


def _action_from(data):
    from fellsem.action import TwistedAction
    return TwistedAction.from_json(data)


def _groupoid_from(data):
    """G and tau from a groupoid payload: tau's fractions go to the
    cocycle's encoder, 0 on every composable pair the payload leaves out."""
    from fractions import Fraction

    from fellsem.action import split_labels
    from fellsem.groupoid import FiniteGroupoid, TwoCocycle
    G = FiniteGroupoid.from_json(data)
    idx = {lab: i for i, lab in enumerate(G.labels)}
    tau = dict.fromkeys(G.composable_pairs(), 0)
    for key, val in data.get("tau", {}).items():
        pair = split_labels(key, idx, 2)
        if pair not in tau:
            raise InputError(f"tau given on non-composable pair {key}")
        tau[pair] = Fraction(val)
    return G, TwoCocycle(G, tau)


def _bundle_from(data):
    """A bundle from either an action payload or a groupoid payload with
    optional carrier overrides."""
    if "semigroup" in data:
        from fellsem.bundle import build_bundle
        return build_bundle(_action_from(data))
    from fellsem.action import split_labels
    from fellsem.bundle import SectionBundle
    from fellsem.groupoid import bisection_semigroup
    G, tau = _groupoid_from(data)
    S, biss, wide = bisection_semigroup(G)
    carriers = None
    if "carriers" in data:
        idx = {lab: i for i, lab in enumerate(G.labels)}
        bis_key = {frozenset(b): i for i, b in enumerate(biss)}
        carriers = {}
        for key, arrows in data["carriers"].items():
            want = frozenset(split_labels(key, idx))
            carriers[bis_key[want]] = frozenset(idx[a] for a in arrows)
    return SectionBundle(G, tau, S, biss, carriers)


# ---------------------------------------------------------------------------

def cmd_isg(op, data, ctx):
    from fellsem import isg
    if op != "verify":
        raise InputError(f"unknown isg operation {op}")
    try:
        S = isg.verify_inverse_semigroup(data["table"], labels=data.get("elements"))
    except isg.IsgError as exc:
        return False, {"violations": [str(exc)]}
    return True, {"violations": [], "n": S.n,
                  "idempotents": [S.label(e) for e in S.idem]}


def cmd_tro(op, data, ctx):
    from fellsem import tro
    M = tro.MatrixTRO.from_matrices(_matrices(data))
    rng = random.Random(ctx["seed"])
    if op == "regular":
        ok, witness = tro.is_regular(M, trials=ctx["trials"], rng=rng, tol=ctx["tolerance"])
        extra = {"dim": len(M.basis)}
        if not ok:
            extra["trial_log"] = witness
        return ok, {"violations": [] if ok else ["no regular element found"], **extra}
    if op == "local":
        ok = tro.is_locally_regular(M, trials=ctx["trials"], rng=rng, tol=ctx["tolerance"])
        return ok, {"violations": [] if ok else ["not locally regular"]}
    if op == "closed":
        ok = M.is_tro(ctx["tolerance"])
        return ok, {"violations": [] if ok else ["span is not closed under x y* z"]}
    raise InputError(f"unknown tro operation {op}")


def cmd_action(op, data, ctx):
    from fellsem import action as act
    A = _action_from(data)
    if op in ("verify", "siebenize", "germs"):
        # siebenize and the germ groupoid mean nothing for a non-action
        ok, bad = act.verify_twisted_action(A)
        if op == "verify" or not ok:
            return ok, {"violations": [repr(v) for v in bad]}
    if op == "consequences":
        ok, bad = act.verify_consequences(A)
        return ok, {"violations": [repr(v) for v in bad]}
    if op == "sieben":
        ok, bad = act.check_sieben(A)
        return ok, {"violations": [repr(v) for v in bad]}
    if op == "siebenize":
        chi, A2 = act.siebenize(A)
        ok, bad = act.check_sieben(A2)
        return ok, {"violations": [repr(v) for v in bad], "action": A2.to_json()}
    if op == "germs":
        G = act.germ_groupoid(A)
        ok, bad = G.verify()
        return ok, {"violations": [repr(v) for v in bad], "arrows": G.arrow_count}
    raise InputError(f"unknown action operation {op}")


def cmd_bundle(op, data, ctx):
    from fellsem import bundle as bnd
    from fellsem.action import verify_twisted_action
    A = _action_from(data)
    B = bnd.build_bundle(A)
    if op == "verify":
        ok, bad = bnd.verify_fell_bundle(B, tol=ctx["tolerance"])
        return ok, {"violations": [repr(v) for v in bad]}
    if op == "classify":
        info = bnd.classify_bundle(B, tol=ctx["tolerance"])
        ok = info["saturated"] and info["semi_abelian"]
        return ok, {"violations": [], "saturated": info["saturated"],
                    "semi_abelian": info["semi_abelian"],
                    "regular": info["regular"]}
    if op == "extract":
        A2 = bnd.extract_action(B, bnd.canonical_multipliers(B))
        ok, bad = verify_twisted_action(A2)
        return ok, {"violations": [repr(v) for v in bad], "action": A2.to_json()}
    if op == "roundtrip":
        ok, diff = bnd.roundtrip_check(A)
        return ok, {"violations": [] if ok else [repr(d) for d in diff], "exact": ok}
    raise InputError(f"unknown bundle operation {op}")


def cmd_groupoid(op, data, ctx):
    from fellsem import groupoid as gpd
    G, tau = _groupoid_from(data)
    if op == "verify":
        return True, {"violations": [], "arrows": G.m, "objects": len(G.objects)}
    if op == "bisections":
        S, biss, wide = gpd.bisection_semigroup(G)
        return True, {"violations": [], "semigroup_size": S.n, "wide": wide}
    if op == "cocycle":
        ok, bad = gpd.verify_cocycle(G, tau)
        return ok, {"violations": [repr(v) for v in bad]}
    if op == "to-action":
        from fellsem.action import verify_twisted_action
        S, biss, wide = gpd.bisection_semigroup(G)
        A = gpd.action_from_cocycle(G, tau, S, biss, wide)
        ok, bad = verify_twisted_action(A)
        return ok, {"violations": [repr(v) for v in bad], "action": A.to_json()}
    if op == "roundtrip":
        S, biss, wide = gpd.bisection_semigroup(G)
        ok, detail = gpd.germ_recovers_groupoid(G, tau, S, biss, wide)
        return ok, {"violations": [] if ok else [repr(detail)],
                    "arrows": G.m}
    raise InputError(f"unknown groupoid operation {op}")


def cmd_algebra(op, data, ctx):
    from fellsem import algebra as alg
    rng = random.Random(ctx["seed"])
    if op == "germ":
        A = _action_from(data)
        a = alg.germ_algebra(A)
        ok, bad = a.verify(ctx["tolerance"])
        return ok, {"violations": [repr(v) for v in bad], "dim": len(a.carrier(0)),
                    "blocks": alg.block_decompose(a, rng=rng)}
    G, tau = _groupoid_from(data)
    a = alg.convolution_algebra(G, tau)
    if op == "build":
        ok, bad = a.verify(ctx["tolerance"])
        return ok, {"violations": [repr(v) for v in bad], "dim": len(a.carrier(0))}
    if op == "blocks":
        ok, bad = a.verify(ctx["tolerance"])
        return ok, {"violations": [repr(v) for v in bad],
                    "blocks": alg.block_decompose(a, rng=rng)}
    raise InputError(f"unknown algebra operation {op}")


def cmd_rep(op, data, ctx):
    from fellsem import reps
    from fellsem.groupoid import action_from_cocycle, bisection_semigroup
    from fellsem.bundle import build_bundle
    G, tau = _groupoid_from(data)
    S, biss, wide = bisection_semigroup(G)
    A = action_from_cocycle(G, tau, S, biss, wide)
    R = reps.regular_covariant_rep(G, tau, S, biss)
    if op == "regular" or op == "verify":
        ok, bad = reps.verify_covariant(R, A, ctx["tolerance"])
        return ok, {"violations": [repr(v) for v in bad], "dimension": R.d}
    if op == "convert":
        B = build_bundle(A)
        pi = reps.to_bundle_rep(R, B)
        ok1, bad1 = reps.verify_representation(pi, B, ctx["tolerance"])
        back = reps.to_covariant(pi, B, A)
        ok2 = reps.reps_equal(R, back, ctx["tolerance"])
        bad = [repr(v) for v in bad1] + ([] if ok2 else ["round trip differs"])
        return ok1 and ok2, {"violations": bad}
    raise InputError(f"unknown rep operation {op}")


def cmd_refine(op, data, ctx):
    from fellsem import refine
    from fellsem.bundle import classify_bundle
    A = _bundle_from(data)
    B, m = refine.saturated_refinement(A)
    if op == "saturate":
        info = classify_bundle(B, tol=ctx["tolerance"])
        ok = info["saturated"]
        return ok, {"violations": [] if ok else ["refinement is not saturated"],
                    "refined_semigroup_size": B.S.n}
    if op == "verify":
        ok, bad = refine.verify_refinement(m, ctx["tolerance"])
        return ok, {"violations": [repr(v) for v in bad]}
    if op == "germ-check":
        ok, detail, _ = refine.germ_preservation_check(m)
        return ok, {"violations": [] if ok else [repr(detail)]}
    if op == "algebra-check":
        report = refine.algebra_preservation_check(m, ctx["tolerance"])
        ok = report.pop("ok")
        report = {k: repr(v) if not isinstance(v, (int, list)) else v
                  for k, v in report.items()}
        return ok, {"violations": [] if ok else ["algebra mismatch"], **report}
    raise InputError(f"unknown refine operation {op}")


HANDLERS = {
    "isg": cmd_isg,
    "tro": cmd_tro,
    "action": cmd_action,
    "bundle": cmd_bundle,
    "groupoid": cmd_groupoid,
    "algebra": cmd_algebra,
    "rep": cmd_rep,
    "refine": cmd_refine,
}


def build_parser():
    p = argparse.ArgumentParser(prog="fellsem")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=16)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--pretty", action="store_true")
    p.add_argument("command", choices=sorted(HANDLERS))
    p.add_argument("operation")
    p.add_argument("file")
    return p


def main(argv=None) -> int:
    from fellsem.bundle import NotSaturated, NotSemiAbelian
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        tol = args.tolerance
        if tol is None:
            env = os.environ.get("FELLSEM_TOLERANCE", "1e-9")
            try:
                tol = float(env)
            except ValueError:
                raise InputError(f"FELLSEM_TOLERANCE is not a number: {env!r}") from None
        if not (math.isfinite(tol) and tol >= 0):
            raise InputError(f"tolerance must be finite and non-negative, got {tol}")
        ctx = {"tolerance": tol, "seed": args.seed, "trials": args.trials}
        if args.trials < 1:
            raise InputError(f"trials must be at least 1, got {args.trials}")
        data, digest = _load(args.file)
        try:
            ok, payload = HANDLERS[args.command](args.operation, data, ctx)
        except (NotSaturated, NotSemiAbelian) as exc:
            # a property of valid input, so a failed check, not an input error
            ok, payload = False, {"violations": [f"{type(exc).__name__}: {exc}"]}
    except InputError as exc:
        print(json.dumps({"command": f"{args.command} {args.operation}",
                          "status": "input-error", "error": str(exc)}))
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(json.dumps({"command": f"{args.command} {args.operation}",
                          "status": "input-error",
                          "error": f"{type(exc).__name__}: {exc}"}))
        return 2
    elapsed = time.perf_counter() - start
    report = {
        "command": f"{args.command} {args.operation}",
        "digest": digest,
        "status": "pass" if ok else "fail",
        "violations": payload.pop("violations", []),
        "timings": {"total_s": round(elapsed, 6)},
        "seed": args.seed,
    }
    report.update(payload)
    if args.pretty:
        print(f"{report['command']}: {report['status']} "
              f"({len(report['violations'])} violations, {elapsed:.3f}s)")
        for v in report["violations"][:20]:
            print(f"  - {v}")
        for key, val in payload.items():
            print(f"  {key}: {val}")
    else:
        print(json.dumps(report, default=str))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
