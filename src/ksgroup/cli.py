"""Command-line front door.

Subcommands: sbox-audit, expand, search, primitivity, goursat, lp-verify.
JSON output is the stable contract (``schema: 1``, seed and config always
embedded so any run can be replayed); text output is human-oriented only.

Exit codes: 0 = completed (an Inconclusive verdict is a completed run),
2 = input error, 3 = structural violation in the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from random import Random

from .gf2 import Subspace, vec_to_hex
from .goursat import tower_report
from .invariants import (
    ks_oracle,
    lp_pattern_subspace,
    closure_search,
    is_affine,
    primitivity_check,
    random_affine_word_permutation,
    random_nonaffine_word_permutation,
    spn_primitivity_certificate,
    verify_lp_subspace,
)
from .keyschedule import (
    aes128_expand_key,
    aes_core,
    aes_round_constant_states,
    rot_bricks_left,
    state_from_hex,
    word_from_bytes,
    word_to_hex,
)
from .sbox import AES_SBOX, SBoxError, SBoxFormatError, audit_sbox, parse_sbox_text

SCHEMA = 1
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3

BUDGET_ENV = "KSGROUP_BUDGET_MS"


class InputError(Exception):
    pass


def _default_budget_ms() -> float | None:
    raw = os.environ.get(BUDGET_ENV)
    return float(raw) if raw else None


def _emit(report: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _subspace_hex(u: Subspace) -> list[str]:
    return [vec_to_hex(v, u.m) for v in u.basis]


# ---------------------------------------------------------------------
# sbox-audit


def cmd_sbox_audit(args) -> int:
    if args.aes:
        sb = AES_SBOX
        source = "builtin-aes"
    else:
        if not args.table:
            raise InputError("provide an S-box file or --aes")
        try:
            with open(args.table) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(str(exc)) from None
        try:
            sb = parse_sbox_text(text)
        except SBoxFormatError as exc:
            raise InputError(f"parse error: {exc}") from None
        except SBoxError as exc:
            print(f"invalid S-box: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        source = args.table
    if not 0 <= args.max_delta <= sb.s - 1:
        raise InputError(f"--max-delta must be in 0..{sb.s - 1} for a {sb.s}-bit S-box")
    audit = audit_sbox(sb, max_delta=args.max_delta)
    report = {
        "schema": SCHEMA,
        "command": "sbox-audit",
        "source": source,
        "s": audit.s,
        "delta": audit.delta,
        "min_derivative_image": audit.min_derivative_image,
        "anti_invariance_order": audit.anti.order,
        "anti_invariance_max_tested": audit.anti.max_tested,
        "anti_invariance_witness": (
            _subspace_hex(audit.anti.witness) if audit.anti.witness else None
        ),
        "normalization_offset": audit.normalization_offset,
        "fixed_points": list(audit.fixed_points),
    }
    _emit(report, args.output, [
        f"s-box width: {audit.s} bits ({source})",
        f"differential uniformity: {audit.delta}",
        f"smallest derivative image: {audit.min_derivative_image}",
        f"anti-invariance order: {audit.anti.order} (tested up to {audit.anti.max_tested})"
        + ("" if audit.normalization_offset == 0
           else f", after normalizing away f(0)={audit.normalization_offset:#04x}"),
    ])
    return EXIT_OK


# ---------------------------------------------------------------------
# expand


def cmd_expand(args) -> int:
    try:
        master = state_from_hex(args.key)
    except ValueError as exc:
        raise InputError(f"bad key hex: {exc}") from None
    keys = aes128_expand_key(master)
    model_checked = None
    if args.check_model:
        from . import fips197

        ref = fips197.round_keys(bytes.fromhex(args.key))
        model_checked = all(
            keys[r] == tuple(word_from_bytes(w) for w in ref[r]) for r in range(11)
        )
        if not model_checked:
            print("operator model disagrees with the FIPS-197 recurrence", file=sys.stderr)
            return EXIT_INVARIANT
    report = {
        "schema": SCHEMA,
        "command": "expand",
        "key": args.key,
        "round_keys": [[word_to_hex(w) for w in st] for st in keys],
        "model_checked": model_checked,
    }
    lines = [f"round {r:2d}: " + " ".join(word_to_hex(w) for w in st) for r, st in enumerate(keys)]
    if model_checked is not None:
        lines.append(f"operator model agrees with FIPS-197 recurrence: {model_checked}")
    _emit(report, args.output, lines)
    return EXIT_OK


# ---------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    if args.samples < 0 or args.stable_rounds < 0:
        raise InputError("--samples and --stable-rounds must be non-negative")
    rho = aes_core().normalized()
    constants = None
    normalized_composite = False
    if args.with_constants:
        if args.power < 1:
            raise InputError("--with-constants needs a positive --power")
        constants = aes_round_constant_states(args.power)
        rho = aes_core()
    oracle = ks_oracle(rho, power=args.power, constants=constants)
    if args.with_constants:
        # the composite with constants does not fix 0; the search needs the
        # offset-normalized form and the report says so
        oracle = oracle.normalized()
        normalized_composite = True
    rng = Random(args.seed)
    if args.seed_in_lp:
        u = lp_pattern_subspace()
        seeds = []
        for _ in range(max(1, args.n_seeds)):
            x = 0
            for row in u.basis:
                if rng.getrandbits(1):
                    x ^= row
            seeds.append(x or u.basis[0])
    elif args.seeds:
        try:
            seeds = [int(s, 16) for s in args.seeds.split(",")]
        except ValueError as exc:
            raise InputError(f"bad seed hex: {exc}") from None
        if any(not 0 <= s < (1 << 128) for s in seeds):
            raise InputError("seeds must be 128-bit values")
    else:
        seeds = [rng.getrandbits(128) or 1 for _ in range(max(1, args.n_seeds))]
    budget = args.budget_ms if args.budget_ms is not None else _default_budget_ms()
    result = closure_search(
        oracle,
        seeds,
        samples_per_round=args.samples,
        stable_rounds=args.stable_rounds,
        seed=args.seed,
        budget_ms=budget,
    )
    # a proper subspace is claimed only when certified; a search stopped by
    # the budget or the round cap, or failing the fresh check, is inconclusive
    if result.reached_full:
        status = "full-space"
    else:
        status = "proper-subspace" if result.proper else "inconclusive"
    report = {
        "schema": SCHEMA,
        "command": "search",
        "power": args.power,
        "with_constants": bool(args.with_constants),
        "normalized_composite": normalized_composite,
        "seed": args.seed,
        "seed_in_lp": bool(args.seed_in_lp),
        "budget_ms": budget,
        "samples_per_round": args.samples,
        "stable_rounds": args.stable_rounds,
        "status": status,
        "dim": result.subspace.dim,
        "rounds": result.rounds,
        "fresh_invariance_ok": result.fresh_invariance_ok,
        "witness_basis": _subspace_hex(result.subspace) if result.proper else None,
    }
    _emit(report, args.output, [
        f"closure search against power {args.power}: {status}",
        f"dimension {result.subspace.dim} after {result.rounds} rounds"
        f" (fresh invariance: {result.fresh_invariance_ok})",
    ])
    return EXIT_OK


# ---------------------------------------------------------------------
# primitivity


def cmd_primitivity(args) -> int:
    if args.samples < 0:
        raise InputError("--samples must be non-negative")
    if args.rho != "aes":
        if args.n * 4 > 20:
            raise InputError("toy verdicts need 4n <= 20 bits")
        least = 3 if args.rho == "random" else 1  # every map of F_2^n is affine for n <= 2
        if args.n < least:
            raise InputError(f"--rho {args.rho} needs --n >= {least}")
    rng = Random(args.seed)
    if args.rho == "random":
        rho = random_nonaffine_word_permutation(args.n, rng)
    elif args.rho == "affine":
        rho = random_affine_word_permutation(args.n, rng)
    elif args.rho == "aes":
        rho = aes_core()
    else:
        raise InputError(f"unknown rho kind {args.rho!r}")

    t0 = time.perf_counter()
    if args.rho == "aes":
        # 2^128 points: the exhaustive verdict refuses; sampled mode probes
        # with closure searches and still reports Inconclusive, never a guess
        lifted = primitivity_check([ks_oracle(rho, 1)], 4 * rho.m)
        probes = None
        if args.mode == "sampled":
            budget = args.budget_ms if args.budget_ms is not None else _default_budget_ms()
            oracle = ks_oracle(rho.normalized(), power=1)
            probes = {"seeds": 0, "proper_found": 0}
            for _ in range(max(1, args.samples // 256)):
                res = closure_search(
                    oracle, [rng.getrandbits(4 * rho.m) or 1],
                    seed=rng.getrandbits(30), budget_ms=budget,
                )
                probes["seeds"] += 1
                if res.proper:
                    probes["proper_found"] += 1
        report = {
            "schema": SCHEMA,
            "command": "primitivity",
            "rho": rho.descriptor,
            "mode": args.mode,
            "seed": args.seed,
            "samples": args.samples if args.mode == "sampled" else 0,
            "lifted": {"status": lifted.status, "reason": lifted.reason},
            "closure_probes": probes,
            "runtime_ms": (time.perf_counter() - t0) * 1000,
        }
        lines = [f"lifted check at 4n={4 * rho.m}: {lifted.status} ({lifted.reason})"]
        if probes:
            lines.append(
                f"closure probes: {probes['proper_found']}/{probes['seeds']} found a proper subspace"
            )
        _emit(report, args.output, lines)
        return EXIT_OK

    base = primitivity_check([rho], args.n, method="unionfind")
    affine = is_affine(rho)
    lifted = primitivity_check([ks_oracle(rho, 1)], 4 * args.n)
    consistent = True
    if base.status == "primitive" and not affine:
        consistent = lifted.status == "primitive"
    report = {
        "schema": SCHEMA,
        "command": "primitivity",
        "n": args.n,
        "rho": rho.descriptor,
        "rho_affine": affine,
        "seed": args.seed,
        "base": {"status": base.status, "pairs_checked": base.pairs_checked},
        "lifted": {
            "status": lifted.status,
            "pairs_checked": lifted.pairs_checked,
            "witness_basis": _subspace_hex(lifted.witness) if lifted.witness else None,
            "witness_certified": lifted.witness_certified,
        },
        "reduction_consistent": consistent,
        "runtime_ms": (time.perf_counter() - t0) * 1000,
    }
    _emit(report, args.output, [
        f"rho: {rho.descriptor} (affine: {affine})",
        f"base group on 2^{args.n} points: {base.status}",
        f"lifted group on 2^{4 * args.n} points: {lifted.status}",
        f"reduction prediction consistent: {consistent}",
    ])
    return EXIT_OK


# ---------------------------------------------------------------------
# goursat


def cmd_goursat(args) -> int:
    try:
        with open(args.subspace) as fh:
            u = Subspace.from_text(fh.read())
    except OSError as exc:
        raise InputError(str(exc)) from None
    except ValueError as exc:
        raise InputError(f"parse error: {exc}") from None
    if u.m % 4:
        print(f"ambient dimension {u.m} is not divisible by 4", file=sys.stderr)
        return EXIT_INVARIANT
    report = tower_report(u, with_hom=args.with_hom)
    report["schema"] = SCHEMA
    report["command"] = "goursat"
    top = report["top"]
    _emit(report, args.output, [
        f"subspace of F_2^{u.m}, dim {u.dim}",
        f"top split dims: image {top['left_image_dim']}/{top['left_kernel_dim']}"
        f" vs {top['right_image_dim']}/{top['right_kernel_dim']}",
        f"round-trip ok: {report['roundtrip_ok']}",
    ])
    return EXIT_OK


# ---------------------------------------------------------------------
# lp-verify


def cmd_lp_verify(args) -> int:
    if args.samples < 0:
        raise InputError("--samples must be non-negative")
    rep = verify_lp_subspace(samples=args.samples, seed=args.seed, run_closure=not args.no_closure)
    report = {
        "schema": SCHEMA,
        "command": "lp-verify",
        "samples": rep.samples,
        "seed": rep.seed,
        "resolved_convention": rep.resolved_convention,
        "failures": rep.failures,
        "screening": rep.screening,
        "subspace_dim": rep.subspace_dim,
        "closure_dim": rep.closure_dim,
        "closure_contained": rep.closure_contained,
    }
    _emit(report, args.output, [
        f"pattern subspace dim {rep.subspace_dim}",
        f"resolved convention: {rep.resolved_convention}",
        f"failures: {rep.failures}/{rep.samples}",
        f"closure inside the subspace: dim {rep.closure_dim}, contained {rep.closure_contained}",
    ])
    return EXIT_OK


# ---------------------------------------------------------------------
# certificate (exposed for completeness alongside sbox-audit)


def cmd_certificate(args) -> int:
    if not 2 <= args.delta <= AES_SBOX.s - 1:
        raise InputError(f"--delta must be in 2..{AES_SBOX.s - 1}")
    rows = tuple(
        _apply_rot_power(1 << i, args.rot_power) for i in range(32)
    )
    cert = spn_primitivity_certificate(AES_SBOX, rows, delta=args.delta)
    report = {
        "schema": SCHEMA,
        "command": "certificate",
        "delta": args.delta,
        "rot_power": args.rot_power,
        "passed": cert.passed,
        "clauses": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in cert.clauses
        ],
    }
    _emit(report, args.output, [
        f"certificate (delta={args.delta}, rotation power {args.rot_power}): "
        + ("PASS" if cert.passed else f"FAIL ({', '.join(cert.failing())})")
    ] + [f"  {c.name}: {'ok' if c.passed else 'FAIL'} - {c.detail}" for c in cert.clauses])
    return EXIT_OK


def _apply_rot_power(x: int, power: int) -> int:
    for _ in range(power % 4):
        x = rot_bricks_left(x, 8, 4)
    return x


# ---------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksgroup",
        description="algebraic analysis of AES-like key schedules",
    )
    parser.add_argument("--output", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sbox-audit", help="differential uniformity and anti-invariance")
    p.add_argument("table", nargs="?", help="hex table file")
    p.add_argument("--aes", action="store_true", help="audit the builtin AES table")
    p.add_argument("--max-delta", type=int, default=2)
    p.set_defaults(func=cmd_sbox_audit)

    p = sub.add_parser("expand", help="AES-128 key expansion")
    p.add_argument("key", help="32 hex chars")
    p.add_argument("--check-model", action="store_true",
                   help="assert operator-model/FIPS agreement per round")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("search", help="Monte-Carlo invariant-subspace closure search")
    p.add_argument("--power", type=int, default=4, help="operator power to test")
    p.add_argument("--seed-in-lp", action="store_true",
                   help="draw seeds inside the known pattern subspace")
    p.add_argument("--seeds", help="comma-separated 128-bit hex seeds")
    p.add_argument("--n-seeds", type=int, default=1)
    p.add_argument("--with-constants", action="store_true",
                   help="re-enable per-round constants")
    p.add_argument("--samples", type=int, default=256, help="samples per round")
    p.add_argument("--stable-rounds", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-ms", type=float, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("primitivity", help="exhaustive toy-scale block-system check")
    p.add_argument("--n", type=int, default=3, help="word width in bits")
    p.add_argument("--rho", choices=("random", "affine", "aes"), default="random")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive",
                   help="sampled adds closure probes at widths beyond the exhaustive budget")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_primitivity)

    p = sub.add_parser("goursat", help="decomposition tower of a subspace file")
    p.add_argument("subspace", help="subspace text file (m=<int>, hex rows)")
    p.add_argument("--with-hom", action="store_true", help="include hom matrices")
    p.set_defaults(func=cmd_goursat)

    p = sub.add_parser("lp-verify", help="verify the four-round pattern subspace")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-closure", action="store_true")
    p.set_defaults(func=cmd_lp_verify)

    p = sub.add_parser("certificate", help="S-box + linear layer primitivity certificate")
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--rot-power", type=int, default=1,
                   help="power of the byte rotation used as the linear layer")
    p.set_defaults(func=cmd_certificate)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())
