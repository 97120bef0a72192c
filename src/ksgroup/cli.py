"""Command-line front door: ``ksgroup`` or ``python3 -m ksgroup.cli``.

JSON output is the stable contract (``schema: 1``, seed and config always
embedded so any run can be replayed); text output is human-oriented only.
Each ``cmd_*`` returns its report and text lines; ``run`` alone stamps
``schema`` and ``command``, prints, and picks the exit code: 0 = completed
(an Inconclusive verdict is a completed run), 2 = ``InputError`` (argparse
rejections included), 3 = ``StructureError`` (a structural violation in
the inputs).

A rule on one argument is declared in ``build_parser``: bounds and formats
as argument types (``_int_in``, ``_seeds``, ``_budget``), exclusive inputs
as groups.  The ``cmd_*`` bodies check only rules that relate one flag to
another.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from random import Random

from . import fips197
from .gf2 import CapacityError, Subspace, matrix_apply, vec_from_hex, vec_to_hex
from .goursat import tower_report
from .invariants import (
    closure_search,
    is_affine,
    lp_pattern_subspace,
    primitivity_check,
    random_affine_word_permutation,
    random_nonaffine_word_permutation,
    spn_primitivity_certificate,
    verify_lp_subspace,
)
from .keyschedule import (
    MAX_EXHAUSTIVE_POINTS,
    aes128_expand_key,
    aes_core,
    aes_round_constant_states,
    ks_oracle,
    unflatten_state,
)
from .sbox import AES_SBOX, SBoxError, SBoxFormatError, audit_sbox, parse_sbox_text

SCHEMA = 1
BUDGET_ENV = "KSGROUP_BUDGET_MS"
PROBE_SAMPLES = 256  # sampled primitivity: one closure probe per this many samples
# 128 random seeds already span the whole 128-bit state in one round
MAX_SEEDS = 1 << 16
# the operator is composed |power| times per evaluation
MAX_POWER = 1 << 10
# goursat builds lists as long as the ambient dimension; the widest state
# any command builds is 128 bits
MAX_AMBIENT_BITS = 1024


class InputError(Exception):
    """Bad input: ``run`` prints it after ``input error:`` and exits 2."""


class StructureError(Exception):
    """Inputs that violate a structural requirement: ``run`` exits 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise InputError(message)


def _int_in(low: int, high: int | None = None, step: int = 1):
    """argparse type: an integer in ``low..high``, or at least ``low``, and a multiple of ``step``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            bound = f"at least {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        if value % step:
            raise argparse.ArgumentTypeError(f"must be a multiple of {step}, got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _seeds(text: str) -> list[int]:
    """argparse type of ``search --seeds``: 128-bit hex values, not all zero."""
    try:
        seeds = [int(s, 16) for s in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed hex: {exc}") from None
    if any(not 0 <= s < (1 << 128) for s in seeds):
        raise argparse.ArgumentTypeError("seeds must be 128-bit values")
    if not any(seeds):
        raise argparse.ArgumentTypeError("the seeds span only 0; give a nonzero seed")
    return seeds


def _budget(text: str) -> float:
    """argparse type of a budget in ms: a non-negative number, NaN refused."""
    try:
        if float(text) >= 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text!r}")


def _budget_ms(args) -> float | None:
    """``--budget-ms``, else ``KSGROUP_BUDGET_MS`` by the same parser, else none."""
    raw = os.environ.get(BUDGET_ENV)
    if args.budget_ms is not None or not raw:
        return args.budget_ms
    try:
        return _budget(raw)
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"{BUDGET_ENV}: {exc}") from None


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from None


def _subspace_hex(u: Subspace) -> list[str]:
    return [vec_to_hex(v, u.m) for v in u.basis]


# ---------------------------------------------------------------------
# sbox-audit


def cmd_sbox_audit(args) -> tuple[dict, list[str]]:
    if args.aes:
        sb = AES_SBOX
        source = "builtin-aes"
    else:
        try:
            sb = parse_sbox_text(_read(args.table))
        except SBoxFormatError as exc:
            raise InputError(f"parse error: {exc}") from None
        except SBoxError as exc:
            raise StructureError(f"invalid S-box: {exc}") from None
        source = args.table
    if args.max_delta is not None and args.max_delta > sb.m - 1:
        raise InputError(f"--max-delta must be in 0..{sb.m - 1} for a {sb.m}-bit S-box")
    try:
        audit = audit_sbox(sb, max_delta=args.max_delta)
    except CapacityError as exc:
        raise InputError(f"anti-invariance of a {sb.m}-bit S-box: {exc}; use --max-delta 0") from None
    report = {
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
    return report, [
        f"s-box width: {audit.s} bits ({source})",
        f"differential uniformity: {audit.delta}",
        f"smallest derivative image: {audit.min_derivative_image}",
        f"anti-invariance order: {audit.anti.order} (tested up to {audit.anti.max_tested})"
        + ("" if audit.normalization_offset == 0
           else f", after normalizing away f(0)={audit.normalization_offset:#04x}"),
    ]


# ---------------------------------------------------------------------
# expand


def cmd_expand(args) -> tuple[dict, list[str]]:
    try:
        master = vec_from_hex(args.key, 128)
    except ValueError as exc:
        raise InputError(f"bad key hex: {exc}") from None
    keys = aes128_expand_key(master)
    model_checked = None
    if args.check_model:
        ref = fips197.round_keys(bytes.fromhex(args.key))
        model_checked = all(
            x == int.from_bytes(bytes(b for w in fips_words for b in w), "little")
            for x, fips_words in zip(keys, ref)
        )
        if not model_checked:
            raise StructureError("operator model disagrees with the FIPS-197 recurrence")
    words = [[vec_to_hex(w, 32) for w in unflatten_state(x)] for x in keys]
    report = {"key": args.key, "round_keys": words, "model_checked": model_checked}
    lines = [f"round {r:2d}: " + " ".join(ws) for r, ws in enumerate(words)]
    if model_checked is not None:
        lines.append(f"operator model agrees with FIPS-197 recurrence: {model_checked}")
    return report, lines


# ---------------------------------------------------------------------
# search


def cmd_search(args) -> tuple[dict, list[str]]:
    budget = _budget_ms(args)
    if args.seeds is not None and args.n_seeds is not None:
        raise InputError("give --seeds or --n-seeds, not both")
    n_seeds = 1 if args.n_seeds is None else args.n_seeds
    if args.with_constants:
        if not 1 <= args.power <= 10:
            raise InputError("--with-constants needs --power in 1..10: AES-128 has ten round constants")
        # the composite with constants does not fix 0; the search needs the
        # offset-normalized form and the report says so
        constants = aes_round_constant_states(args.power)
        oracle = ks_oracle(aes_core(), power=args.power, constants=constants).normalized()
    else:
        oracle = ks_oracle(aes_core().normalized(), power=args.power)
    rng = Random(args.seed)
    seeds = args.seeds
    if args.seed_in_lp:
        u = lp_pattern_subspace()
        # one getrandbits(1) per row, bit j selecting row j, not the one
        # getrandbits(32) of gf2.random_member: the seeded reports replay
        # these draws
        seeds = [matrix_apply(u.basis, sum(rng.getrandbits(1) << j for j in range(u.dim))) or u.basis[0]
                 for _ in range(n_seeds)]
    elif seeds is None:
        seeds = [rng.getrandbits(128) or 1 for _ in range(n_seeds)]
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
        "power": args.power,
        "with_constants": bool(args.with_constants),
        "normalized_composite": bool(args.with_constants),
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
    return report, [
        f"closure search against power {args.power}: {status}",
        f"dimension {result.subspace.dim} after {result.rounds} rounds"
        f" (fresh invariance: {result.fresh_invariance_ok})",
    ]


# ---------------------------------------------------------------------
# primitivity


def cmd_primitivity(args) -> tuple[dict, list[str]]:
    # only the sampled AES probes spend a budget
    sampled = args.rho == "aes" and args.mode == "sampled"
    for flag, value in (("--budget-ms", args.budget_ms), ("--samples", args.samples)):
        if not sampled and value is not None:
            raise InputError(f"{flag} applies only to --rho aes --mode sampled")
    samples = 512 if args.samples is None else args.samples
    if args.rho == "aes" and args.n is not None:
        raise InputError("--n applies only to a toy --rho; the AES word is 32 bits")
    n = 3 if args.n is None else args.n
    if args.rho != "aes":
        if args.mode == "sampled":
            raise InputError("--mode sampled applies only to --rho aes")
        # 2^(4n) points against the exhaustive budget, compared by exponent
        # so that a huge or negative --n builds no huge int
        limit = MAX_EXHAUSTIVE_POINTS.bit_length() - 1
        if 4 * n > limit:
            raise InputError(f"toy verdicts need 4n <= {limit} bits")
        least = 3 if args.rho == "random" else 1  # every map of F_2^n is affine for n <= 2
        if n < least:
            raise InputError(f"--rho {args.rho} needs --n >= {least}")
    budget = _budget_ms(args) if sampled else None
    rng = Random(args.seed)
    if args.rho == "random":
        rho = random_nonaffine_word_permutation(n, rng)
    elif args.rho == "affine":
        rho = random_affine_word_permutation(n, rng)
    else:
        rho = aes_core()

    t0 = time.perf_counter()
    if args.rho == "aes":
        # 2^128 points: the exhaustive verdict refuses; sampled mode probes
        # with closure searches and still reports Inconclusive, never a guess
        lifted = primitivity_check(ks_oracle(rho, 1))
        probes = None
        if sampled:
            oracle = ks_oracle(rho.normalized(), power=1)
            n_probes = samples // PROBE_SAMPLES
            found = sum(
                closure_search(
                    oracle, [rng.getrandbits(4 * rho.m) or 1],
                    seed=rng.getrandbits(30), budget_ms=budget,
                ).proper
                for _ in range(n_probes)
            )
            probes = {"seeds": n_probes, "proper_found": found}
        report = {
            "rho": rho.descriptor,
            "mode": args.mode,
            "seed": args.seed,
            "samples": samples if sampled else 0,
            "lifted": {"status": lifted.status, "reason": lifted.reason},
            "closure_probes": probes,
            "runtime_ms": (time.perf_counter() - t0) * 1000,
        }
        lines = [f"lifted check at 4n={4 * rho.m}: {lifted.status} ({lifted.reason})"]
        if probes:
            lines.append(
                f"closure probes: {probes['proper_found']}/{probes['seeds']} found a proper subspace"
            )
        return report, lines

    base = primitivity_check(rho)
    affine = is_affine(rho)
    lifted = primitivity_check(ks_oracle(rho, 1))
    consistent = True
    if base.status == "primitive" and not affine:
        consistent = lifted.status == "primitive"
    report = {
        "n": n,
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
    return report, [
        f"rho: {rho.descriptor} (affine: {affine})",
        f"base group on 2^{n} points: {base.status}",
        f"lifted group on 2^{4 * n} points: {lifted.status}",
        f"reduction prediction consistent: {consistent}",
    ]


# ---------------------------------------------------------------------
# goursat


def cmd_goursat(args) -> tuple[dict, list[str]]:
    try:
        u = Subspace.from_text(_read(args.subspace))
    except ValueError as exc:
        raise InputError(f"parse error: {exc}") from None
    if u.m > MAX_AMBIENT_BITS:
        raise InputError(f"ambient dimension {u.m} exceeds {MAX_AMBIENT_BITS} bits")
    if u.m % 4:
        raise StructureError(f"ambient dimension {u.m} is not divisible by 4")
    report = tower_report(u, with_hom=args.with_hom)
    top = report["top"]
    return report, [
        f"subspace of F_2^{u.m}, dim {u.dim}",
        f"top split dims: image {top['left_image_dim']}/{top['left_kernel_dim']}"
        f" vs {top['right_image_dim']}/{top['right_kernel_dim']}",
        f"round-trip ok: {report['roundtrip_ok']}",
    ]


# ---------------------------------------------------------------------
# lp-verify


def cmd_lp_verify(args) -> tuple[dict, list[str]]:
    rep = verify_lp_subspace(samples=args.samples, seed=args.seed, run_closure=not args.no_closure)
    # the record's field names are the report's keys
    report = {"samples": args.samples, "seed": args.seed, **dataclasses.asdict(rep)}
    return report, [
        f"pattern subspace dim {rep.subspace_dim}",
        f"resolved convention: {rep.resolved_convention}",
        f"failures: {rep.failures}/{args.samples}",
        f"closure inside the subspace: dim {rep.closure_dim}, contained {rep.closure_contained}",
    ]


# ---------------------------------------------------------------------
# certificate (exposed for completeness alongside sbox-audit)


def cmd_certificate(args) -> tuple[dict, list[str]]:
    # rotating the bytes left r times sends bit i to bit i - 8r mod 32
    rows = tuple(1 << (i - 8 * args.rot_power) % 32 for i in range(32))
    cert = spn_primitivity_certificate(AES_SBOX, rows, delta=args.delta)
    report = {
        "delta": args.delta,
        "rot_power": args.rot_power,
        "passed": cert.passed,
        "clauses": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in cert.clauses
        ],
    }
    return report, [
        f"certificate (delta={args.delta}, rotation power {args.rot_power}): "
        + ("PASS" if cert.passed else f"FAIL ({', '.join(cert.failing())})")
    ] + [f"  {c.name}: {'ok' if c.passed else 'FAIL'} - {c.detail}" for c in cert.clauses]


# ---------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing keeps no state in it."""
    parser = _Parser(
        prog="ksgroup",
        description="algebraic analysis of AES-like key schedules",
    )
    parser.add_argument("--output", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sbox-audit", help="differential uniformity and anti-invariance")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("table", nargs="?", help="hex table file")
    source.add_argument("--aes", action="store_true", help="audit the builtin AES table")
    p.add_argument("--max-delta", type=_int_in(0), default=None,
                   help="highest anti-invariance order to test (default min(2, s-1))")
    p.set_defaults(func=cmd_sbox_audit)

    p = sub.add_parser("expand", help="AES-128 key expansion")
    p.add_argument("key", help="32 hex chars")
    p.add_argument("--check-model", action="store_true",
                   help="assert operator-model/FIPS agreement per round")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("search", help="Monte-Carlo invariant-subspace closure search")
    p.add_argument("--power", type=_int_in(-MAX_POWER, MAX_POWER), default=4, help="operator power to test")
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seed-in-lp", action="store_true",
                       help="draw seeds inside the known pattern subspace")
    seeds.add_argument("--seeds", type=_seeds, help="comma-separated 128-bit hex seeds")
    p.add_argument("--n-seeds", type=_int_in(1, MAX_SEEDS), default=None,
                   help="random seeds to draw, without --seeds (default 1)")
    p.add_argument("--with-constants", action="store_true",
                   help="re-enable per-round constants")
    p.add_argument("--samples", type=_int_in(0), default=256, help="samples per round")
    p.add_argument("--stable-rounds", type=_int_in(0), default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-ms", type=_budget, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("primitivity", help="exhaustive toy-scale block-system check")
    p.add_argument("--n", type=int, default=None,
                   help="word width in bits of a toy --rho (default 3)")
    p.add_argument("--rho", choices=("random", "affine", "aes"), default="random")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive",
                   help="sampled (--rho aes only) adds closure probes beyond the exhaustive budget")
    p.add_argument("--samples", type=_int_in(PROBE_SAMPLES, step=PROBE_SAMPLES), default=None,
                   help=f"sampled mode: one closure probe per {PROBE_SAMPLES} samples (default 512)")
    p.add_argument("--budget-ms", type=_budget, default=None,
                   help="sampled mode: time budget of each closure probe")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_primitivity)

    p = sub.add_parser("goursat", help="decomposition tower of a subspace file")
    p.add_argument("subspace", help="subspace text file (m=<int>, hex rows)")
    p.add_argument("--with-hom", action="store_true", help="include hom matrices")
    p.set_defaults(func=cmd_goursat)

    p = sub.add_parser("lp-verify", help="verify the four-round pattern subspace")
    p.add_argument("--samples", type=_int_in(1), default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-closure", action="store_true")
    p.set_defaults(func=cmd_lp_verify)

    p = sub.add_parser("certificate", help="S-box + linear layer primitivity certificate")
    p.add_argument("--delta", type=_int_in(2, AES_SBOX.m - 1), default=2)
    p.add_argument("--rot-power", type=int, default=1,
                   help="power of the byte rotation used as the linear layer")
    p.set_defaults(func=cmd_certificate)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one subcommand, print its report and return the exit code."""
    try:
        args = build_parser().parse_args(argv)
        report, lines = args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(exc, file=sys.stderr)
        return 3
    if args.output == "json":
        report = {"schema": SCHEMA, "command": args.command, **report}
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (``| head``): send the rest of the output,
        # and the flush at exit, to devnull instead of a second traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
