"""Verdict streams generated from a workload seed, and the gate that checks them.

A workload is a fixed-length list of CLI verdicts, replayed in order (and
from the start again if a run outlasts it).  Everything random is drawn
from ``Random(f"<workload>:<seed>")``; the program only sees the argv and
the input files written here.

Inputs that are not fixed by the workload seed alone come from small pools
(S-box tables, subspaces, keys, map and lp-verify seeds), each item derived
from its pool index.  The seed picks pool items and their order.  Pools
keep every verdict whose answer the paper does not fix inside the golden
file recorded by ``record_golden.py``, so each one can be compared exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random

WORKLOADS = ("toy-lift", "aes-escape", "lp-invariant", "exact-audit")

# Pool sizes.  Changing one changes the inputs, so golden.json must be
# recorded again.
TOY_MAP_SEEDS = 1024
LP_SEEDS = 64
SBOX4_POOL = 32
SBOX8_POOL = 16
KEY_POOL = 32
G128_POOL = 16
G12_POOL = 32

# Verdicts generated per workload; a run replays the list if it gets through it.
STREAM_LENGTH = {"toy-lift": 64, "aes-escape": 4096, "lp-invariant": 256, "exact-audit": 640}

# Answers the paper fixes.  The self-tests flip one to show the gate can fail.
EXPECT = {
    "aes_delta": 4,
    "aes_min_anti_order": 1,
    "cert_passes": {1: True, 2: False, 3: True},
    "cert_rot2_witness": "first (0, 2)",
    "lp_convention": "word-major",
    "lp_max_closure_dim": 32,
    "search_status": "full-space",
    "search_dim": 128,
    "fips_key": "2b7e151628aed2a6abf7158809cf4f3c",
    # FIPS-197 appendix A.1: w[4..7] and w[40..43]
    "fips_round1": ["a0fafe17", "88542cb1", "23a33939", "2a6c7605"],
    "fips_round10": ["d014f9a8", "c9ee2589", "e13f0cc8", "b6630ca6"],
}

# JSON fields left out of the golden comparison: timings, work counts that
# a faster algorithm changes legitimately, the schema number, the input
# path echoed as ``source``, and ``roundtrip_ok``, which compares a
# subspace with itself.
UNCOMPARED = frozenset({"runtime_ms", "pairs_checked", "rounds", "schema", "source", "roundtrip_ok"})

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Verdict:
    argv: tuple[str, ...]  # CLI arguments after "--output json"
    key: str  # golden key: the argv with file paths replaced by pool names
    kind: str


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    verdicts: tuple[Verdict, ...]
    cycle: int  # a timed batch ends only at a multiple of this many verdicts
    # exact-audit mixes kinds 300x apart in cost, so a median verdict time
    # would land on a boundary between kinds; it reports throughput only
    percentiles: bool = True


# ---------------------------------------------------------------------
# GF(2) helpers, written here so the gate does not trust the code it checks


def rank(vectors) -> int:
    rows: dict[int, int] = {}
    for v in vectors:
        for p, row in rows.items():
            if (v >> p) & 1:
                v ^= row
        if v:
            p = (v & -v).bit_length() - 1
            for q in list(rows):
                if (rows[q] >> p) & 1:
                    rows[q] ^= v
            rows[p] = v
    return len(rows)


def base_imprimitive(table) -> bool:
    """Does <rho, translations> on F_2^3 have a block through 0 besides {0}
    and the whole space?  Such a block is a subspace W with
    rho(x+w)+rho(x) in W for all x and w in W; all 14 are tried."""
    spans = {frozenset({0, a, b, a ^ b}) for a in range(1, 8) for b in range(8)}
    return any(
        all(table[x ^ d] ^ table[x] in w for x in range(8) for d in w)
        for w in spans
    )


def subspace_text(m: int, vectors) -> str:
    nbytes = (m + 7) // 8
    return f"m={m}\n" + "".join(v.to_bytes(nbytes, "little").hex() + "\n" for v in vectors)


# ---------------------------------------------------------------------
# Pools


def sbox_pool_table(s: int, i: int) -> list[int]:
    table = list(range(1 << s))
    Random(f"sbox{s}:{i}").shuffle(table)
    return table


def subspace_pool_vectors(m: int, i: int) -> list[int]:
    rng = Random(f"g{m}:{i}")
    return [rng.getrandbits(m) for _ in range(rng.randint(1, m - 1))]


def key_pool(i: int) -> str:
    return f"{Random(f'key:{i}').getrandbits(128):032x}"


def toy_map_table(k: int) -> tuple[int, ...]:
    """The 3-bit word permutation ``primitivity --seed k`` lifts: shuffled
    tables drawn from ``Random(k)`` until one is not affine."""
    rng = Random(k)
    while True:
        t = list(range(8))
        rng.shuffle(t)
        if any(t[x ^ y] ^ t[x] ^ t[y] ^ t[0] for x in range(8) for y in range(8)):
            return tuple(t)


def write_pool_files(inputs: Path) -> dict[str, Path]:
    """Write every pool file under ``inputs``; returns pool name -> path."""
    inputs.mkdir(parents=True, exist_ok=True)
    files = {}
    for s, size in ((4, SBOX4_POOL), (8, SBOX8_POOL)):
        for i in range(size):
            files[f"sbox{s}/{i}"] = " ".join(f"{v:02x}" for v in sbox_pool_table(s, i))
    for m, size in ((128, G128_POOL), (12, G12_POOL)):
        for i in range(size):
            files[f"g{m}/{i}"] = subspace_text(m, subspace_pool_vectors(m, i))
    paths = {}
    for name, text in files.items():
        path = inputs / (name.replace("/", "-") + ".txt")
        path.write_text(text)
        paths[name] = path
    return paths


# ---------------------------------------------------------------------
# Streams


def _toy_lift(rng: Random) -> tuple[list[Verdict], int]:
    """Cycles of eight maps: one base-imprimitive map first, then seven
    base-primitive ones, so every run holds the same mix."""
    imp, prim = [], []
    n = STREAM_LENGTH["toy-lift"]
    for k in rng.sample(range(TOY_MAP_SEEDS), TOY_MAP_SEEDS):
        (imp if base_imprimitive(toy_map_table(k)) else prim).append(k)
        if len(imp) >= n // 8 and len(prim) >= n - n // 8:
            break
    out = []
    for c in range(n // 8):
        for k in [imp[c]] + prim[7 * c : 7 * c + 7]:
            argv = ("primitivity", "--n", "3", "--rho", "random", "--seed", str(k))
            out.append(Verdict(argv, " ".join(argv), "primitivity"))
    return out, 1


def _aes_escape(rng: Random) -> tuple[list[Verdict], int]:
    out = []
    for _ in range(STREAM_LENGTH["aes-escape"]):
        argv = ["search", "--power", str(rng.randint(1, 4)),
                "--seeds", f"{rng.getrandbits(128) or 1:x}", "--seed", str(rng.getrandbits(31))]
        if rng.random() < 0.25:
            argv.append("--with-constants")
        out.append(Verdict(tuple(argv), " ".join(argv), "search"))
    return out, 1


def _lp_invariant(rng: Random) -> tuple[list[Verdict], int]:
    out = []
    for _ in range(STREAM_LENGTH["lp-invariant"]):
        argv = ("lp-verify", "--seed", str(rng.randrange(LP_SEEDS)))
        out.append(Verdict(argv, " ".join(argv), "lp-verify"))
    return out, 1


def exact_audit_cycle(rng: Random) -> list[tuple[tuple[str, ...], str]]:
    """One cycle of the fixed mix as (argv with pool names, kind)."""
    return [
        (("sbox-audit", "--aes"), "sbox-audit"),
        (("sbox-audit", f"@sbox8/{rng.randrange(SBOX8_POOL)}"), "sbox-audit"),
        (("sbox-audit", f"@sbox4/{rng.randrange(SBOX4_POOL)}"), "sbox-audit"),
        (("certificate", "--rot-power", "1"), "certificate"),
        (("certificate", "--rot-power", "2"), "certificate"),
        (("certificate", "--rot-power", "3"), "certificate"),
        (("expand", EXPECT["fips_key"], "--check-model"), "expand"),
        (("expand", key_pool(rng.randrange(KEY_POOL)), "--check-model"), "expand"),
        (("goursat", f"@g128/{rng.randrange(G128_POOL)}", "--with-hom"), "goursat"),
        (("goursat", f"@g12/{rng.randrange(G12_POOL)}", "--with-hom"), "goursat"),
    ]


def _exact_audit(rng: Random, paths: dict[str, Path]) -> tuple[list[Verdict], int]:
    out = []
    while len(out) < STREAM_LENGTH["exact-audit"]:
        cycle = exact_audit_cycle(rng)
        for argv, kind in cycle:
            real = tuple(str(paths[a[1:]]) if a.startswith("@") else a for a in argv)
            out.append(Verdict(real, " ".join(argv), kind))
    return out, len(cycle)


def build(name: str, seed: int, inputs: Path) -> Workload:
    """Generate the verdict stream of ``name`` for ``seed``, writing input
    files under ``inputs``."""
    rng = Random(f"{name}:{seed}")
    if name == "toy-lift":
        verdicts, cycle = _toy_lift(rng)
    elif name == "aes-escape":
        verdicts, cycle = _aes_escape(rng)
    elif name == "lp-invariant":
        verdicts, cycle = _lp_invariant(rng)
    elif name == "exact-audit":
        verdicts, cycle = _exact_audit(rng, write_pool_files(inputs))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, seed, tuple(verdicts), cycle, percentiles=name != "exact-audit")


def golden_keys() -> list[str]:
    """Every verdict key whose answer the golden file must hold."""
    keys = [f"lp-verify --seed {k}" for k in range(LP_SEEDS)]
    keys += [f"primitivity --n 3 --rho random --seed {k}"
             for k in range(TOY_MAP_SEEDS) if base_imprimitive(toy_map_table(k))]
    keys += ["sbox-audit --aes"] + [f"certificate --rot-power {r}" for r in (1, 2, 3)]
    keys += [f"sbox-audit @sbox4/{i}" for i in range(SBOX4_POOL)]
    keys += [f"sbox-audit @sbox8/{i}" for i in range(SBOX8_POOL)]
    keys += [f"expand {k} --check-model" for k in [EXPECT["fips_key"]] + [key_pool(i) for i in range(KEY_POOL)]]
    keys += [f"goursat @g128/{i} --with-hom" for i in range(G128_POOL)]
    keys += [f"goursat @g12/{i} --with-hom" for i in range(G12_POOL)]
    return keys


# ---------------------------------------------------------------------
# The gate


def comparable(report):
    if isinstance(report, dict):
        return {k: comparable(v) for k, v in report.items() if k not in UNCOMPARED}
    if isinstance(report, list):
        return [comparable(v) for v in report]
    return report


def _mismatch(expected, actual, where: str = "") -> str | None:
    """First place where ``actual`` differs from ``expected``.  Keys that
    ``actual`` adds are allowed, so additive report fields pass."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{where or '/'}: expected an object"
        for k, v in expected.items():
            if k not in actual:
                return f"{where}/{k}: missing"
            found = _mismatch(v, actual[k], f"{where}/{k}")
            if found:
                return found
        return None
    if expected != actual:
        return f"{where or '/'}: expected {expected!r}, got {actual!r}"
    return None


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check(v: Verdict, rc, report, golden: dict) -> list[str]:
    """Problems with one verdict; an empty list means it passed."""
    if rc != 0 or not isinstance(report, dict):
        return [f"exit code {rc}" if rc is not None else "no report"]
    try:
        problems = _EXPECTATIONS[v.kind](v, report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    if v.key in golden:
        found = _mismatch(golden[v.key], comparable(report))
        if found:
            problems.append(f"differs from golden at {found}")
    elif v.kind not in ("search", "primitivity"):
        problems.append("no golden answer recorded")
    return problems


def _expect_primitivity(v: Verdict, r: dict) -> list[str]:
    from ksgroup.gf2 import Subspace
    from ksgroup.invariants import is_linear_block, ks_oracle, random_nonaffine_word_permutation

    problems = []
    k = int(v.argv[v.argv.index("--seed") + 1])
    imprimitive = base_imprimitive(toy_map_table(k))
    if r["rho_affine"]:
        problems.append("random map reported affine")
    if r["base"]["status"] != ("imprimitive" if imprimitive else "primitive"):
        problems.append(f"base status {r['base']['status']} disagrees with brute force")
    lifted = r["lifted"]
    if not imprimitive:
        if lifted["status"] != "primitive" or r["reduction_consistent"] is not True:
            problems.append("base-primitive non-affine map did not lift primitive")
        return problems
    # a base block W lifts to the block W^4, so the lift is imprimitive too;
    # the witness is re-certified here by an exhaustive scan
    if lifted["status"] != "imprimitive" or not lifted["witness_basis"]:
        return problems + [f"base-imprimitive map lifted {lifted['status']}"]
    w = Subspace(12, [int.from_bytes(bytes.fromhex(h), "little") for h in lifted["witness_basis"]])
    rho = random_nonaffine_word_permutation(3, Random(k))
    if w.is_trivial or not is_linear_block(ks_oracle(rho, 1), w, mode="exhaustive").ok:
        problems.append("imprimitivity witness is not a block")
    return problems


def _expect_search(v: Verdict, r: dict) -> list[str]:
    if r["status"] != EXPECT["search_status"] or r["dim"] != EXPECT["search_dim"]:
        return [f"search ended {r['status']} at dim {r['dim']}"]
    return []


def _expect_lp(v: Verdict, r: dict) -> list[str]:
    ok = (r["resolved_convention"] == EXPECT["lp_convention"] and r["failures"] == 0
          and r["closure_contained"] is True and r["closure_dim"] <= EXPECT["lp_max_closure_dim"])
    return [] if ok else [f"lp-verify: {r['resolved_convention']}, failures {r['failures']}, "
                          f"closure dim {r['closure_dim']} contained {r['closure_contained']}"]


def _expect_sbox(v: Verdict, r: dict) -> list[str]:
    if "--aes" not in v.argv:
        return []
    if r["delta"] != EXPECT["aes_delta"] or r["anti_invariance_order"] < EXPECT["aes_min_anti_order"]:
        return [f"AES S-box delta {r['delta']}, anti-invariance order {r['anti_invariance_order']}"]
    return []


def _expect_certificate(v: Verdict, r: dict) -> list[str]:
    rot = int(v.argv[-1])
    if r["passed"] != EXPECT["cert_passes"][rot]:
        return [f"certificate at rot-power {rot} passed={r['passed']}"]
    if not r["passed"]:
        failing = [c for c in r["clauses"] if not c["passed"]]
        if [c["name"] for c in failing] != ["brick-sums"] or EXPECT["cert_rot2_witness"] not in failing[0]["detail"]:
            return [f"certificate failed the wrong clauses: {failing}"]
    return []


def _expect_expand(v: Verdict, r: dict) -> list[str]:
    problems = [] if r["model_checked"] is True else ["operator model not checked"]
    if v.argv[1] == EXPECT["fips_key"]:
        if r["round_keys"][1] != EXPECT["fips_round1"] or r["round_keys"][10] != EXPECT["fips_round10"]:
            problems.append("expansion differs from the FIPS-197 appendix vector")
    return problems


def _expect_goursat(v: Verdict, r: dict) -> list[str]:
    text = Path(v.argv[1]).read_text().split()
    m = int(text[0][2:])
    problems = []
    if r["dim"] != rank(int.from_bytes(bytes.fromhex(h), "little") for h in text[1:]):
        problems.append(f"dim {r['dim']} is not the rank of the input")
    for level in ("top", "left_image_split", "right_kernel_split"):
        g = r[level]
        if g["left_image_dim"] - g["left_kernel_dim"] != g["right_image_dim"] - g["right_kernel_dim"]:
            problems.append(f"{level}: quotient dimensions differ")
    if r["dim"] != r["top"]["left_image_dim"] + r["top"]["right_kernel_dim"] or r["ambient"] != m:
        problems.append("dim != left_image_dim + right_kernel_dim")
    return problems


_EXPECTATIONS = {
    "primitivity": _expect_primitivity,
    "search": _expect_search,
    "lp-verify": _expect_lp,
    "sbox-audit": _expect_sbox,
    "certificate": _expect_certificate,
    "expand": _expect_expand,
    "goursat": _expect_goursat,
}

