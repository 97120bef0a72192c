"""Spans and counters installed from outside the program.

``Tracer.install`` replaces the module attributes through which one layer
of ``ksgroup`` calls another with timing wrappers, and ``uninstall`` puts
the originals back.  Every wrapped call is a span charged to the module
that defines the callee; a module's self time is its span time minus the
time of the spans it caused.  The whole verdict is a root span charged to
``cli``, so the self times of all modules add up to the verdict time.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

from workloads import rank

MODULES = ("cli", "invariants", "gf2", "keyschedule", "sbox", "goursat", "fips197")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # per open span: child time
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.total_s: dict[str, float] = defaultdict(float)
        self.closure_depth = 0
        self.fresh_s = 0.0  # Subspace.contains time inside closure_search
        self.closure = Counter()  # evals, rounds, dims gained
        self.missing: list[str] = []  # boundaries the program no longer has
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, module: str, fn, *args, **kwargs):
        frame = [0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.stack.pop()
            self.self_s[module] += dt - frame[0]
            if self.stack:
                self.stack[-1][0] += dt
            self.calls[name] += 1
            self.total_s[name] += dt
            if name == "gf2.contains" and self.closure_depth:
                self.fresh_s += dt

    def _wrap(self, owner, attr: str, name: str, module: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer.span(name, module, next, it)
                    except StopIteration:
                        return
                    yield item
        elif name == "invariants.closure_search":
            def wrapper(oracle, seeds, *args, **kwargs):
                seeds = list(seeds)
                tracer.closure_depth += 1
                try:
                    res = tracer.span(name, module, fn, oracle, seeds, *args, **kwargs)
                finally:
                    tracer.closure_depth -= 1
                tracer.closure["evals"] += res.evaluations
                tracer.closure["rounds"] += res.rounds
                tracer.closure["gained"] += res.subspace.dim - rank(seeds)
                return res
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, module, fn, *args, **kwargs)

        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._restore.append((owner, attr, raw))

    def install(self) -> None:
        from ksgroup import cli, fips197, gf2, invariants, keyschedule, sbox

        targets = [
            # cli -> the layers below it
            (cli, "primitivity_check", "invariants"),
            (cli, "is_affine", "invariants"),
            (cli, "random_nonaffine_word_permutation", "invariants"),
            (cli, "ks_oracle", "invariants"),
            (cli, "normalized_oracle", "invariants"),
            (cli, "closure_search", "invariants"),
            (cli, "verify_lp_subspace", "invariants"),
            (cli, "spn_primitivity_certificate", "invariants"),
            (cli, "audit_sbox", "sbox"),
            (cli, "parse_sbox_text", "sbox"),
            (cli, "tower_report", "goursat"),
            (cli, "aes_core", "keyschedule"),
            (cli, "aes128_expand_key", "keyschedule"),
            (fips197, "round_keys", "fips197"),
            # invariants -> itself, keyschedule and sbox
            (invariants, "min_block_subspace", "invariants"),
            (invariants, "min_block", "invariants"),
            (invariants, "is_linear_block", "invariants"),
            (invariants, "closure_search", "invariants"),
            (invariants, "ks_power", "keyschedule"),
            (invariants, "flatten_state", "keyschedule"),
            (invariants, "unflatten_state", "keyschedule"),
            (invariants, "translate", "keyschedule"),
            (keyschedule, "ks_apply", "keyschedule"),
            (keyschedule, "ks_inverse", "keyschedule"),
            (sbox, "differential_profile", "sbox"),
            (sbox, "anti_invariance_order", "sbox"),
            (sbox, "differential_uniformity", "sbox"),
            # every layer -> gf2
            (sbox, "enumerate_subspaces", "gf2"),
            (gf2.Subspace, "__init__", "gf2"),
            (gf2.Subspace, "reduce", "gf2"),
            (gf2.Subspace, "contains", "gf2"),
            (gf2.Subspace, "__contains__", "gf2"),
            (gf2.Subspace, "from_text", "gf2"),
        ]
        for owner, attr, module in targets:
            short = {"__init__": "span", "__contains__": "contains"}.get(attr, attr)
            if hasattr(owner, attr):
                self._wrap(owner, attr, f"{module}.{short}", module)
            else:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

