"""Reference polynomial arithmetic for building inputs and checking outputs.

Deliberately independent of purebetti: a polynomial is a plain dict from
exponent tuples to nonzero Fractions, so a defect in the package under
test cannot hide itself by also corrupting the expected answers.
"""

import hashlib
import json
import random
from fractions import Fraction
from time import perf_counter


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return {exp: c for exp, c in out.items() if c}


def add(a, b, sign=1):
    out = dict(a)
    for exp, c in b.items():
        out[exp] = out.get(exp, 0) + sign * c
    return {exp: c for exp, c in out.items() if c}


def alternating_sum(components):
    total = {}
    for i, f in enumerate(components):
        total = add(total, f, 1 if i % 2 == 0 else -1)
    return total


def one_minus_t_product(n):
    """prod_k (1 - t_k) in n variables."""
    prod = {(0,) * n: Fraction(1)}
    for k in range(n):
        t_k = tuple(1 if j == k else 0 for j in range(n))
        prod = mul(prod, {(0,) * n: Fraction(1), t_k: Fraction(-1)})
    return prod


def poly_from_json(obj):
    """Dict polynomial from the package's polynomial JSON format."""
    return {tuple(t["exp"]): Fraction(str(t["coeff"])) for t in obj["terms"]}


def poly_to_json(nvars, poly):
    return {"nvars": nvars,
            "terms": [{"exp": list(exp), "coeff": str(c)}
                      for exp, c in sorted(poly.items(), reverse=True)]}


def diagram_to_json(components):
    """Diagram JSON (the format every CLI --in file uses) of a Betti tuple."""
    n = len(components) - 1
    entries = [
        {"i": i, "deg": list(exp), "mult": str(c)}
        for i, f in enumerate(components)
        for exp, c in sorted(f.items(), reverse=True)
    ]
    return {"nvars": n, "entries": entries}


def diagram_from_json(obj):
    """Betti tuple (list of dict polynomials) of a diagram JSON object."""
    components = [{} for _ in range(obj["nvars"] + 1)]
    for item in obj["entries"]:
        mult = Fraction(str(item["mult"]))
        if mult:
            components[item["i"]][tuple(item["deg"])] = mult
    return components


def digest(obj):
    """Order-independent sha256 of a diagram or polynomial JSON object."""
    if "entries" in obj:
        rows = sorted([e["i"], list(e["deg"]), str(Fraction(str(e["mult"])))]
                      for e in obj["entries"])
    else:
        rows = sorted([list(t["exp"]), str(Fraction(str(t["coeff"])))]
                      for t in obj["terms"])
    text = json.dumps([obj["nvars"], rows], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def family_digest(r, gcd_json, cofactor_jsons):
    """sha256 of a schur_gcd_family result (r, gcd, cofactors)."""
    text = json.dumps([r, digest(gcd_json), [digest(c) for c in cofactor_jsons]])
    return hashlib.sha256(text.encode()).hexdigest()


def _kernel_inputs():
    rng = random.Random(0)

    def poly():
        return {tuple(rng.randint(0, 9) for _ in range(3)):
                Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(25)}

    return poly(), poly()


_KERNEL = _kernel_inputs()


def reference_kernel_s():
    """Best of three timings of one fixed sparse Fraction product.

    The product exercises what the package spends its time on (tuple
    exponents, dict updates, rational arithmetic), so its time tracks the
    speed the machine currently gives this process.
    """
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        mul(*_KERNEL)
        best = min(best, perf_counter() - start)
    return best
