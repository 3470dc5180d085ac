"""The int rows over one least denominator agree with the Fraction
representation on matrices whose entries have distinct prime
denominators, n = 24, 32 and 40.

    PYTHONPATH=src:tests python ci/mixed_denominators.py

One least denominator for all entries makes every stored int as large as
the lcm of all the denominators: here the product of n^2 primes above
1000.  Each case checks parse and render, mat_mul, scale,
strictly_dominated_by and equality against the tests' Fraction reference
(oracles.fraction_*), and kleene_star at n = 24, where the reference's n
products stay cheap.  Seeded; standard library only.
"""

from __future__ import annotations

import random, sys, time
from fractions import Fraction
from maxplus import DiagonalScaling, MaxPlusMatrix, kleene_star, mat_mul, parse_matrix, render_matrix, scalar_times, scale
from maxplus import MaxPlusScalar, strictly_dominated_by
from oracles import fraction_dominated, fraction_mul, fraction_parse, fraction_render, fraction_scale, fraction_star

def primes_from(k):
    while True:
        if all(k % p for p in range(2, int(k**0.5) + 1)):
            yield k
        k += 1

def text_of(rng, n, primes):
    """Matrix text whose finite entries each take the next prime as denominator, some tokens unreduced."""
    rows = []
    for _ in range(n):
        tokens = []
        for _ in range(n):
            if rng.random() < 0.2:
                tokens.append("-inf")
                continue
            q, k = next(primes), rng.choice((1, 1, 2))
            tokens.append(f"{rng.randint(-20 * q, 20 * q) * k}/{q * k}")
        rows.append(" ".join(tokens))
    return f"{n}\n" + "\n".join(rows) + "\n"

def check(what, ok):
    if not ok:
        print(f"  {what}: DISAGREES")
        sys.exit(1)

start = time.time()
for n in (24, 32, 40):
    rng, primes = random.Random(4000 + n), primes_from(1000)
    texts = [text_of(rng, n, primes) for _ in range(2)]
    t0 = time.time()
    a, b = map(parse_matrix, texts)
    ref_a, ref_b = map(fraction_parse, texts)
    check("parse", a.raw() == ref_a and b.raw() == ref_b)
    check("render", render_matrix(a) == fraction_render(ref_a) and parse_matrix(render_matrix(a)) == a)
    check("equality", (a == b) is False and a == MaxPlusMatrix(ref_a) and hash(a) == hash(MaxPlusMatrix(ref_a)))
    product, ref_product = mat_mul(a, b), fraction_mul(ref_a, ref_b)
    check("mat_mul", product.raw() == ref_product and product == MaxPlusMatrix(ref_product))
    check("mat_mul render", render_matrix(product) == fraction_render(ref_product))
    potentials = [Fraction(rng.randint(-50, 50), next(primes)) for _ in range(n)]
    scaled, ref_scaled = scale(a, DiagonalScaling(potentials)), fraction_scale(ref_a, potentials)
    check("scale", scaled.raw() == ref_scaled and scaled == MaxPlusMatrix(ref_scaled))
    nudged = [[None if x is None else x + Fraction(rng.randint(-1, 3), next(primes)) for x in row] for row in ref_a]
    above = [[None if x is None else x + 1 for x in row] for row in ref_a]
    for other, ref_other in ((b, ref_b), (MaxPlusMatrix(nudged), nudged), (scalar_times(MaxPlusScalar(1), a), above)):
        check("strictly_dominated_by", strictly_dominated_by(a, other) == fraction_dominated(ref_a, ref_other))
    if n == 24:
        shift = -20 - Fraction(1, next(primes))  # every entry ends below 0: the star converges
        ref_star = fraction_star([[None if x is None else x + shift for x in row] for row in ref_a])
        star = kleene_star(scalar_times(MaxPlusScalar(shift), a))
        check("kleene_star", ref_star is not None and star.raw() == ref_star and star == MaxPlusMatrix(ref_star))
    print(f"n={n}: {2 * n * n} entries, scale of {a._d.bit_length()} bits, product scale of {product._d.bit_length()} bits: "
          f"agrees ({time.time() - t0:.1f} s)")
print(f"all agree ({time.time() - start:.1f} s)")
