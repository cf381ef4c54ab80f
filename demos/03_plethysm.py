"""Plethysm of Schur functions, two independent ways.

The production route expands through the power-sum basis in exact integer
arithmetic, over a known factorial scale, and converts back by adding border
strips (the Murnaghan-Nakayama rule, the same one that gives symmetric group
characters). The witness route substitutes monomials into monomials and
peels Schur polynomials off the result. They share no code and must agree.
"""

from plethlab import (
    Partition,
    SkewShape,
    character_value,
    format_partition,
    involution_map,
    partitions_of,
    plethysm_coefficient,
    plethysm_oracle,
    plethysm_schur,
    schur_to_powersum,
    skew_plethysm_coefficient,
)

P = Partition


def show_expansion(label, expansion):
    terms = "  +  ".join(
        f"{v} * s[{format_partition(k)}]" for k, v in sorted(expansion.items())
    )
    print(f"  {label} = {terms}")


print("Classical small plethysms, from the power-sum route:")
show_expansion("s[2] o s[2]  ", plethysm_schur(P((2,)), P((2,))))
show_expansion("s[1,1] o s[2]", plethysm_schur(P((1, 1)), P((2,))))
show_expansion("s[2] o s[1,1]", plethysm_schur(P((2,)), P((1, 1))))
show_expansion("s[1,1] o s[1,1]", plethysm_schur(P((1, 1)), P((1, 1))))

print("\nThe brute-force oracle agrees (monomial substitution, no shared code):")
for lam, mu in [((2,), (2,)), ((2, 1), (2,)), ((3,), (1, 1))]:
    engine = plethysm_schur(P(lam), P(mu))
    oracle = plethysm_oracle(P(lam), P(mu))
    print(f"  s[{format_partition(P(lam))}] o s[{format_partition(P(mu))}]: "
          f"{'identical' if engine == oracle else 'MISMATCH'} "
          f"({len(engine)} Schur terms)")

print("\nUnder the hood: characters and the power-sum expansion of s[2,1]:")
print("  character table column at cycle type (1,1,1):",
      [character_value(lam, P((1, 1, 1))) for lam in partitions_of(3)])
for mu, c in sorted(schur_to_powersum(P((2, 1))).items()):
    print(f"  coefficient of p[{format_partition(mu)}] = {c}")

print("\nConventions at the empty shape:")
print("  one-row outer against empty inner:",
      [plethysm_coefficient(P(()), P((k,)), P(())) for k in range(1, 5)])
print("  empty outer, empty inner:", plethysm_coefficient(P(()), P(()), P(())))
print("  empty outer, nonempty inner (ring unit):",
      plethysm_coefficient(P(()), P(()), P((3,))))

print("\nThe conjugation map leaves every coefficient unchanged:")
triple = (P((3, 1)), P((1, 1)), P((2,)))
mapped = involution_map(*triple)
print(f"  {tuple(map(tuple, triple))} -> {tuple(map(tuple, mapped))}")
print(f"  values: {plethysm_coefficient(*triple)} and {plethysm_coefficient(*mapped)}")

print("\nSkew indices reduce bilinearly to straight ones:")
value = skew_plethysm_coefficient(
    SkewShape(P((2, 1)), P((1,))), SkewShape.straight((1,)), P((2,))
)
print("  coefficient of (2,1)/(1) in s[1] o s[2]:", value)

print("\nLarge single coefficients stay cheap (Jacobi-Trudi route):")
nu = P((9,) + (3,) * 12)          # (9, 3, 3, ..., 3) of size 45
lam = P((3,) + (1,) * 12)         # a hook of size 15
print(f"  target of size {nu.size}, source of size {lam.size}, row size 3:",
      plethysm_coefficient(nu, lam, P((3,))))
