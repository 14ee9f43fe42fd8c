"""Exercise the orbit machinery used for the structural results on
squares of groups: decompose the automorphism action hiding in a pair,
and check the rank bound that controls how large the acting elementary
abelian quotient can be.
"""

from hopfgalois.groups import load_group
from hopfgalois.powerlemmas import (
    PowerContext,
    check_rank_bounds,
    lambda_pair,
    orbit_decompose,
    orbit_decompose_from_thetas,
    rho_pair,
)


def describe(tag, dec):
    print(f"{tag}: m = {dec.m}, fixed = {sorted(dec.fixed)}, "
          f"orbits = {dec.orbits}, ranks = {dec.orbit_ranks}")


def main():
    s3 = load_group("s3")
    ctx = PowerContext(s3, 2)
    print(f"|Aut0(s3^2)| = {len(ctx.aut0)}")

    lam = lambda_pair(ctx)
    rho = rho_pair(ctx)

    # The canonical pairs act trivially at p = 2: everything is fixed.
    describe("lambda pair, p=2", orbit_decompose(lam, 2))
    describe("rho pair,    p=2", orbit_decompose(rho, 2))

    print()
    for pair, tag in ((lam, "lambda"), (rho, "rho")):
        for p in (2, 3):
            dec = orbit_decompose(pair, p)
            report = check_rank_bounds(dec)
            print(f"{tag} p={p}: partition_ok={report.partition_ok} "
                  f"rank_ok={report.rank_ok} (m={dec.m} vs ranks={dec.orbit_ranks})")

    # A handmade action with an actual orbit: a 3-cycle on the coordinates
    # and its powers, acting at p = 3.
    print()
    cycle = orbit_decompose_from_thetas(
        [("e", (1, 2, 3)), ("t", (2, 3, 1)), ("t2", (3, 1, 2))], 3, 3
    )
    describe("coordinate 3-cycle, p=3", cycle)
    report = check_rank_bounds(cycle)
    print(f"rank bound: m = {cycle.m} <= sum of orbit ranks = "
          f"{sum(cycle.orbit_ranks)}  ({report.rank_ok})")


if __name__ == "__main__":
    main()
