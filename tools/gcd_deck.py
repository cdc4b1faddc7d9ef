"""Compare poly_gcd of two or more checkouts on one seeded deck of pairs.

    python3 tools/gcd_deck.py [--pairs 3000] [--seed 18] [--rounds 5] CHECKOUT [CHECKOUT ...]

A CHECKOUT is a directory holding the repository's src/.  The checkouts are
loaded side by side in this process as packages of their own.  The deck
holds pairs a = c x, b = c y in Z[k, kp] with a planted common factor c and
c, x, y of degree at most 2 in each variable, so a and b reach degree 4; 30 %
of the pairs are in kp alone, and about half carry an integer content above
1.  Every checkout's gcd must have the first checkout's terms on every pair
(exit status 1 otherwise).  The time of the whole deck is taken per checkout
in each round, the checkouts alternating, and the min over the rounds is
printed as microseconds per call.
"""
from __future__ import annotations

import argparse
import importlib.util
import random
import sys
import time


def load(index, checkout):
    """The coeff module of a checkout, loaded as the package trigdunkl_<index>."""
    name, path = f"trigdunkl_{index}", f"{checkout}/src/trigdunkl"
    spec = importlib.util.spec_from_file_location(
        name, f"{path}/__init__.py", submodule_search_locations=[path])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.coeff


def _factor(rng, kp_only):
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 4)):
            m = (0 if kp_only else rng.randint(0, 2), rng.randint(0, 2))
            terms[m] = terms.get(m, 0) + rng.randint(-5, 5)
        terms = {m: c for m, c in terms.items() if c}
    content = rng.choice((1, 1, 1, 2, 3, -6))
    return {m: c * content for m, c in terms.items()}


def deck(coeff, n, seed):
    """n pairs (a, b) of the checkout's Polys, the same for every checkout."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        kp_only = rng.random() < 0.3
        c, x, y = (coeff.Poly(_factor(rng, kp_only)) for _ in range(3))
        out.append((c * x, c * y))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pairs", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=18)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("checkouts", nargs="+")
    args = ap.parse_args(argv)
    mods = [load(i, c) for i, c in enumerate(args.checkouts)]
    decks = [deck(m, args.pairs, args.seed) for m in mods]
    results = [[m.poly_gcd(a, b).terms for a, b in d]
               for m, d in zip(mods, decks)]
    mismatches = [sum(r != s for r, s in zip(results[0], other))
                  for other in results]
    best = [float("inf")] * len(mods)
    for r in range(args.rounds):
        for i in range(len(mods)) if r % 2 == 0 else range(len(mods))[::-1]:
            gcd_fn, d = mods[i].poly_gcd, decks[i]
            t0 = time.perf_counter()
            for a, b in d:
                gcd_fn(a, b)
            best[i] = min(best[i], time.perf_counter() - t0)
    for c, t, bad in zip(args.checkouts, best, mismatches):
        print(f"{c}: {1e6 * t / args.pairs:.1f} us per call, "
              f"{bad} of {args.pairs} pairs differ from the first checkout")
    return 1 if any(mismatches) else 0


if __name__ == "__main__":
    sys.exit(main())
