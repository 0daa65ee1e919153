"""Project the non-backtracking spectrum of a random 5-regular graph onto
the real line and compare it with the Kesten-McKay limit law.

Every nontrivial adjacency eigenvalue lambda with lambda^2 <= 4(d-1) lifts
to a conjugate pair on the circle of radius sqrt(d-1), so its real part
lambda/2 appears twice; the deterministic pair {d-1, 1} from the Perron
eigenvalue is excluded, as in the reference experiment.

Run:  python demos/kesten_mckay_projection.py
"""

import numpy as np

from nbspectra import (
    KestenMcKay,
    Semicircle,
    full_lifted_spectrum,
    ks_distance,
    project_real_parts,
    sample_regular_graph,
)
from nbspectra.measures import histogram

n, d, seed = 2000, 5, 7

print(f"sampling a {d}-regular graph on {n} vertices (seed {seed})...")
g = sample_regular_graph(n, d, seed)

print("computing the full lifted spectrum (2n eigenvalues of the reduced operator)...")
spec = full_lifted_spectrum(g)
on_circle = int(np.sum(np.abs(np.abs(spec.mus) - np.sqrt(d - 1)) < 1e-9))
print(f"  {on_circle} of {n} lifted pairs sit exactly on the circle of radius sqrt({d - 1})")

m = project_real_parts(spec, rescale="none", exclude_trivial=True)
print(f"projected {len(m)} real parts (trivial pair {{d-1, 1}} = {{4, 1}} removed)")

ks = ks_distance(m, KestenMcKay(d))
print(f"KS distance to the Kesten-McKay law: {ks:.4f}")

edges, counts, dens = histogram(m, bins=13)
centers = (edges[:-1] + edges[1:]) / 2
law = KestenMcKay(d).pdf(centers)
print("\n  bin center   empirical   limit law")
for c, de, la in zip(centers, dens, law):
    bar = "#" * int(60 * de)
    print(f"  {c:+9.3f}   {de:9.4f}   {la:9.4f}  {bar}")

# the same pipeline at large d approaches the semicircle after rescaling
d_big = 40
g = sample_regular_graph(n, d_big, seed)
m = project_real_parts(full_lifted_spectrum(g), rescale="graph", exclude_trivial=True)
print(f"\nd = {d_big}, rescaled by 2/sqrt(d-1): KS to the semicircle = "
      f"{ks_distance(m, Semicircle()):.4f}")
