"""Regular hypergraphs: lifted spectra and their limit laws.

For a (d,k)-regular hypergraph the lift quadratic is
mu^2 - (lambda-k+2) mu + (d-1)(k-1) = 0, so bulk pairs live on the circle
of radius sqrt((d-1)(k-1)) and 2*Re(mu) recovers the normalized adjacency
value lambda - (k-2). Projections converge to the fixed-(d,k) law or, in
the d/k -> alpha regime, to its alpha-family.

Run:  python demos/hypergraph_spectra.py
"""

import numpy as np

from nbspectra import (
    HyperAlpha,
    HyperFixed,
    consistency_check_k2,
    full_lifted_spectrum,
    ks_distance,
    project_real_parts,
    sample_regular_hypergraph,
)

n, d, k = 900, 3, 3
print(f"sampling a ({d},{k})-regular hypergraph on {n} vertices...")
h = sample_regular_hypergraph(n, d, k, 11)
spec = full_lifted_spectrum(h)

q = (d - 1) * (k - 1)
print(f"Perron pair: lambda_1 = {spec.lams[0]:.6f} = d(k-1), lifts to "
      f"({spec.mus[0].real:.6f}, {spec.mus_prime[0].real:.6f}) = ((d-1)(k-1), 1)")

m = project_real_parts(spec, rescale="hypergraph", exclude_trivial=True)
print(f"KS to the fixed-(d,k) law: {ks_distance(m, HyperFixed(d, k)):.4f}")

# d/k -> alpha = 1 regime
n2, d2, k2 = 1024, 8, 8
h2 = sample_regular_hypergraph(n2, d2, k2, 11)
m2 = project_real_parts(full_lifted_spectrum(h2), rescale="hypergraph", exclude_trivial=True)
print(f"({d2},{k2}) sample vs the alpha = {d2 / k2:.0f} law: "
      f"KS = {ks_distance(m2, HyperAlpha(d2 / k2)):.4f}")

# closed-form cross-checks: k=2 reduces to the graph law; alpha -> infinity
# approaches the semicircle at rate 1/(sqrt(alpha) pi)
rep = consistency_check_k2(d_values=(3, 5), alpha=1e6)
print("k=2 reduction max deviations:", {d_: f"{v:.2e}" for d_, v in rep["k2_max_deviation"].items()})
print(f"alpha = 1e6 vs semicircle: max deviation {rep['alpha_semicircle_deviation']:.2e}")
