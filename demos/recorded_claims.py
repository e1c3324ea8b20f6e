"""Recompute every recorded reference value and show the score.

The registry pins each headline number with its source tag, expected
value, and tolerance.  Each call recomputes every row; a quantity that
several rows share (a theta scan, an enumeration, a membership answer)
is computed once per call.
The command line exposes the same table as `bellbound reproduce-paper`.
"""

from collections import Counter

from bellbound import claim_ids, run_claims

rows = run_claims()
by_source = Counter(row.source for row in rows)
print(f"{len(rows)} recorded claims: " +
      ", ".join(f"{count} {source}" for source, count in sorted(by_source.items())))

failed = [row for row in rows if not row.passed]
print(f"passing: {len(rows) - len(failed)}/{len(rows)}\n")

# a few highlights, recomputed just now
show = [
    "chsh-sqrt2",
    "triangle-3-2",
    "cliqueweb-12-3-4-bound",
    "v12-peak",
    "werner-0.8",
    "planar-bipartite-kg2",
]
width = max(len(claim_id) for claim_id in show)
for row in rows:
    if row.claim_id in show:
        print(f"{row.claim_id:<{width}}  expected {row.expected:<14.10g} "
              f"computed {row.computed:<14.10g} tol {row.tolerance:g}")

# the full list of ids is addressable one by one
print(f"\nfirst claims: {', '.join(claim_ids()[:4])}, ...")
for row in failed:
    print(f"FAILED {row.claim_id}: expected {row.expected}, got {row.computed}")
