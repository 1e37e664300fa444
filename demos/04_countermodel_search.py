"""
Bounded countermodel search with replayable certificates
========================================================

"""

# A SearchSpec names a conclusion to refute, optional premises that must
# hold, and frame constraints.  The search scans world counts, frame
# bitmasks and valuations in a fixed order, so the first hit is the least
# countermodel and repeated runs agree bit for bit.
import json

from modalkit import SearchSpec, find_countermodel, parse

# A tempting but wrong contraposition rule, read as an object-level
# scheme: the search refutes it with two worlds.
wrong = parse("(P => Q) => ([]~Q => []~P)")
result = find_countermodel(SearchSpec(wrong))
print(json.dumps(result.certificate, indent=2))

# The same text read as a rule (valid antecedent forces valid consequent)
# is a theorem: no countermodel exists in bounds.
print(find_countermodel(SearchSpec(wrong, reading="meta")))      # None

# Premises make the search an argument checker.  "Possibly g" plus the
# scheme "P => []P" on a symmetric frame forces g - no countermodel - but
# dropping the possibility premise lets a one-world refutation through.
argument = SearchSpec(parse("g"),
                      premise_formulas=(parse("<>g"),),
                      premise_schemes=(parse("P => []P"),),
                      frame_constraints={"symmetric"})
print(find_countermodel(argument))                               # None

weakened = SearchSpec(parse("g"),
                      premise_schemes=(parse("P => []P"),),
                      frame_constraints={"symmetric"})
print(find_countermodel(weakened).certificate["worlds"])         # 1

# Validity transfer is weaker than a valid implication: find_deduction_gap
# exhibits a model and instantiation where "valid(P) implies valid(Q)"
# holds vacuously while "P => Q" fails at a world.
from modalkit import find_deduction_gap

gap = find_deduction_gap()
c = gap.certificate
print(c["worlds"], c["assignment"], c["lhs_valid"], c["rhs_valid"])

# Quantified search also enumerates domains, existence maps and predicate
# interpretations.  The Converse Barcan Formula falls to a one-element
# shrinking domain.
from modalkit import CBF_SCHEME, find_fo_countermodel

cbf = find_fo_countermodel(SearchSpec(CBF_SCHEME, max_worlds=2,
                                      max_domain=1, mode="varying"))
print(cbf.certificate["exists_mask"],
      cbf.model.dframe.exists_in)

# Exhaustive sweeps confirm the domain-monotonicity pairing on every frame
# and existence map in bounds.  jobs=N must be at least 1 and no longer
# changes how the scan runs: every stage is scanned in this process, so the
# answer is the same byte for byte.
from modalkit import barcan_sweep

summary = barcan_sweep(max_worlds=2, domain_size=2, jobs=2)
print(summary["checked"], summary["all_consistent"])             # 264 True
assert barcan_sweep(2, 2, jobs=1) == summary
print("jobs count verified not to affect the sweep")
