"""Why an operation failed. Only the standard library may be imported here:
worker.py imports this module before set-up is timed."""

EXCEPTION = "exception"  # the program raised
MISMATCH = "output_mismatch"  # an output differs from its reference
VS_TRUTH = "verdict_vs_truth"  # a verdict disagrees with the closed-form truth
# The same, on one of the two certificates the grid verifier is known to
# pass wrongly (see workloads.KNOWN_FALSE_PASSES). Counted as failed, but it does
# not make a run incorrect: it is the defect the certify workload measures.
VS_TRUTH_KNOWN = "verdict_vs_truth_known"

# Reasons that make a run's result incorrect.
NOT_CORRECT = (EXCEPTION, MISMATCH, VS_TRUTH)
