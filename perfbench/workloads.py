"""The benchmark's workloads: fixed a2twist command lines, at the CLI
defaults and --parallelism 1.  The verifier takes no random inputs, so
every seed gives the same calls.  README.md says why each was chosen."""

WORKLOADS = {
    # graded table: every image fresh through apply_batch, then echelon
    # rank growth; never enters the envelope layer
    "dims": [
        ["dims", "--cutoff", "32", "--format", "json"],
    ],
    # operator images to intermediate weight 26 through the global
    # per-monomial cache (quadratic) and per-sweep tables (brackets); no
    # echelon work
    "operators": [
        ["verify", "--suites", "relations,brackets,exchange", "--cutoff", "16", "--format", "json"],
        ["verify", "--suites", "quadratic", "--cutoff", "2", "--format", "json"],
    ],
    # the envelope path: PBW normal ordering, ideal spans, evaluation through
    # cached images, mostly dependent echelon inserts
    "presentation": [
        [
            "verify", "--suites", "presentation,morphisms,stability",
            "--cutoff", "22", "--presentation-cutoff", "22", "--format", "json",
        ],
    ],
}
