"""The benchmark's workloads: fixed batches of finpolylog CLI calls.

Each call is the argv of one CLI invocation.  The harness appends
``--seed``, ``--budget`` and ``--output`` to every call.  Each workload
stresses a different layer; see README.md for why each was chosen.
"""

# Larger than every grid below, so every weak check is exhaustive.
BUDGET = 1_000_000

WORKLOADS = {
    # Symbolic strong checks.  five_term_v1 at p=11 multiplies ~10^5-term
    # operands in poly._mul_prime_fast; lhat_eval is never called.
    "strong": [
        ["verify", "--eq", "all-finite", "--p", "5", "--mode", "strong"],
        ["verify", "--eq", "five_term_v1", "--p", "11", "--mode", "strong"],
    ],
    # Exhaustive pointwise checks through lhat_eval and RatFunc.evaluate;
    # about half the points are inadmissible.  Big products never happen.
    "weak": [
        ["verify", "--eq", "all-finite", "--p", "5", "--mode", "weak"],
        [
            "verify",
            "--eq",
            "cathelineau_J,derived_goncharov,five_term_family",
            "--p",
            "11,13",
            "--mode",
            "weak",
        ],
        ["derive", "--eq", "five_term_classical", "--verify", "31"],
    ],
    # GF(p) row reduction of tall matrices, many small schoolbook
    # multiplies, the cocycle tables and the p-adic symbolic checks.
    "linalg": [
        [
            "solve",
            "--preset",
            "FEIT,L1_TRIPLE,THREE_TERM,L2_PAIR,THM423",
            "--p",
            "5..31,97",
        ],
        ["solve", "--preset", "KS,J", "--p", "7,11"],
        ["cocycle", "--check", "all", "--p", "5..19"],
        ["padic", "--clean", "2..12", "--recursion", "3..10"],
    ],
}

# Seconds-sized versions of the same workloads for the benchmark's tests.
SMOKE = {
    "strong": [["verify", "--eq", "all-finite", "--p", "5", "--mode", "strong"]],
    "weak": [
        ["verify", "--eq", "all-finite", "--p", "5", "--mode", "weak"],
        ["derive", "--eq", "five_term_classical", "--verify", "31"],
    ],
    "linalg": [
        ["solve", "--preset", "FEIT,L2_PAIR", "--p", "5..13"],
        ["cocycle", "--check", "all", "--p", "5,7"],
        ["padic", "--clean", "2..12", "--recursion", "3..10"],
    ],
}

# A call whose every record misses its expectation: feit holds at p=7.
NEGATIVE_CONTROL = ["verify", "--eq", "feit", "--p", "7", "--expect-fail"]


def call_key(argv) -> str:
    return " ".join(argv)
