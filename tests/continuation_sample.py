"""A fixed seeded sample of `log_sum_exp` and `max_linear` minimal-action
solves, small enough for the tier-1 suite, that guards the quality of the
tau continuation: test_continuation_quality.py fails if a solve ends more
than 1e-6 relative above its reference value or stops converging.

The sample is 40 groups of 8 paths, each group one function, horizon and
MinimizeConfig solved in one lockstep `_minimize_paths` run.  Run as a script,

    PYTHONPATH=src python tests/continuation_sample.py

it writes the sample's values to continuation_references.json beside it.
The committed references were made with the minimizer of commit fd3d122,
whose stages each ended on a confirming Newton system.
"""
import json
import pathlib

import numpy as np

from actionlab.convex import LogSumExp, MaxLinear
from actionlab.minimize import MinimizeConfig, _minimize_paths

SEED = 23
GROUPS, PATHS = 40, 8
REFERENCES = pathlib.Path(__file__).with_name("continuation_references.json")


def groups():
    """(f, X0, XD, delta, config) per group, drawn from SEED."""
    rng = np.random.default_rng(SEED)
    for g in range(GROUPS):
        d, m = int(rng.integers(1, 3)), int(rng.integers(2, 5))
        vectors = rng.normal(size=(m, d))
        epsilon = float(rng.choice([0.03, 0.1, 0.3, 1.0]))
        f = LogSumExp(vectors, epsilon) if g % 2 == 0 else MaxLinear(vectors)
        delta = float(rng.choice([0.3, 1.0, 3.0]))
        config = MinimizeConfig(N=int(rng.choice([8, 16, 32])),
                                grad_tol=float(rng.choice([1e-4, 1e-5, 1e-6])))
        X0, XD = rng.uniform(-2.0, 2.0, size=(2, PATHS, d))
        yield f, X0, XD, delta, config


def solve_sample() -> list[tuple[float, bool]]:
    """(value_true, converged) of every solve of the sample, in order."""
    return [(res.value_true, res.converged) for f, X0, XD, delta, config in groups()
            for res in _minimize_paths([f] * PATHS, X0, XD, delta, config)]


if __name__ == "__main__":
    rows = ",\n".join(f"  [{v!r}, {str(c).lower()}]" for v, c in solve_sample())
    REFERENCES.write_text(f'{{"seed": {SEED}, "solves": [\n{rows}\n]}}\n')
    print(f"wrote {REFERENCES}")
