"""The tau continuation's quality on a fixed sample of `log_sum_exp` and
`max_linear` solves (continuation_sample.py): no solve may end more than
1e-6 relative above its reference value, nor stop converging."""
import json

from continuation_sample import REFERENCES, SEED, solve_sample


def test_continuation_sample_keeps_its_reference_quality():
    references = json.loads(REFERENCES.read_text())
    assert references["seed"] == SEED
    solves = solve_sample()
    assert len(solves) == len(references["solves"]) >= 300
    above = [(i, value, ref) for i, ((value, _), (ref, _))
             in enumerate(zip(solves, references["solves"]))
             if value > ref + 1e-6 * abs(ref)]
    assert not above, f"(solve, value, reference) above by more than 1e-6: {above}"
    unconverged = [i for i, ((_, done), (_, was)) in enumerate(zip(solves, references["solves"]))
                   if was and not done]
    assert not unconverged, f"solves that no longer converge: {unconverged}"
