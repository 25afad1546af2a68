"""Runs one benchmark workload against the actionlab sources of this checkout.

    python3 bench/run.py --workload kinked-paths --seed 3 --seconds 25 --trace 0

It repeats whole rounds of the workload's operations until --seconds have
passed, checks every output, and prints as the last line of stdout one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones (END_TO_END); with --trace 1 they are
the per-layer ones (tracing.PER_LAYER), and the spans go to
bench/out/spans-<workload>.csv.  bench/README.md describes the workloads.
"""
import os

# one BLAS thread, here and in the set-up probes, which inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
#: end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def setup_probe(workload: str, seed: int, importtime: bool = False) -> tuple[float, float, str]:
    """Seconds from starting a fresh interpreter to the workload's inputs
    being ready, raw and at reference host speed, and the interpreter's
    stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "setup_probe.py"), workload, str(seed), str(OUT)]
    done = subprocess.run([*cmd, repr(time.monotonic())], capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=True)
    raw, scaled = (float(v) for v in done.stdout.split()[-2:])
    return raw, scaled, done.stderr


class Tally:
    """Counts operations attempted and failed across rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._reported: set[str] = set()

    def run_round(self, ops) -> list[tuple[float, float]]:
        """Runs every operation once; returns the monotonic clock readings
        around each one's program calls, checks excluded."""
        spans = []
        for op in ops:
            self.attempted += 1
            start = time.monotonic()
            try:
                result = op.call()
            except Exception as exc:  # a raising operation counts as failed
                spans.append((start, time.monotonic()))
                self._fail(op.name, f"raised {type(exc).__name__}: {exc}")
                continue
            spans.append((start, time.monotonic()))
            try:
                op.check(result)
            except checks.Unconverged as exc:
                self._fail(op.name, f"did not converge: {exc}")
            except checks.Wrong as exc:
                self.wrong += 1
                self._fail(op.name, f"WRONG OUTPUT: {exc}")
        return spans

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if name not in self._reported:
            self._reported.add(name)
            print(f"failed: {name}: {why}", file=sys.stderr)


def one_pass(rounds: list[list[float]]) -> float:
    """Seconds of one pass over the operations: the sum over operations of
    each one's median time across rounds."""
    return sum(statistics.median(op) for op in zip(*rounds))


def durations(spans: list[tuple[float, float]]) -> list[float]:
    return [end - start for start, end in spans]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "actionlab" / "__init__.py").is_file():
        print(f"error: no actionlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2

    setup_probe(args.workload, args.seed)  # warm-up: compiles bytecode caches
    if args.trace:
        import_log = setup_probe(args.workload, args.seed, importtime=True)[2]
    else:
        setups = [setup_probe(args.workload, args.seed)[:2] for _ in range(SETUP_PROBES)]

    builds = []
    for _ in range(3):
        start = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, str(OUT))
        builds.append(time.perf_counter() - start)

    tally = Tally()
    begin = time.perf_counter()
    if not args.trace:
        rounds = []
        sampler = hostspeed.Sampler()
        sampler.start()
        try:
            while True:
                rounds.append(tally.run_round(ops))
                if time.perf_counter() - begin >= args.seconds:
                    break
        finally:
            sampler.stop()
        walls = [[sampler.scaled(*span) for span in spans] for spans in rounds]
        raws = [durations(spans) for spans in rounds]
        print(f"{len(rounds)} rounds, seconds per round, raw: "
              + " ".join(f"{sum(w):.4f}" for w in raws)
              + "; at reference speed: " + " ".join(f"{sum(w):.4f}" for w in walls)
              + f"; raw pass {one_pass(raws):.4f}"
              + f"; raw set-up {statistics.median(raw for raw, _ in setups):.4f}",
              file=sys.stderr)
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "wall_s": one_pass(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        import tracing
        tracer = tracing.Tracer()
        plain, traced, layers = [], [], []
        while True:
            plain.append(durations(tally.run_round(ops)))
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(durations(tally.run_round(ops)))
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics(first))
            if time.perf_counter() - begin >= args.seconds:
                break
        print(f"{len(plain)} untraced and {len(traced)} traced rounds, "
              f"{len(tracer.spans)} spans", file=sys.stderr)
        values = tracing.median_metrics(layers)
        values.update(tracing.import_times(import_log))
        values["families.build_s"] = statistics.median(builds)
        values["trace.overhead_s"] = one_pass(traced) - one_pass(plain)
        tracer.write(OUT / f"spans-{args.workload}.csv")
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}

    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
