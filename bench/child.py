"""One repetition of a workload in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>'

The spec names the workload, its seed and size, whether to trace, where to
write the result, and the checkout's ``src`` directory.  The result records
when ``nbtree.cli`` finished importing and when the last operation returned
(both ``time.monotonic``, which is shared by all processes on Linux), the
attempted and failed operations, and the sha256 of every output, so that the
parent can compare repetitions.
"""

import json
import sys
import time

import nbtree.cli  # noqa: F401  (timed: setup ends here)

T_IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import os  # noqa: E402


def _replay_rates(tracer, threads: int) -> dict:
    """Samples per second of the largest Monte Carlo call, replayed untraced at
    1 and at `threads` threads on the same (capped) number of samples."""
    if not tracer.kept:
        return {"t1": 0.0, "tN": 0.0}
    fn, args = max(tracer.kept, key=lambda c: c[1][1])
    sampler, n_samples, seed = args[:3]
    n = min(n_samples, 131_072)
    tracer.enabled = False
    best = {}
    for _ in range(2):
        for key, t in (("t1", 1), ("tN", threads)):
            start = time.perf_counter()
            fn(sampler, n, seed, threads=t)
            best[key] = max(best.get(key, 0.0), n / (time.perf_counter() - start))
    return best


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(nbtree.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"nbtree imported from {nbtree.cli.__file__}, not from {src}")
    result = {"t_imported": T_IMPORTED}
    if spec["workload"] is not None:
        from workloads import WORKLOAD_OPS

        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()

        ops = WORKLOAD_OPS[spec["workload"]](spec["seed"], spec["small"])
        failures = []
        digests = []
        for op in ops:
            try:
                out = op.run()
                msg = op.check(out)
            except Exception as exc:  # any raise is a failed operation, not a crash
                out, msg = "", f"raised {type(exc).__name__}: {exc}"
            digests.append(hashlib.sha256(out.encode()).hexdigest())
            if msg is not None:
                failures.append(f"{op.name}: {msg}")
        result.update(t_done=time.monotonic(), attempted=len(ops), failed=len(failures),
                      failures=failures[:5], digests=digests)
        if tracer is not None:
            result["layers"] = tracer.summary()
            result["samples_per_s"] = _replay_rates(tracer, spec["threads"])
            with open(spec["spans"], "w") as fh:
                json.dump(tracer.dump(), fh)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
