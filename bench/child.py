"""Run one benchmark job in this fresh interpreter.

    python bench/child.py [--trace FILE | --heap FILE] --job ID cli ARG...
    python bench/child.py [--trace FILE | --heap FILE] --job ID check NAME CONFIG
    python bench/child.py --job reference ref OUT

``cli`` runs ``padicwave ARG...`` as the console script would.  ``check``
runs the one acceptance check ``check_NAME`` as ``padicwave verify --config
CONFIG`` runs it, with the config's seed, and prints its line of the verify
report; the exit code is 1 when it fails.  ``ref`` writes the reference
program's rows to OUT (see reference.py).

``--trace`` installs the span wrappers of spans.py first and writes their
summary to FILE.  ``--heap`` runs the job under tracemalloc and writes the
peak to FILE.  The two never run together, so the heap tracer's cost never
shows in span times.  The exit code is the job's.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import tracemalloc


def run_check(name: str, config: str) -> int:
    # attribute lookup at call time, so an installed span wrapper is used
    from padicwave import acceptance

    with open(config, encoding="utf-8") as fh:
        seed = int(json.load(fh).get("seed", acceptance.DEFAULT_SEED))
    check = getattr(acceptance, f"check_{name}")
    takes_seed = "seed" in inspect.signature(check).parameters
    result = check(seed) if takes_seed else check()
    print(f"{result.name}  {'PASS' if result.passed else 'FAIL'}  {result.detail}")
    return 0 if result.passed else 1


def run_job(kind: str, args: list[str]) -> int:
    if kind == "cli":
        from padicwave import cli

        return cli.main(args)
    if kind == "check":
        return run_check(*args)
    if kind == "ref":
        import reference

        return reference.write(*args)
    raise SystemExit(f"unknown job kind {kind!r}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", help="write the span summary here")
    mode.add_argument("--heap", help="write the tracemalloc peak here")
    parser.add_argument("--job", required=True, help="job id")
    parser.add_argument("kind", choices=("cli", "check", "ref"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    tracer = None
    if opts.trace:
        from spans import Tracer

        tracer = Tracer(opts.job)
        tracer.install()
    elif opts.heap:
        import padicwave.cli  # noqa: F401  (module import is not the job's heap)

        tracemalloc.start()
    code = run_job(opts.kind, opts.args)
    if tracer is not None:
        with open(opts.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    elif opts.heap:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        with open(opts.heap, "w", encoding="utf-8") as fh:
            json.dump({"job": opts.job, "peak_bytes": peak}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
