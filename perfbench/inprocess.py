"""Run a workload's commands in this process through ``cli.main(argv)``.

Usage (from the checkout root):
  python3 perfbench/inprocess.py --workload NAME --seed N --work DIR --result FILE [--trace]

Writes FILE as JSON: per command its argv, seconds, exit code and error,
and with --trace every span recorded around the layer boundaries.  The
benchmark runs this in a fresh interpreter twice, untraced and traced, so
both start from the same cold state.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def run_main(main, argv):
    """Exit code of one cli.main call and the error text, if any."""
    try:
        return main(list(argv)) or 0, ""
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, int) or code is None:
            return code or 0, ""
        return 1, str(code)
    except Exception:  # a traceback is a failed command, not a crash here
        return 1, traceback.format_exc()


def run(workload, work, recorder=None):
    """Run every command with ``work`` as the current directory; returns
    one record per command."""
    from oddbalanced import cli

    workload.materialize(work)
    records = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for command in workload.commands:
            start = time.perf_counter()
            if recorder is None:
                code, error = run_main(cli.main, command.argv)
            else:
                code, error = recorder.call("cli.main", run_main, cli.main, command.argv)
            records.append({"argv": list(command.argv),
                            "seconds": time.perf_counter() - start,
                            "exit": code, "error": error})
    finally:
        os.chdir(cwd)
    return records


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    recorder = None
    wrapped = []
    if args.trace:
        import oddbalanced.cli  # noqa: F401  (load every layer before wrapping)

        recorder = spans.Recorder()
        wrapped = recorder.install()
    records = run(workload, Path(args.work), recorder)
    result = {"commands": records, "wrapped": wrapped,
              "spans": [list(s) for s in recorder.spans] if recorder else []}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
