"""End-to-end benchmark of the oddbalanced CLI.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): residue-reports, scalar-growth, numeric-checks.

--trace 0 runs the workload's command list again and again, each command
as a fresh ``python -m oddbalanced.cli`` child, one at a time (a closed
loop with one client), until the next pass would end after S seconds.  It
checks every output and reports, as medians over the passes:
  wall_s         wall time of the whole command list
  slowest_cmd_s  wall time of the slowest command
  cpu_s          user + system CPU of the children
  peak_rss_mb    largest resident set of any child
  setup_s        time to ``import oddbalanced.cli`` in a fresh interpreter,
                 sampled twice before every pass and once after the last
The row fail ratio of the checks is printed with them.

--trace 1 runs one such pass, then the commands in-process through
``cli.main`` untraced and traced (spans from spans.py), then the per-layer
probes of probes.py, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted (commands run), failed (commands that failed) and metrics.
Children run without ODDBALANCED_THREADS and ODDBALANCED_PURE, so the
default path is measured.  Work files and the span file go to .bench_out/
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PER_PASS = 2  # import samples before every pass, so they spread over the run
COMMAND_TIMEOUT = 150.0


class Bench:
    """One benchmark run in one checkout."""

    def __init__(self, root, workload):
        self.root = root
        self.workload = workload
        self.out_dir = root / ".bench_out"
        self.work = self.out_dir / f"work-{workload.name}-{workload.seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("ODDBALANCED_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self._verdicts = {}

    # -- children ----------------------------------------------------------

    def spawn(self, args, stderr_path):
        """Run one child to completion; returns (exit code, wall s, cpu s, max rss KB)."""
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            killer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def import_seconds(self):
        code = ("import time; t = time.perf_counter(); import oddbalanced.cli; "
                "print(repr(time.perf_counter() - t))")
        out = subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env,
                             capture_output=True, text=True, timeout=COMMAND_TIMEOUT)
        if out.returncode != 0:
            raise RuntimeError(f"import oddbalanced.cli failed: {out.stderr.strip()}")
        return float(out.stdout)

    # -- checks ------------------------------------------------------------

    def check(self, command, code, stderr):
        """Check the command's output file; verdicts are cached by content,
        since repeated passes produce the same bytes."""
        path = self.work / command.output
        data = path.read_bytes() if path.exists() else b""
        key = (command.argv, code, stderr, hashlib.sha256(data).hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = checks.check_command(
                command, code, stderr, data.decode(errors="replace"))
        return self._verdicts[key], len(data)

    # -- one pass of the command list --------------------------------------

    def run_pass(self):
        cmds = []
        for i, command in enumerate(self.workload.commands):
            (self.work / command.output).unlink(missing_ok=True)
            stderr_path = self.work / f"err{i}.txt"
            code, wall, cpu, rss = self.spawn(
                [sys.executable, "-m", "oddbalanced.cli", *command.argv], stderr_path)
            verdict, size = self.check(command, code, stderr_path.read_text(errors="replace"))
            cmds.append({"wall": wall, "cpu": cpu, "rss_kb": rss, "verdict": verdict,
                         "bytes": size})
        return {"wall": sum(c["wall"] for c in cmds),
                "slowest": max(c["wall"] for c in cmds),
                "cpu": sum(c["cpu"] for c in cmds),
                "rss_mb": max(c["rss_kb"] for c in cmds) / 1024.0,
                "bytes": sum(c["bytes"] for c in cmds),
                "verdicts": [c["verdict"] for c in cmds]}

    def inprocess(self, traced):
        result_path = self.out_dir / (
            f"trace-{self.workload.name}-{self.workload.seed}.json" if traced
            else f"inprocess-{self.workload.name}-{self.workload.seed}.json")
        args = [sys.executable, str(HERE / "inprocess.py"), "--workload", self.workload.name,
                "--seed", str(self.workload.seed), "--work", str(self.work),
                "--result", str(result_path)] + (["--trace"] if traced else [])
        code, _, _, _ = self.spawn(args, self.work / "inprocess-err.txt")
        if code != 0:
            err = (self.work / "inprocess-err.txt").read_text(errors="replace")
            raise RuntimeError(f"in-process run failed: {err.strip()}")
        result = json.loads(result_path.read_text())
        verdicts = [self.check(command, rec["exit"], rec["error"])[0]
                    for command, rec in zip(self.workload.commands, result["commands"])]
        return result, verdicts

    # -- the two kinds of run ----------------------------------------------

    def timed_run(self, seconds):
        setup, passes = [], []
        start = time.perf_counter()
        while True:
            setup += [self.import_seconds() for _ in range(SETUP_PER_PASS)]
            passes.append(self.run_pass())
            if time.perf_counter() - start + passes[-1]["wall"] > seconds:
                break
        setup.append(self.import_seconds())
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "slowest_cmd_s": statistics.median(p["slowest"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "setup_s": statistics.median(setup),
        }
        print(f"passes: {len(passes)}, wall s: {[round(p['wall'], 3) for p in passes]}; "
              f"setup samples: {len(setup)}")
        return metrics, [v for p in passes for v in p["verdicts"]]

    def traced_run(self, seed):
        import probes

        one = self.run_pass()
        plain, plain_verdicts = self.inprocess(traced=False)
        traced, traced_verdicts = self.inprocess(traced=True)
        recorded = [spans.Span(*s) for s in traced["spans"]]
        inprocess_s = sum(c["seconds"] for c in plain["commands"])
        traced_s = spans.root_time(recorded)
        metrics = {
            "cli.inprocess_s": inprocess_s,
            "cli.process_overhead_s": one["wall"] - inprocess_s,
            "cli.output_bytes": one["bytes"],
        }
        for layer, (self_s, calls) in spans.layer_totals(recorded).items():
            metrics[f"trace.{layer}.self_s"] = self_s
            metrics[f"trace.{layer}.calls"] = calls
        metrics["trace.overhead_s"] = traced_s - inprocess_s
        print(f"traced wall {traced_s:.6f} s over {len(recorded)} spans; "
              f"wrapped {len(traced['wrapped'])} bindings")
        for name, (seconds, calls) in spans.inclusive_times(recorded)[:10]:
            print(f"  {name}: {seconds:.6f} s inclusive, {calls} calls")
        probed, extra = probes.run_probes(seed)
        metrics.update(probed)
        for name, value in extra.items():
            print(f"{name} = {value:.4g}")
        verdicts = one["verdicts"] + plain_verdicts + traced_verdicts
        metrics["fail_ratio"] = fail_ratio(one["verdicts"])
        return metrics, verdicts


def fail_ratio(verdicts):
    rows = sum(v.rows for v in verdicts)
    return sum(v.failed for v in verdicts) / rows if rows else 1.0


def run_record(root, args):
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "commit": git_commit(root)}
    try:
        import mpmath
        import numpy

        import oddbalanced
        record.update(lane="compiled" if oddbalanced.USING_COMPILED else "pure",
                      numpy=numpy.__version__, mpmath=mpmath.__version__)
    except (ImportError, AttributeError) as exc:
        record["import_error"] = str(exc)
    return record


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = root / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else None
    return ref


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oddbalanced" / "cli.py").is_file():
        print("perfbench: run from the root of an oddbalanced checkout "
              "(src/oddbalanced/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    bench = Bench(root, workloads.build(args.workload, args.seed))
    print(json.dumps({"run_record": run_record(root, args)}))
    bench.work.mkdir(parents=True, exist_ok=True)
    bench.workload.materialize(bench.work)
    try:
        if args.trace:
            metrics, verdicts = bench.traced_run(args.seed)
        else:
            metrics, verdicts = bench.timed_run(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in reported:
        if m["name"] != "fail_ratio":
            print(f"{m['name']} = {metrics.get(m['name'])} {m['unit']}")
    rows = sum(v.rows for v in verdicts)
    bad_rows = sum(v.failed for v in verdicts)
    bound = sum(v.bound_violations for v in verdicts)
    print(f"fail_ratio = {fail_ratio(verdicts)} 1 ({bad_rows} of {rows} checked rows failed, "
          f"{bound} of them with a false tail bound)")
    notes = sorted({n for v in verdicts for n in v.notes})
    for note in notes:
        print(f"check: {note}")
    failed = sum(v.command_failed for v in verdicts)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
