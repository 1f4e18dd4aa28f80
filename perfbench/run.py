#!/usr/bin/env python3
"""dagquot benchmark: seeded inputs, one client in a closed loop, in-process
calls of ``dagquot.cli.main``, and every verdict checked against answers the
benchmark computes on its own.

Run from the repository root:

    python3 perfbench/run.py --workload realize_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. README.md
describes the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import inputs
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("realize_dense", "verify_sparse", "cep_scan")
SETUP_MIN_REPEATS = 3  # set-up repeats at least this often,
SETUP_MIN_SECONDS = 2.0  # and until this much wall time has gone
BOUND = "5"
STORED_REALIZATIONS = 12  # verify_sparse cycles through this many per run
TRACE_SHARE = 1 / 3  # untraced share of --seconds in a traced run
TRACED_OPS_MAX = 8  # bounds the spans a traced run keeps in memory
# Median probe time on the reference machine (Intel Xeon, 2 vCPUs at 2 GHz).
PROBE_REFERENCE_S = 0.006


@dataclass
class Op:
    """One timed operation: a DAG, or one pass of the scan."""

    seconds: float  # reference seconds, see ``probe``
    wall: float
    calls: int
    failures: int
    problems: list[str]
    pairs: int
    report_bytes: int
    realization_bytes: int = 0
    entries_fail: int = 0
    entries_inconclusive: int = 0


@dataclass
class Call:
    code: int | None
    seconds: float
    wall: float
    output: str


def probe() -> float:
    """Median wall time of five rounds of a fixed piece of the benchmark's
    own pure-Python work, with the garbage collector off.

    A shared host changes speed by 20% or more for seconds to minutes at a
    time. Every timed span is bracketed by two probes and reported in
    reference seconds: wall * PROBE_REFERENCE_S / mean(probe before, probe
    after). The probe runs no dagquot code, so a change to the program
    cannot move it.
    """
    rounds = []
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            oracle.reachable_pairs(inputs.random_dag(40, 0.5, random.Random(0)))
            oracle.subgroup_lattice(4, ("(1 2)", "(1 2 3 4)"))
            rounds.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(rounds)


def to_reference(wall: float, before: float, after: float) -> float:
    return wall * PROBE_REFERENCE_S / ((before + after) / 2)


def rel(path: Path) -> str:
    return os.path.relpath(path)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""
    n_controls = 0  # controls counted in attempted; known-defect controls are not

    def __init__(self, seed: int, dq):
        self.seed = seed
        self.dq = dq  # the imported dagquot modules
        self.dir = WORK / self.name
        self.out = self.dir / "out"
        self.problems: list[str] = []  # found by the benchmark's own checks

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after set-up: the benchmark's own answers."""

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def controls(self) -> tuple[list[str], list[str]]:
        """Run the negative controls. Returns one string per failed control,
        and one per known-defect control that the program still gets wrong."""
        return [], []

    def call(self, argv: list[str]) -> Call:
        fresh_dir(self.out)
        buf = io.StringIO()
        before = probe()
        with redirect_stdout(buf), redirect_stderr(buf):
            start = time.perf_counter()
            try:
                code = self.dq.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                code = None
                print(f"raised {exc!r}")
            wall = time.perf_counter() - start
        return Call(code, to_reference(wall, before, probe()), wall, buf.getvalue())


class DagWorkload(Workload):
    edge_prob = 0.0

    def __init__(self, seed, dq):
        super().__init__(seed, dq)
        with open(HERE / "pins.json", encoding="utf-8") as fh:
            self.pins = json.load(fh)[self.name]
        self.reach: dict[int, set] = {}

    def pool(self, count: int) -> list[tuple[int, dict]]:
        order = inputs.pool_order(self.seed)[:count]
        return [(k, inputs.pool_dag(self.name, k, self.edge_prob)) for k in order]

    def dag_op(self, k: int, dag: dict, call: Call, expect: str, problems: list[str]) -> Op:
        """Check one call's exit code, output and report.json against the
        DAG's own reachability."""
        if call.code != 0 or expect not in call.output:
            problems.append(f"exit {call.code}: {call.output.strip()[-300:]}")
        if k not in self.reach:
            self.reach[k] = oracle.reachable_pairs(dag)
        ids = [v["id"] for v in dag["vertices"]]
        report_path = self.out / "report.json"
        counts = {}
        try:
            report = json.loads(report_path.read_bytes())
            counts = report["counts"]
            problems += oracle.report_problems(report, ids, self.reach[k])
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"report.json: {exc!r}")
        realization = self.out / "realization.json"
        return Op(
            seconds=call.seconds,
            wall=call.wall,
            calls=1,
            failures=1 if problems else 0,
            problems=[f"{self.name} dag {k}: {p}" for p in problems],
            pairs=len(ids) * (len(ids) - 1),
            report_bytes=report_path.stat().st_size if report_path.exists() else 0,
            realization_bytes=realization.stat().st_size if realization.exists() else 0,
            entries_fail=counts.get("fail", 0),
            entries_inconclusive=counts.get("inconclusive", 0),
        )


class RealizeDense(DagWorkload):
    """``dagquot realize`` on dense order-40 DAGs: inclusion-heavy."""

    name = "realize_dense"
    edge_prob = 0.5

    def setup(self):
        indir = fresh_dir(self.dir / "inputs")
        self.dags = []
        for k, dag in self.pool(inputs.POOL_SIZE):
            path = indir / f"dag-{k:02d}.json"
            path.write_text(json.dumps(dag), encoding="utf-8")
            self.dags.append((k, dag, path))

    def op(self, i):
        k, dag, path = self.dags[i % len(self.dags)]
        call = self.call(["realize", "--input", rel(path), "--out", rel(self.out), "--bound", BOUND])
        problems = []
        try:
            if inputs.sha256((self.out / "realization.json").read_bytes()) != self.pins[k]:
                problems.append("realization.json differs from its pinned sha256")
        except OSError as exc:
            problems.append(f"realization.json: {exc}")
        if not (self.out / "lattice.dot").is_file():
            problems.append("lattice.dot was not written")
        return self.dag_op(k, dag, call, "verdict: pass", problems)


class VerifySparse(DagWorkload):
    """``dagquot verify`` on stored realizations of sparse order-40 DAGs:
    separation-heavy, with two negative controls."""

    name = "verify_sparse"
    edge_prob = 0.05
    n_controls = 1

    def setup(self):
        dq = self.dq
        indir = fresh_dir(self.dir / "inputs")
        self.stored = []
        for k, dag in self.pool(STORED_REALIZATIONS):
            text = inputs.realization_text(dq.dag, dq.realizer, dag)
            path = indir / f"realization-{k:02d}.json"
            path.write_text(text, encoding="utf-8")
            pinned = inputs.sha256(text.encode()) == self.pins[k]
            self.stored.append((k, dag, path, pinned))
        # Both controls tamper with the realization of "1 -> 2"; the known
        # answer for each is exit 1.
        text = inputs.realization_text(dq.dag, dq.realizer, inputs.TAMPER_DAG)
        # control 1: one finite relator dropped
        data = json.loads(text)
        rng = random.Random(self.seed)
        vertex = rng.choice(sorted(data["vertices"]))
        finite = data["vertices"][vertex]["relators"]["finite"]
        finite.pop(rng.randrange(len(finite)))
        dropped = indir / "control-dropped-relator.json"
        dropped.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        # control 2: roadmap Open item 2, edge deleted and vertex 2's marking tampered
        data = json.loads(text)
        data["dag"]["edges"] = []
        data["vertices"]["2"]["marking"]["1"] = {"leaf": 0, "value": 1}
        tampered = indir / "control-open-item-2.json"
        tampered.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        # The Open item 2 control is a known defect: its wrong pass is
        # reported apart, not counted as a failed operation.
        self.control_files = [("dropped-relator", dropped, False), ("open-item-2", tampered, True)]

    def op(self, i):
        k, dag, path, pinned = self.stored[i % len(self.stored)]
        call = self.call(["verify", "--input", rel(path), "--out", rel(self.out), "--bound", BOUND])
        problems = [] if pinned else ["stored realization differs from its pinned sha256"]
        return self.dag_op(k, dag, call, "verdict: pass (0 inconclusive)", problems)

    def controls(self):
        failed, known = [], []
        for label, path, known_defect in self.control_files:
            call = self.call(["verify", "--input", rel(path), "--out", rel(self.out), "--bound", BOUND])
            if call.code != 1:
                (known if known_defect else failed).append(
                    f"control {label}: exit {call.code}, expected 1 ({call.output.strip()})")
        return failed, known


class CepScan(Workload):
    """``dagquot cep --scan`` over eight finite groups per pass."""

    name = "cep_scan"

    def setup(self):
        indir = fresh_dir(self.dir / "inputs")
        self.groups = []
        for name, degree, gens in inputs.cep_groups(random.Random(self.seed)):
            if gens is None:
                source = ["--group", name]
                label = name
            else:
                path = indir / f"{name}.json"
                path.write_text(json.dumps({"degree": degree, "generators": gens}), encoding="utf-8")
                source = ["--input", rel(path)]
                label = rel(path)
            self.groups.append((name, degree, gens, label, source))

    def prepare(self):
        self.chains = {}
        for name, degree, gens, _, _ in self.groups:
            if gens is None:
                degree, gens = oracle.BUILTIN_PERMUTATIONS[name]
            order, subgroups = oracle.subgroup_lattice(degree, gens)
            if order != oracle.GROUP_ORDERS[name] or len(subgroups) != oracle.SUBGROUP_COUNTS[name]:
                self.problems.append(
                    f"oracle: {name} has order {order} and {len(subgroups)} subgroups, expected "
                    f"{oracle.GROUP_ORDERS[name]} and {oracle.SUBGROUP_COUNTS[name]}")
            self.chains[name] = oracle.chain_count(subgroups)

    def op(self, i):
        seconds, wall, failures, problems, nbytes = 0.0, 0.0, 0, [], 0
        for name, _, _, label, source in self.groups:
            call = self.call(["cep", *source, "--scan", "--out", rel(self.out)])
            seconds += call.seconds
            wall += call.wall
            found = []
            if call.code != 0:
                found.append(f"exit {call.code}")
            try:
                nbytes += (self.out / "cep.json").stat().st_size
                result = json.loads((self.out / "cep.json").read_text(encoding="utf-8"))
                scan = result["transitivity_scan"]
                if result["group"] != label or result["order"] != oracle.GROUP_ORDERS[name]:
                    found.append(f"group {result['group']!r} of order {result['order']}")
                if scan["chains_checked"] != self.chains[name]:
                    found.append(f"{scan['chains_checked']} chains, expected {self.chains[name]}")
                if scan["violations"]:
                    found.append(f"{len(scan['violations'])} violations")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found.append(f"cep.json: {exc!r}")
            if found:
                failures += 1
                problems.append(f"cep_scan {name}: {'; '.join(found)}")
        return Op(seconds, wall, len(self.groups), failures, problems,
                  pairs=sum(self.chains.values()), report_bytes=nbytes)


WORKLOAD_CLASSES = {cls.name: cls for cls in (RealizeDense, VerifySparse, CepScan)}


def import_dagquot():
    if not (SRC / "dagquot" / "cli.py").is_file():
        raise SystemExit(f"error: no dagquot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dagquot.cli
    import dagquot.dag
    import dagquot.realizer

    return types.SimpleNamespace(cli=dagquot.cli, dag=dagquot.dag, realizer=dagquot.realizer)


def child_import() -> None:
    """Import the package in a fresh interpreter, as a command-line user pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import dagquot.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL, cwd=ROOT)


def closed_loop(wl: Workload, seconds: float, start: int = 0) -> list[Op]:
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(wl.op(start + len(ops)))
    return ops


def end_to_end(ops: list[Op], setup_s: float) -> dict:
    seconds = sum(op.seconds for op in ops)
    pairs = sum(op.pairs for op in ops)
    values = {
        "setup_s": (setup_s, "s"),
        "verdict_p50_s": (statistics.median(op.seconds for op in ops), "s"),
        "pairs_per_s": (pairs / seconds, "1/s"),
        "report_bytes_per_pair": (sum(op.report_bytes for op in ops) / pairs, "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_run(wl: Workload, seconds: float) -> tuple[list[Op], dict]:
    """Run the closed loop untraced for a share of the time, then the same
    operations again with spans on. Per-layer metrics are per traced operation."""
    untraced = closed_loop(wl, seconds * TRACE_SHARE)
    tracer = spans.Tracer()
    patches = tracer.install()
    try:
        traced = [wl.op(i) for i in range(min(len(untraced), TRACED_OPS_MAX))]
    finally:
        tracer.uninstall(patches)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / "traces" / f"{wl.name}-seed{wl.seed}.spans")
    k = len(traced)
    metrics = spans.layer_metrics(tracer, k, {
        "realizer.realization_bytes": sum(op.realization_bytes for op in traced) / k,
        "verifier.entries.fail": sum(op.entries_fail for op in traced) / k,
        "verifier.entries.inconclusive": sum(op.entries_inconclusive for op in traced) / k,
        "trace.overhead_ratio": sum(op.seconds for op in traced)
        / sum(op.seconds for op in untraced[:k]),
    })
    return untraced + traced, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    dq = import_dagquot()
    wl = WORKLOAD_CLASSES[name](seed, dq)
    try:
        setup_times = []
        setup_start = time.perf_counter()
        while (len(setup_times) < SETUP_MIN_REPEATS
               or time.perf_counter() - setup_start < SETUP_MIN_SECONDS):
            before = probe()
            start = time.perf_counter()
            child_import()
            wl.setup()
            setup_times.append(to_reference(time.perf_counter() - start, before, probe()))
        wl.prepare()
        if not trace:
            ops = closed_loop(wl, seconds)
            metrics = end_to_end(ops, statistics.median(setup_times))
        else:
            ops, metrics = traced_run(wl, seconds)
        control_failures, known_defects = wl.controls()
        if trace:
            metrics["verifier.controls.wrong_pass"] = {
                "value": len(control_failures) + len(known_defects), "unit": "count"}
    finally:
        shutil.rmtree(wl.dir, ignore_errors=True)
    problems = wl.problems + [p for op in ops for p in op.problems] + control_failures
    return {
        "ops": ops,
        "problems": problems,
        "known_defects": known_defects,
        "result": {
            "correct": not wl.problems and not any(op.failures for op in ops),
            "attempted": sum(op.calls for op in ops) + wl.n_controls,
            "failed": sum(op.failures for op in ops) + len(control_failures),
            "metrics": metrics,
        },
    }


def summary_row(name: str, seed: int, run: dict) -> str:
    res, ops = run["result"], run["ops"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    cells = [f"{name:<14} seed={seed}"]
    if "setup_s" in m:
        rate = f"{m['pairs_per_s']:.1f} 1/s"
        cells += [
            f"setup_s={m['setup_s']:.3f} s",
            f"verdict_p50_s={m['verdict_p50_s']:.3f} s (n={len(ops)}; wall {statistics.median(op.wall for op in ops):.3f} s)",
            f"pairs_per_s={rate if name != 'cep_scan' else '-'}",
            f"report_bytes_per_pair={m['report_bytes_per_pair']:.1f} B",
            f"chains_per_s={rate if name == 'cep_scan' else '-'}",
            f"peak_rss_mb={m['peak_rss_mb']:.1f} MB",
        ]
    else:
        cells.append(f"overhead_ratio={m['trace.overhead_ratio']:.2f}")
    cells.append(f"known_defects={len(run['known_defects'])}")
    cells.append(f"fail_ratio={res['failed']}/{res['attempted']}={res['failed'] / res['attempted']:.4f}")
    cells.append(f"correct={res['correct']}")
    return "  ".join(cells)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one summary row per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
                status = 1
        except (IndexError, ValueError, KeyError):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in run["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for defect in run["known_defects"]:
        print(f"known defect: {defect}")
    print(summary_row(args.workload, args.seed, run))
    print(json.dumps(run["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
