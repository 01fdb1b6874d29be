"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-reddit --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes a
separate traced run and prints the per-layer table instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run-time state (ledger of modelled outputs, spans, scratch stores);
#: listed in the repository's .gitignore.
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
#: The documented held-out seed: never use it while developing a change;
#: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.campaign.executor, repro.campaign.presets, repro.serve.scenario; "
    "print(time.perf_counter() - t)"
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-reddit", "sweep-reddit", "serve-plain", "serve-chaos"))
    p.add_argument("--seed", type=int, default=0,
                   help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="host seconds of timed operations to run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for smoke tests")
    p.add_argument("--update-reference", action="store_true",
                   help="store this run's modelled outputs as the seed-0 reference")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def source_digest() -> str:
    """Identifies one commit: a hash of the library's and the benchmark's code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def import_seconds() -> float:
    """Median import time of the library in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def read_json(path: Path) -> dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def write_json(path: Path, data: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


class Ledger:
    """Modelled outputs of every operation run on this source tree.

    Operations with the same inputs must give identical modelled outputs,
    within a run and across runs (traced or not) of one commit.
    """

    KEEP = 4  # source trees remembered

    def __init__(self, path: Path, digest: str) -> None:
        self.path = path
        self.data = read_json(path)
        self.digest = digest
        self.entries = self.data.setdefault(digest, {})
        self.repeats = 0

    def check(self, key: str, model: dict[str, Any]) -> str | None:
        """Record ``model`` under ``key``; describe a mismatch, if any."""
        model = json.loads(json.dumps(model))
        seen = self.entries.get(key)
        if seen is None:
            self.entries[key] = model
            return None
        self.repeats += 1
        if seen != model:
            return f"modelled outputs of {key} differ from an earlier run: {seen} vs {model}"
        return None

    def save(self) -> None:
        self.data[self.digest] = self.data.pop(self.digest)  # most recent last
        for stale in list(self.data)[: -self.KEEP]:
            del self.data[stale]
        write_json(self.path, self.data)


def timed_ops(workload: Any, budget: float, ledger: Ledger, prefix: str,
              count: int | None = None, tracer: Any = None) -> list[tuple[float, Any]]:
    """Closed loop: run operations back to back, probing the machine between.

    With ``count`` unset, a new operation starts only while it is expected
    to finish inside ``budget`` seconds (always at least one).  An
    operation's host time excludes the probes taken inside it.
    """
    machine = workload.machine
    done: list[tuple[float, Any]] = []
    begin = time.perf_counter()
    while True:
        if count is not None:
            if len(done) >= count:
                break
        elif done and (time.perf_counter() - begin
                       + statistics.median(w for w, _ in done)) > budget:
            break
        index = len(done)
        machine.check()
        machine.paused = 0.0
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("op") as root:
                result = workload.op(index)
            root.counts = {"op": index}
        else:
            result = workload.op(index)
        wall = time.perf_counter() - start - machine.paused
        mismatch = ledger.check(f"{prefix}|{result.key}", result.model)
        if mismatch:
            result.errors.append(mismatch)
        done.append((wall, result))
    machine.check()
    return done


def fresh_setups(cls: Any, args: argparse.Namespace, workdir: Path, machine: Any,
                 setup_machine: Any, tracer: Any = None
                 ) -> tuple[Any, list[tuple[float, list[float]]]]:
    """Set the workload up several times, probing after each; keep the last.

    Returns the last workload and, per set-up, its host seconds and the
    cold evaluation points it paid for.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = cls(args.seed, workdir, machine, tiny=args.size == "tiny",
                       tracer=tracer)
        start = time.perf_counter()
        points = workload.setup()
        setups.append((time.perf_counter() - start, points))
        setup_machine.check()
    return workload, setups


def warm_up(cls: Any, args: argparse.Namespace, workdir: Path, machine: Any) -> None:
    """One untimed tiny operation: lazy imports and allocator growth."""
    warm = cls(args.seed, workdir, machine, tiny=True)
    warm.setup()
    warm.op(0)


def end_to_end(import_s: float, setups: list[tuple[float, list[float]]],
               ops: list[tuple[float, Any]], setup_machine: Any = None,
               slowdown: float = 1.0) -> dict[str, float]:
    """The graded metrics, normalised by the machine's slowdown.

    Set-up is short and the host's speed can change within it, so the
    imports and each set-up are divided by the mean slowdown of the two
    probes around them (``setup_machine`` samples: one before the imports,
    one after, one after each set-up); operations by the run's ``slowdown``.
    Without ``setup_machine`` and ``slowdown`` the values are raw host ones.
    """
    def around(k: int) -> float:
        if setup_machine is None:
            return 1.0
        return statistics.mean(setup_machine.slowdown_over(i, i) for i in (k, k + 1))

    setup_s = [sec / around(k + 1) for k, (sec, _) in enumerate(setups)]
    points = [p / around(k + 1) for k, (_, pts) in enumerate(setups) for p in pts]
    points += [p / slowdown for _, r in ops for p in r.point_seconds]
    rates = [r.items / r.item_seconds for _, r in ops if r.item_seconds > 0]
    return {
        "setup_s": import_s / around(0) + statistics.median(setup_s),
        "wall_s": statistics.median(w for w, _ in ops) / slowdown,
        "point_s_p50": statistics.median(points),
        "items_per_s": (statistics.median(rates) if rates else 0.0) * slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Any, traced: list[tuple[float, Any]],
              untraced: list[tuple[float, Any]], traced_slowdown: float,
              untraced_slowdown: float) -> tuple[dict[str, float], Any]:
    """Layer metrics per traced operation, in raw host seconds; the two
    halves' wall times are normalised, so the overhead excludes machine drift."""
    from metrics import PER_OP
    from spans import LayerTotals

    roots = [i for i, s in enumerate(tracer.spans) if s.name == "op" and s.parent < 0]
    totals = LayerTotals.of(tracer, roots)
    n = len(roots)
    out = {m.name: m.value(totals) / (n if m.per_op else 1) for m in PER_OP}
    calibrations = [s.seconds for s in tracer.spans if s.name == "service.calibrate"]
    traced_wall = statistics.mean(w for w, _ in traced) / traced_slowdown
    untraced_wall = statistics.mean(w for w, _ in untraced) / untraced_slowdown
    out.update({
        "service.calibrate_s": statistics.median(calibrations) if calibrations else 0.0,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead": traced_wall / untraced_wall,
    })
    return out, totals


def reference_status(workload: str, ops: list[tuple[float, Any]]) -> str:
    reference = read_json(REFERENCE).get(workload, {})
    compared = [(r.key, reference[r.key] == json.loads(json.dumps(r.model)))
                for _, r in ops if r.key in reference]
    if not compared:
        return "not applicable (no reference for these inputs; it covers seed 0)"
    differ = [key for key, same in compared if not same]
    if differ:
        return f"DIFFERS for {', '.join(differ)}"
    return f"equal ({len(compared)} operation(s) compared)"


def update_reference(workload: str, ops: list[tuple[float, Any]]) -> None:
    data = read_json(REFERENCE)
    data[workload] = {r.key: json.loads(json.dumps(r.model)) for _, r in ops}
    write_json(REFERENCE, data)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}/repro", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from metrics import END_TO_END, PER_OP, RUN_LEVEL, UNITS
    from probe import Machine
    from spans import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.update_reference and (args.seed != 0 or args.size != "full"):
        print("perfbench: the reference holds seed 0 at full size", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    ledger = Ledger(STATE / "ledger.json", source_digest())
    prefix = f"{args.workload}|{args.size}"
    tracer = Tracer() if args.trace else None
    machine, setup_machine = Machine(), Machine()
    try:
        warm_up(cls, args, workdir, machine)
        setup_machine.check()
        import_s = import_seconds()
        setup_machine.check()
        workload, setups = fresh_setups(cls, args, workdir, machine, setup_machine,
                                        tracer)
        if not args.trace:
            ops = timed_ops(workload, args.seconds, ledger, prefix)
            traced: list[tuple[float, Any]] = []
        else:
            ops = timed_ops(workload, args.seconds / 2, ledger, prefix)
            split = len(machine.samples) - 1  # the probe both halves share
            tracer.install()
            try:
                traced = timed_ops(workload, 0, ledger, prefix, count=len(ops),
                                   tracer=tracer)
            finally:
                tracer.remove()
        ledger.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = ops + traced
    failed = sum(1 for _, r in everything if r.errors)
    lines = [f"perfbench {args.workload} seed={args.seed} size={args.size} "
             f"trace={args.trace}: {len(everything)} operation(s)"]
    for _, r in everything:
        lines += [f"  FAILED {r.key}: {e}" for e in r.errors]
    lines.append(f"  error_rate            {failed / len(everything):.4g} "
                 f"({failed} of {len(everything)} operations failed a check)")
    for name, value in sorted(ops[0][1].model.items()):
        lines.append(f"  {name:<22}{value!r}  (not graded; {ops[0][1].key})")
    lines.append(f"  model outputs vs seed-0 reference: {reference_status(args.workload, ops)}")
    lines.append(f"  model outputs repeated across runs of this source tree: "
                 f"{ledger.repeats} operation(s) compared")

    lines.append(f"  machine slowdown      {machine.slowdown:.4f}x the reference speed "
                 f"over the operations, {setup_machine.slowdown:.4f}x over set-up")
    lines.append(f"  set-up host seconds   {', '.join(f'{x:.4f}' for x, _ in setups)} "
                 f"(+ {import_s:.4f} s imports)")
    if not args.trace:
        metrics = end_to_end(import_s, setups, ops, setup_machine, machine.slowdown)
        raw = end_to_end(import_s, setups, ops)
        names = [name for name, _, _ in END_TO_END]
        for name in names:
            lines.append(f"  {name:<22}{metrics[name]:.6g} {UNITS[name]}"
                         f"  (host: {raw[name]:.6g})")
    else:
        metrics, totals = per_layer(tracer, traced, ops, machine.slowdown_over(split),
                                    machine.slowdown_over(0, split))
        names = list(metrics)
        missing = [s for s in cls.reaches if not totals.calls.get(s)]
        if args.workload.startswith("serve") and not metrics["service.calibrate_s"]:
            missing.append("service.calibrate")
        if missing:
            print(f"perfbench: traced run of {args.workload} recorded zero calls "
                  f"into {', '.join(missing)}; a layer row went empty", file=sys.stderr)
            return 3
        if tracer.installed:
            print("perfbench: wrappers still installed after the traced run",
                  file=sys.stderr)
            return 3
        # A difference has already failed the traced operation via the ledger.
        same = all(a.model == b.model for (_, a), (_, b) in zip(ops, traced))
        moves = {m.name: m.moves for m in PER_OP}
        moves.update((name, meaning) for name, _, meaning in RUN_LEVEL)
        lines.append(f"  {'layer metric':<24}{'per op':>14}  unit   should move / meaning")
        for name in names:
            lines.append(f"  {name:<24}{metrics[name]:>14.6g}  {UNITS[name]:<6} "
                         f"{moves.get(name, '')}")
        lines.append(f"  traced == untraced model outputs: {same}; "
                     f"tracing overhead {metrics['trace.overhead']:.3f}x")
        spans_path = STATE / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        lines.append(f"  spans written to {spans_path.relative_to(ROOT)}")

    if args.update_reference:
        update_reference(args.workload, ops)
        lines.append(f"  reference updated: {REFERENCE.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
