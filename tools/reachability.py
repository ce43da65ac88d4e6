#!/usr/bin/env python3
"""List the ``src/repro`` functions that no shipped entry point enters.

Runs every entry point below under a stdlib ``sys.setprofile`` hook and
prints, per module, the functions that were never entered:

- every CLI verb: the ``list-*`` verbs, every example scenario through
  ``run-scenario``, every example campaign through ``run-campaign`` and
  ``campaign-report`` (plus ``--dry-run``, ``--evaluation hybrid``,
  ``--shards 2`` and ``store-compact``), ``fidelity --grid smoke``,
  each figure and table verb at a scaled protocol, ``repro all``,
  ``fig7`` for both apps and ``baselines``;
- the ``examples/*.py`` scripts, and ``examples/service_smoke.py`` three
  times against one ``repro serve``;
- every ``benchmarks/bench_*.py`` file and ``benchmarks/e2e/run.py``
  (the last two at the e2e smoke test's reduced scale).

The hook is a generated ``sitecustomize`` put first on ``PYTHONPATH``,
so every Python process an entry point starts is recorded too.  Each
process writes what it entered when it exits: at ``atexit``, on
SIGTERM, and through a wrapped ``os._exit``, which is how forked pool
workers leave (multiprocessing clears its finalizers in a forked child
and ``atexit`` never runs there).

It takes no options.  Entry points run in the repository root, and
every store they write goes to a temporary directory that is removed
afterwards.  A run takes about ten minutes on two cores, most of it the
pytest benches, because profiling slows every call::

    python tools/reachability.py

Progress (seconds, exit code, entry point) goes to stderr; the report
goes to stdout, and the exit code is 1 if any entry point failed.

An unreached function is not dead code by itself: error paths, oracles
and kinds only a spec, file or request can select are unreached too.
The list is where a deletion starts, not the proof that it is safe.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"
BENCHMARKS = ROOT / "benchmarks"

#: Written as ``sitecustomize.py`` after two lines that set ``_out``
#: (where each process writes what it entered) and ``_src``.
HOOK = '''
import atexit, os, signal, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted({
        f"{c.co_filename}\\t{c.co_firstlineno}\\t{c.co_name}\\n"
        for c in list(_seen) if c.co_filename.startswith(_src)
    })
    name = f"{os.getpid()}-{len(os.listdir(_out))}.txt"
    with open(os.path.join(_out, name), "w") as handle:
        handle.writelines(rows)


_real_exit = os._exit


def _exit(code):
    _dump()
    _real_exit(code)


def _on_term(signum, frame):
    _dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


os._exit = _exit
atexit.register(_dump)
signal.signal(signal.SIGTERM, _on_term)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def entry_points(work: Path):
    """``(label, argv)`` for every run, in order; paths under ``work``."""
    repro = [sys.executable, "-m", "repro"]
    py = [sys.executable]
    runs = [
        (f"repro {verb}", repro + [verb])
        for verb in (
            "list-policies", "list-arrival-models", "list-evaluation-modes",
            "list-placements", "list-failure-models",
        )
    ]
    for spec in sorted((EXAMPLES / "scenarios").glob("*.json")):
        runs.append((f"run-scenario {spec.name}",
                     repro + ["run-scenario", str(spec), "--workers", "2"]))
    runs.append(("run-scenario --json",
                 repro + ["run-scenario", str(EXAMPLES / "scenarios" / "smoke.json"),
                          "--workers", "2", "--json"]))
    for spec in sorted((EXAMPLES / "campaigns").glob("*.json")):
        store = work / f"store-{spec.stem}"
        runs.append((f"run-campaign {spec.name}",
                     repro + ["run-campaign", str(spec), "--store", str(store),
                              "--workers", "2"]))
        runs.append((f"campaign-report {spec.name}",
                     repro + ["campaign-report", str(spec), "--store", str(store)]))
    smoke = str(EXAMPLES / "campaigns" / "smoke.json")
    hybrid = str(EXAMPLES / "campaigns" / "hybrid_smoke.json")
    runs += [
        ("run-campaign --dry-run", repro + ["run-campaign", smoke, "--store",
                                            str(work / "store-smoke"), "--dry-run"]),
        ("run-campaign --evaluation hybrid",
         repro + ["run-campaign", hybrid, "--store", str(work / "hybrid"),
                  "--evaluation", "hybrid", "--json"]),
        ("run-campaign --shards 2",
         repro + ["run-campaign", smoke, "--store", str(work / "shards"),
                  "--shards", "2", "--json"]),
        ("store-compact", repro + ["store-compact", str(work / "store-smoke")]),
        ("fidelity --grid smoke", repro + ["fidelity", "--grid", "smoke",
                                           "--store", str(work / "fidelity")]),
        ("fig6", repro + ["fig6", "--duration", "120", "--warmup", "20"]),
        ("fig8", repro + ["fig8", "--duration", "60", "--warmup", "10"]),
        ("fig9", repro + ["fig9", "--enable-at", "240", "--duration", "480"]),
        ("fig10", repro + ["fig10", "--enable-at", "120", "--duration", "360"]),
        ("table2", repro + ["table2", "--repetitions", "50"]),
        ("repro all", repro + ["all"]),
        ("fig7 vld", repro + ["fig7", "--app", "vld", "--duration", "120",
                              "--warmup", "20"]),
        ("fig7 fpd", repro + ["fig7", "--app", "fpd", "--duration", "120",
                              "--warmup", "20"]),
        ("baselines", repro + ["baselines", "--app", "vld", "--duration", "90",
                               "--warmup", "20"]),
    ]
    for script in sorted(EXAMPLES.glob("*.py")):
        if script.name != "service_smoke.py":
            runs.append((f"examples/{script.name}", py + [str(script)]))
    pytest_benches = [
        str(path) for path in sorted(BENCHMARKS.glob("bench_*.py"))
        if "__main__" not in path.read_text()
    ]
    runs += [
        ("pytest benchmarks/bench_*.py",
         py + ["-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--benchmark-disable", *pytest_benches]),
        ("benchmarks/bench_runtime_hotpath.py",
         py + [str(BENCHMARKS / "bench_runtime_hotpath.py"), "--out",
               str(work / "hotpath.json"), "--scale", "0.1", "--repeat", "1",
               "--solver-iters", "10"]),
        ("benchmarks/bench_hybrid.py",
         py + [str(BENCHMARKS / "bench_hybrid.py"), "--out",
               str(work / "hybrid.json"), "--scale", "0.1", "--repeat", "1"]),
        ("benchmarks/e2e/run.py",
         py + [str(BENCHMARKS / "e2e" / "run.py"), "--scale", "0.02",
               "--seconds", "0.3", "--setup-runs", "1",
               "--store-root", str(work / "e2e")]),
    ]
    return runs


def run(label, argv, env, failures) -> None:
    started = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    print(f"{time.perf_counter() - started:7.1f}s  exit {proc.returncode}  {label}",
          file=sys.stderr, flush=True)
    if proc.returncode != 0:
        failures.append((label, proc.stdout.strip().splitlines()[-1:]))


def service_round_trip(work: Path, env, failures) -> None:
    """Three ``service_smoke.py`` submissions against one ``repro serve``:
    cold, warm, and a campaign a CLI run wrote under the live server."""
    store = work / "service"
    (store / "segments").mkdir(parents=True)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store),
         "--port", "0", "--workers", "2"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        url = server.stdout.readline().split()[4]
        smoke = [sys.executable, str(EXAMPLES / "service_smoke.py"), "--url", url]
        seeds = str(EXAMPLES / "campaigns" / "seed_sweep.json")
        run("service_smoke.py (cold)", smoke, env, failures)
        run("service_smoke.py (warm)", smoke, env, failures)
        run("run-campaign under repro serve",
            [sys.executable, "-m", "repro", "run-campaign", seeds,
             "--store", str(store)], env, failures)
        run("service_smoke.py --campaign seed_sweep.json",
            smoke + ["--campaign", seeds], env, failures)
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def defined_functions():
    """``{(path, first line, name): (module, qualname, lines)}`` for every
    ``def`` under ``src/repro``.  The first line is the first
    decorator's, which is what ``co_firstlineno`` reports."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC.parent).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first, child.name)] = (
                        module, prefix + child.name, child.end_lineno - child.lineno + 1
                    )
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="repro-reach-"))
    out = work / "entered"
    hook_dir = work / "hook"
    out.mkdir()
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        f"_out = {str(out)!r}\n_src = {str(SRC)!r}\n" + HOOK
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failures = []
    try:
        for label, argv in entry_points(work):
            run(label, argv, env, failures)
        service_round_trip(work, env, failures)
        entered = set()
        for dump in out.iterdir():
            for line in dump.read_text().splitlines():
                path, first, name = line.split("\t")
                entered.add((path, int(first), name))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    functions = defined_functions()
    unreached = defaultdict(list)
    for key, (module, qualname, lines) in functions.items():
        if key not in entered:
            unreached[module].append((key[1], qualname, lines))
    for module in sorted(unreached):
        total = sum(1 for m, _, _ in functions.values() if m == module)
        print(f"{module}: {len(unreached[module])} of {total} unreached")
        for first, qualname, lines in sorted(unreached[module]):
            print(f"    {qualname}  (line {first}, {lines} lines)")
    missed = [row for rows in unreached.values() for row in rows]
    print(
        f"\n{len(missed)} of {len(functions)} functions"
        f" ({sum(r[2] for r in missed)} of {sum(f[2] for f in functions.values())}"
        " function lines) were never entered."
    )
    for label, tail in failures:
        print(f"entry point failed: {label}: {' '.join(tail)}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
