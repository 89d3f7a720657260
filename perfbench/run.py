#!/usr/bin/env python3
"""Benchmark of tolrep, run from the root of a source checkout.

    python3 perfbench/run.py --workload {represent,enumerate,cli} --seed N \
        --seconds S --trace {0,1}

One process drives the package in a closed loop, one operation at a time,
in whole passes over a seeded instance list until S seconds have passed.
After the loop every output is checked against perfbench/checkers.py,
which shares no code with the package.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import checkers as C
import instances
from spans import ARITY_NAMES, Stats, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
# set-ups per run, by workload; setup_s is their median
SETUP_REPEATS = {"represent": 9, "enumerate": 25, "cli": 5}
VERIFY_REPEATS = 5     # verify-paper processes per run
START_REPEATS = 9      # import-only processes for cli.start_ms
MIN_OPERATIONS = 100   # per timed loop
PROCESS_TIMEOUT_S = 120
# Seconds the reference computation (Speed) takes at the nominal speed,
# and how often the timed loop takes a sample of it.
REFERENCE_S = 0.001
SPEED_EVERY_S = 0.025
OUTLIER = 3.0
# What the console script `tolrep` runs.
BOOT = "import sys; from tolrep.cli import main; sys.argv[0] = 'tolrep'; main()"


@dataclass
class Failure:
    """An operation that raised, or a process that crashed or ran out of budget."""

    kind: str


@dataclass
class Loop:
    times: array          # seconds per attempted operation, in order
    scaled: array         # the same at the nominal speed (see Speed)
    passes: int
    pass_times: list      # seconds per pass, summed over its operations
    first: list           # outputs of the first pass
    failed: int
    fail_kinds: Counter
    relations: int
    unsteady: list        # indices whose output changed between passes


class Speed:
    """How fast the host runs Python, against the nominal speed.

    The host flips between two speeds, one about twice the other, several
    times a second, and the share of time at each drifts from run to run,
    far beyond any bound a time could keep between runs.  So a run times a
    small fixed computation from checkers.py, which no change to the
    package touches, every SPEED_EVERY_S seconds between operations and
    between the steps of each set-up, and scales each time it reports by
    REFERENCE_S over the mean reference sample near it: times read as at
    the nominal speed.
    Samples over OUTLIER times the run's median (the process was
    descheduled) are left out of the means.  The raw times and the samples
    go to the result file.  Garbage collection is off while sampling, so
    the package's heap does not weigh on the reference.
    """

    def __init__(self):
        self.at, self.samples = array("d"), array("d")
        self._n, self._ops, _ = C.reference("s7_semilattice")
        self._cap = (0, 0.0)  # (sample count, OUTLIER times their median)
        self.last = -math.inf  # when the last sample ended
        self.paused = 0.0      # seconds spent sampling, all told
        self.timed_raw = []    # unscaled seconds of each timed() step

    def sample(self):
        begin = time.perf_counter()
        gc.disable()
        try:
            t0 = time.perf_counter()
            C.closure(self._n, self._ops, [(0, 1)], symmetric=True)
            dt = time.perf_counter() - t0
        finally:
            gc.enable()
        self.at.append(t0)
        self.samples.append(dt)
        self.last = time.perf_counter()
        self.paused += self.last - begin

    def tick(self):
        """Take a sample if SPEED_EVERY_S have passed since the last one."""
        if time.perf_counter() - self.last >= SPEED_EVERY_S:
            self.sample()

    def timed(self, step):
        """Run `step(tick)`; (its result, its seconds at the nominal speed).

        `step` calls `tick` between its parts, so the samples lie inside
        the time measured; the time spent sampling is taken out of it, and
        the time is scaled by the samples taken from just before it to just
        after it.
        """
        self.sample()
        paused = self.paused
        t0 = time.perf_counter()
        result = step(self.tick)
        t1 = time.perf_counter()
        seconds = t1 - t0 - (self.paused - paused)
        self.timed_raw.append(seconds)
        self.sample()
        return result, seconds * self.factor(t0 - SPEED_EVERY_S, t1 + SPEED_EVERY_S)

    def factor(self, lo=-math.inf, hi=math.inf):
        """REFERENCE_S over the mean sample taken in [lo, hi], or over the whole run."""
        if self._cap[0] != len(self.samples):
            self._cap = (len(self.samples), OUTLIER * statistics.median(self.samples))
        cap = self._cap[1]
        near = [s for s in self.samples[bisect.bisect_left(self.at, lo):
                                        bisect.bisect_right(self.at, hi)] if s <= cap]
        if not near:
            return self.factor()
        return REFERENCE_S / statistics.mean(near)

    def scale(self, start, seconds):
        """A time measured from `start`, at the nominal speed.

        The window reaches one SPEED_EVERY_S, or the time itself if longer,
        to either side, so a short operation is scaled by the samples just
        before and after it and a long one by the speed around it.
        """
        reach = max(SPEED_EVERY_S, seconds)
        return seconds * self.factor(start - reach, start + seconds + reach)


def timed_loop(count, call, relations_of, seconds, between=None, speed=None):
    """Whole passes over operations 0..count-1 until `seconds` have passed.

    Only the calls are timed; comparing outputs between passes and the
    `between(elapsed)` hook run after each pass are not, and the hook's
    time does not count towards `seconds`.  At least MIN_OPERATIONS are
    attempted, so the 90th percentile has ten samples beyond it.  With a
    Speed, a reference sample is taken between operations every
    SPEED_EVERY_S seconds, and each operation's time is also kept scaled
    (see Speed).
    """
    times, starts = array("d"), array("d")
    first, unsteady, pass_times = [None] * count, set(), []
    fail_kinds = Counter()
    failed = relations = passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        spent = 0.0
        for i in range(count):
            t0 = time.perf_counter()
            try:
                out = call(i)
            except Exception as err:  # a raising operation is a failed one
                out = Failure(type(err).__name__)
            t1 = time.perf_counter()
            dt = t1 - t0
            times.append(dt)
            starts.append(t0)
            if speed is not None:
                speed.tick()
            spent += dt
            if isinstance(out, Failure):
                failed += 1
                fail_kinds[f"{i}:{out.kind}"] += 1
            else:
                relations += relations_of(i, out)
            if passes == 0:
                first[i] = out
            elif out != first[i]:
                unsteady.add(i)
        pass_times.append(spent)
        passes += 1
        if between is not None:
            t0 = time.perf_counter()
            between(seconds - (deadline - t0))
            deadline += time.perf_counter() - t0
        if time.perf_counter() >= deadline and len(times) >= MIN_OPERATIONS:
            break
    if speed is None:
        scaled = times
    else:
        speed.sample()
        scaled = array("d", (speed.scale(t0, dt) for t0, dt in zip(starts, times)))
    return Loop(times, scaled, passes, pass_times, first, failed, fail_kinds, relations,
                sorted(unsteady))


def end_to_end(loop, setup_s, peak_rss_kb, verify_s):
    """Times at the nominal speed (see Speed); setup_s and verify_s likewise."""
    busy = sum(loop.scaled)
    p50, p90 = _p50_p90(loop.scaled)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "ops_per_s": ((len(loop.times) - loop.failed) / busy, "1/s"),
        "op_p50_ms": (1000 * p50, "ms"),
        "op_p90_ms": (1000 * p90, "ms"),
        "relations_per_s": (loop.relations / busy, "1/s"),
        "verify_paper_s": (verify_s, "s"),
    }


def _p50_p90(values):
    deciles = statistics.quantiles(values, n=10)
    return deciles[4], deciles[8]


# ------------------------------------------------------------ child processes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tolrep_process(argv, env):
    """Run one `tolrep ARGV` process.

    Returns (seconds, exit code, stdout, stderr, peak RSS in KiB), the peak
    being that of this process alone.  The output goes to unlinked files
    rather than pipes, so the process can be reaped with wait4, which
    reports its resource use.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", BOOT, *argv], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (seconds, proc.returncode, out.read().decode(), err.read().decode(),
                usage.ru_maxrss)


class VerifyPaper:
    """Times `tolrep verify-paper` processes spread over the timed loop.

    Samples taken at evenly spaced points of the run give a steadier median
    than samples taken back to back, as the host's speed drifts.  Call it
    after each pass with the elapsed seconds.
    """

    def __init__(self, env, seconds, speed):
        self.env, self.seconds, self.speed, self.times = env, seconds, speed, []

    def __call__(self, elapsed):
        due = len(self.times) * self.seconds / VERIFY_REPEATS
        if len(self.times) < VERIFY_REPEATS and elapsed >= due:
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        dt, code, out, _err, _rss = tolrep_process(["verify-paper", "--json"], self.env)
        payload = json.loads(out)
        if code != 0 or not payload["all_passed"] or len(payload["results"]) != 12:
            raise SystemExit(f"verify-paper failed: exit {code}")
        self.times.append((t0, dt))

    def median(self):
        """Median time at the nominal speed; call after the timed loop."""
        while len(self.times) < VERIFY_REPEATS:
            self.sample()
            self.speed.sample()
        return statistics.median(self.speed.scale(t0, dt) for t0, dt in self.times)


def write_documents(docs, workdir, env, tick):
    """`tolrep corpus NAME -o FILE` for every document, calling `tick` after each."""
    for key, name in docs.items():
        _dt, code, _out, err, _rss = tolrep_process(
            ["corpus", name, "-o", doc_path(workdir, key)], env)
        if code != 0:
            raise SystemExit(f"tolrep corpus {name} failed: {err.strip()}")
        tick()


def doc_path(workdir, key):
    safe = key.replace("(", "_").replace(")", "").replace(",", "_")
    return os.path.join(workdir, f"{safe}.alg")


def cli_argvs(plan_ops, docs, workdir):
    paths = {key: doc_path(workdir, key) for key in docs}
    paths["expanded"] = os.path.join(workdir, "expanded.alg")
    return [[arg.format(**paths) if arg.startswith("{") else arg for arg in op.argv]
            for op in plan_ops]


# ------------------------------------------------------------- in-process runs


def load_package(tracer):
    """Import tolrep afresh, so each set-up pays for the import.

    The caches of the previous copy are emptied first: typing's cache of
    the `Optional[...]` and `Union[...]` the package builds keeps that copy
    alive, and its cached tables would otherwise pile up, set-up after
    set-up, in peak_rss_mb.
    """
    for name in [m for m in sys.modules if m == "tolrep" or m.startswith("tolrep.")]:
        for value in list(vars(sys.modules[name]).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        del sys.modules[name]
    tol = importlib.import_module("tolrep")
    if tracer is not None:
        tracer.install()
    return tol


@dataclass
class Prepared:
    op: instances.Op
    ref: tuple            # (n, ops) as the checkers see the algebra
    alg: object           # tolrep.Algebra
    theta: object         # tolrep.BinRel or None
    entry: object         # tolrep CorpusEntry or None


def prepare(tol, ops, tick):
    """Build every corpus entry and instance, then close once on each algebra.

    `tick` is called after each step (see Speed.timed).
    """
    entries, built, prepared = {}, {}, []
    for op in ops:
        spec = op.algebra
        if spec not in built:
            if spec.corpus:
                entries[spec.name] = tol.corpus.corpus_get(spec.name)
                built[spec] = entries[spec.name].algebra
            else:
                built[spec] = tol.Algebra(spec.n, tuple(
                    tol.OperationTable(f"f{i}", arity, table)
                    for i, (arity, table) in enumerate(spec.ops)))
        alg = built[spec]
        entry = entries.get(spec.name) if spec.corpus else None
        ref = (alg.n, [(o.arity, o.table) for o in alg.ops])
        theta = op.theta
        if isinstance(theta, str):
            theta = entry.relations[theta]
        elif isinstance(theta, frozenset):
            theta = tol.BinRel.from_pairs(alg.n, theta)
        elif theta is not None:
            theta = tol.closure(alg, theta[1], "reflexive-symmetric")
        prepared.append(Prepared(op, ref, alg, theta, entry))
        tick()
    for alg in built.values():
        tol.closure(alg, (), "reflexive")
        tick()
    return prepared


def call_op(tol, p):
    kind = p.op.kind
    if kind == "represent":
        return tol.find_representation(p.alg, p.theta)
    if kind == "weak":
        if p.op.budget:
            return tol.find_weak_representation(p.alg, p.theta, rel_budget=p.op.budget)
        return tol.find_weak_representation(p.alg, p.theta)
    if kind == "tolerances":
        return tol.enumerate_tolerances(p.alg)
    if kind == "congruences":
        return tol.enumerate_congruences(p.alg)
    return tol.enumerate_admissible(p.alg, p.op.budget)


def relations_in(kind, out):
    """Relations an operation returned: witnesses, separators or a listing."""
    if out is None:
        return 0
    if kind == "represent":
        return 1
    if kind == "weak":
        return len(out.separators)
    if kind == "admissible":
        return len(out.relations)
    return len(out)


def pairs(rel):
    return frozenset(rel.pairs())


def check_prepared(prepared, first):
    """Problems found in the set-up objects and the first pass's outputs."""
    problems = []
    seen_entries = set()
    for i, p in enumerate(prepared):
        n, ops = p.ref
        if p.entry is not None and p.entry.name not in seen_entries:
            seen_entries.add(p.entry.name)
            problems += check_entry(p.entry.name, n, ops,
                                    {k: pairs(v) for k, v in p.entry.relations.items()})
        if not p.op.algebra.corpus and sorted(ops) != sorted(p.op.algebra.ops):
            problems.append(f"op {i}: algebra tables changed in set-up")
        theta = pairs(p.theta) if p.theta is not None else None
        if isinstance(p.op.theta, tuple) and \
                theta != C.closure(n, ops, p.op.theta[1], symmetric=True):
            problems.append(f"op {i}: closure of the seed pairs is wrong")
        out = first[i]
        if isinstance(out, Failure):
            continue
        bad = check_output(p.op, n, ops, theta, out)
        if bad:
            problems.append(f"op {i} ({p.op.kind} on {p.op.algebra.name}): {bad}")
    return problems


def check_entry(name, n, ops, rels):
    ref_n, ref_ops, ref_rels = C.reference(name)
    if n != ref_n or not C.same_ops(ops, ref_ops) or rels.get("theta", rels.get("leq")) \
            != ref_rels.get("theta", ref_rels.get("leq")):
        return [f"corpus entry {name} differs from its definition"]
    return []


def check_output(op, n, ops, theta, out):
    """None when the output is right, else what is wrong with it."""
    kind = op.kind
    if kind == "represent":
        if out is not None:
            return None if C.is_representation(n, ops, theta, pairs(out.rel)) else "bad witness"
        return None if C.representation(n, ops, theta) is None else "missed a representation"
    if kind == "weak":
        if out is not None:
            seps = {pair: pairs(r) for pair, r in out.separators.items()}
            return None if C.check_separators(n, ops, theta, seps) else "bad separator family"
        try:
            return None if not C.weakly_representable(n, ops, theta) else "missed a family"
        except ValueError as err:
            return f"cannot confirm 'no': {err}"
    if kind == "admissible":
        return C.check_listing(kind, op.algebra.name, n, ops,
                               [pairs(r) for r in out.relations], op.budget, out.truncated)
    return C.check_listing(kind, op.algebra.name, n, ops, [pairs(r) for r in out], None, False)


def run_inprocess(ops, args, env):
    tracer = Tracer() if args.trace else None
    speed = Speed()
    setup_times = []
    repeats = SETUP_REPEATS[args.workload]
    for rep in range(repeats):
        def setup(tick, last=rep == repeats - 1):
            tol = load_package(tracer if last else None)
            tick()
            return tol, prepare(tol, ops, tick)

        (tol, prepared), seconds = speed.timed(setup)
        setup_times.append(seconds)
    verify = None if args.trace else VerifyPaper(env, args.seconds, speed)
    loop = timed_loop(len(prepared), lambda i: call_op(tol, prepared[i]),
                      lambda i, out: relations_in(prepared[i].op.kind, out), args.seconds, verify,
                      None if args.trace else speed)
    # before any check, so the checkers' own searches do not count
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        workload = [(0, tracer.mark())]
        counts = Counter(tracer.counts)
        overhead = tracing_overhead(tracer, [lambda p=p: call_op(tol, p) for p in prepared],
                                    args.seconds / 4)
        layers = layer_metrics(Stats(tracer, workload), counts, overhead)
    problems = check_prepared(prepared, loop.first)
    faults = {i for i, p in enumerate(prepared) if p.op.fault}
    if tracer is not None:
        layers.update(dict.fromkeys(CLI_LAYER, 0.0))  # no process is started
        layers.update(verify_probe(tol))
        return finish(args, loop, problems, faults, layers=layers, tracer=tracer)
    metrics = end_to_end(loop, statistics.median(setup_times), peak_rss_kb, verify.median())
    return finish(args, loop, problems, faults, metrics=metrics, speed=speed)


# -------------------------------------------------------------------- cli runs


class CliChecker:
    """Expected answers for the cli workload's commands, from the checkers."""

    def __init__(self, docs, terms, workdir):
        self.docs, self.terms, self.workdir = docs, terms, workdir
        self.refs = {key: C.reference(name) for key, name in docs.items()}

    def check_documents(self):
        problems = []
        for key, name in self.docs.items():
            with open(doc_path(self.workdir, key), encoding="utf-8") as handle:
                _, n, ops, rels = C.read_document(handle.read())
            ref_n, ref_ops, ref_rels = self.refs[key]
            same = n == ref_n and C.same_ops(ops, ref_ops)
            if not same or not set(ref_rels.items()) <= set(rels.items()):
                problems.append(f"document for {name} differs from its definition")
        return problems

    def _doc(self, argv):
        key = next(k for k in self.docs if doc_path(self.workdir, k) == argv[1])
        n, ops, rels = self.refs[key]
        rel = argv[argv.index("--rel") + 1] if "--rel" in argv else next(iter(rels))
        return key, n, ops, rels, rel

    def check(self, argv, code, out):
        """None when the process answered right, else what is wrong."""
        cmd = argv[0]
        payload = json.loads(out) if "--json" in argv else None
        if cmd == "check":
            _, n, ops, rels, rel = self._doc(argv)
            r = rels[rel]
            want = {"reflexive": C.is_reflexive(n, r), "symmetric": C.is_symmetric(r),
                    "transitive": C.is_transitive(r), "compatible": C.is_compatible(n, ops, r),
                    "admissible": C.is_admissible(n, ops, r),
                    "tolerance": C.is_tolerance(n, ops, r),
                    "congruence": C.is_congruence(n, ops, r)}
            got = {k: payload[k] for k in want}
            return None if code == 0 and got == want else f"flags {got}, expected {want}"
        if cmd == "represent":
            _, n, ops, rels, rel = self._doc(argv)
            if code == 0 and payload["representable"]:
                ok = C.is_representation(n, ops, rels[rel], rel_of(payload["witness"]))
                return None if ok else "bad witness"
            if code == 1 and not payload["representable"]:
                return None if C.representation(n, ops, rels[rel]) is None else "missed a witness"
            return f"exit {code}"
        if cmd == "weak-represent":
            _, n, ops, rels, rel = self._doc(argv)
            if code == 0 and payload["weakly_representable"]:
                seps = {tuple(s["pair"]): rel_of(s["rel"]) for s in payload["separators"]}
                return None if C.check_separators(n, ops, rels[rel], seps) else "bad family"
            if code == 1 and not payload["weakly_representable"]:
                return None if not C.weakly_representable(n, ops, rels[rel]) else "missed a family"
            return f"exit {code}"
        if cmd == "expand":
            with open(argv[argv.index("-o") + 1], encoding="utf-8") as handle:
                _, n, ops, rels = C.read_document(handle.read())
            ref_n, ref_ops, ref_rels = C.reference("expand_five")
            ok = code == 0 and n == ref_n and C.same_ops(ops, ref_ops) and rels == ref_rels
            return None if ok else "expansion differs from its definition"
        if cmd == "enumerate":
            key, n, ops, _, _ = self._doc(argv)
            kind = argv[argv.index("--kind") + 1]
            limit = int(argv[argv.index("--limit") + 1]) if "--limit" in argv else None
            if code != 0:
                return f"exit {code}"
            return C.check_listing(kind, self.docs[key], n, ops,
                                   [rel_of(r) for r in payload["relations"]], limit,
                                   payload["truncated"])
        if cmd == "permutable":
            _, n, ops, _, _ = self._doc(argv)
            congs = C.all_congruences(n, ops)
            permute = all(C.compose(a, b) == C.compose(b, a) for a in congs for b in congs)
            if permute:
                return None if code == 0 and payload["permutable"] else f"exit {code}"
            if code != 1 or payload["permutable"]:
                return f"exit {code}"
            ce = payload["counterexample"]
            alpha, beta, pair = rel_of(ce["alpha"]), rel_of(ce["beta"]), tuple(ce["pair"])
            ok = alpha in congs and beta in congs and pair in C.compose(alpha, beta) \
                and pair not in C.compose(beta, alpha)
            return None if ok else "bad counterexample"
        if cmd == "term-eval":
            _, n, _, rels, _ = self._doc(argv)
            env = {}
            for i, word in enumerate(argv):
                if word == "--bind":
                    var, name = argv[i + 1].split("=")
                    env[var] = rels[name]
            if "--square" in argv:
                env = {k: C.compose(v, v) for k, v in env.items()}
            want = C.eval_term(self.terms[argv[argv.index("--term") + 1]], env)
            return None if code == 0 and rel_of(payload["result"]) == want else "wrong value"
        if cmd == "term-regular":
            want = C.is_regular(self.terms[argv[argv.index("--term") + 1]])
            ok = code == (0 if want else 1) and payload["regular"] == want
            return None if ok else f"exit {code}, regular is {want}"
        if cmd == "corpus":
            text = payload["document"] if payload else out
            _, n, ops, rels = C.read_document(text)
            ref_n, ref_ops, ref_rels = C.reference(argv[1])
            ok = code == 0 and n == ref_n and C.same_ops(ops, ref_ops) and rels == ref_rels
            return None if ok else "document differs from its definition"
        return f"no check for {cmd}"


def rel_of(payload):
    return frozenset(tuple(p) for p in payload["pairs"])


def relations_in_output(argv, out):
    """Relations a command printed: witnesses, separators, listings, counterexamples."""
    if "--json" not in argv:
        return 0
    try:
        payload = json.loads(out)
    except ValueError:
        return 0  # reported by the output check
    if payload.get("witness"):
        return 1
    return (len(payload.get("separators") or ()) + len(payload.get("relations") or ())
            + 2 * bool(payload.get("counterexample")) + bool(payload.get("result")))


def run_cli(args, env):
    docs, plan_ops, terms = instances.cli_plan(args.seed)
    workdir = os.path.join(OUT, f"docs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        speed = Speed()
        setup_times = [speed.timed(lambda tick: write_documents(docs, workdir, env, tick))[1]
                       for _ in range(SETUP_REPEATS["cli"])]
        argvs = cli_argvs(plan_ops, docs, workdir)
        peak_rss_kb = 0  # of the workload's commands only

        def call(i):
            nonlocal peak_rss_kb
            _dt, code, out, err, rss = tolrep_process(argvs[i], env)
            peak_rss_kb = max(peak_rss_kb, rss)
            if "Traceback" in err:
                return Failure(err.strip().splitlines()[-1].split(":")[0])
            if code == 3:
                return Failure("BudgetExceeded")
            return code, out

        verify = None if args.trace else VerifyPaper(env, args.seconds, speed)
        loop = timed_loop(len(argvs), call,
                          lambda i, res: relations_in_output(argvs[i], res[1]), args.seconds,
                          verify, None if args.trace else speed)
        checker = CliChecker(docs, terms, workdir)
        problems = checker.check_documents()
        for i, res in enumerate(loop.first):
            if not isinstance(res, Failure):
                try:
                    bad = checker.check(argvs[i], *res)
                except (ValueError, KeyError, TypeError) as err:
                    bad = f"unreadable output ({err!r})"
                if bad:
                    problems.append(f"op {i} ({' '.join(plan_ops[i].argv[:2])}): {bad}")
        faults = {i for i, op in enumerate(plan_ops) if op.fault}
        if args.trace:
            tracer = Tracer()
            tol = load_package(None)
            ok = [loop.times[i] for i in range(len(loop.times))
                  if i % len(argvs) not in faults]
            layers = cli_probe(tol, tracer, [a for i, a in enumerate(argvs) if i not in faults],
                               env, statistics.median(ok), args.seconds / 4)
            layers.update(verify_probe(tol))
            return finish(args, loop, problems, faults, layers=layers, tracer=tracer)
        metrics = end_to_end(loop, statistics.median(setup_times), peak_rss_kb,
                             verify.median())
        return finish(args, loop, problems, faults, metrics=metrics, speed=speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------- layer probes


def tracing_overhead(tracer, calls, seconds):
    """Extra time of a traced call over an untraced one, as a share of it.

    Passes over `calls` for `seconds`; each call runs untraced and then
    traced, one right after the other, so both see the same host speed,
    which flips too often for whole passes to be compared.  The overhead is
    the summed traced time over the summed untraced time, minus one.
    Leaves the tracer uninstalled.
    """
    def seconds_of(call):
        t0 = time.perf_counter()
        with contextlib.suppress(Exception):  # the known faults raise
            call()
        return time.perf_counter() - t0

    plain = traced = 0.0
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        for call in calls:
            tracer.uninstall()
            plain += seconds_of(call)
            tracer.install()
            traced += seconds_of(call)
    tracer.uninstall()
    return traced / plain - 1


def layer_metrics(stats, counts, overhead):
    """Per-layer metrics from the spans of the workload's own operations."""
    grows = [f"algebras.grow.{a}" for a in ARITY_NAMES]
    closures = grows + ["algebras.closure"]
    enum_owned = sum(v for (name, owner), v in stats.by_owner.items()
                     if name in closures and owner.startswith("decide.enum."))
    nodes = sum(stats.by_owner[(g, "decide.search")] for g in grows)
    searches = stats.calls["decide.search"]
    m = {
        "relations.compose.calls": stats.calls["relations.compose"],
        "relations.compose.us_per_call": stats.us_per_call("relations.compose"),
        "relations.converse.calls": stats.calls["relations.converse"],
        "relations.converse.us_per_call": stats.us_per_call("relations.converse"),
        "relations.self_s": stats.self_of("relations."),
        "algebras.closure.calls": stats.calls["algebras.closure"],
        "algebras.closure.us_per_call": stats.us_per_call("algebras.closure"),
        "algebras.grow.calls": stats.calls_of("algebras.grow."),
        **{f"algebras.grow.us_per_call.{g.rsplit('.', 1)[1]}": stats.us_per_call(g) for g in grows},
        "algebras.is_compatible.calls": stats.calls["algebras.is_compatible"],
        "algebras.is_compatible.us_per_call": stats.us_per_call("algebras.is_compatible"),
        "algebras.square_tables_s": stats.incl["algebras.square_tables"],
        "algebras.self_s": stats.self_of("algebras."),
        "decide.search.nodes": nodes,
        "decide.search.nodes_per_decision": nodes / searches if searches else 0.0,
        "decide.search.self_s": stats.self_s["decide.search"],
        "decide.weak.relations_scanned": counts["decide.iter_admissible@decide.weak"],
        "decide.weak.self_s": stats.self_s["decide.weak"],
        "decide.enum.closures": enum_owned,
        "decide.enum.relations_per_closure":
            counts["decide.enum.relations"] / enum_owned if enum_owned else 0.0,
        "decide.enum.self_s": stats.self_of("decide.enum."),
        "decide.congruence_close.calls": stats.calls["decide.congruence_close"],
        "decide.congruence_close.us_per_call": stats.us_per_call("decide.congruence_close"),
        "corpus.get_s": stats.incl["corpus.get"],
        "trace.overhead_pct": 100 * overhead,
    }
    return m


def layer_units():
    """Unit of each per-layer metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


CLI_LAYER = ("terms.parse.us_per_call", "terms.eval.us_per_call", "terms.graph.us_per_call",
             "cli.start_ms", "cli.interpreter_ms", "cli.process_ms", "cli.run_ms",
             "cli.parse_document_ms")


def cli_probe(tol, tracer, argvs, env, process_ms, seconds):
    """Per-layer metrics of the cli workload: its commands run in-process.

    A traced replay of `argvs` through `cli.run` supplies the layer
    metrics of layer_metrics and terms.*; cli.* adds the start-up of bare
    and import-only processes and `process_ms`, the median seconds of a
    command's process in the timed loop.  The tracing overhead is measured
    over `seconds`.
    """
    starts, bare = [], []
    for _ in range(START_REPEATS):
        for cmd, out in (("import tolrep.cli", starts), ("pass", bare)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", cmd], env=env, cwd=ROOT,
                           check=True, timeout=PROCESS_TIMEOUT_S)
            out.append(time.perf_counter() - t0)

    def replay():
        times = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for a in argvs:
                t0 = time.perf_counter()
                tol.cli.run(list(a))
                times.append(time.perf_counter() - t0)
        return times

    plain = replay()
    tracer.install()
    replay()
    tracer.uninstall()
    stats = Stats(tracer, [(0, tracer.mark())])
    counts = Counter(tracer.counts)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        overhead = tracing_overhead(tracer, [lambda a=a: tol.cli.run(list(a)) for a in argvs],
                                    seconds)
    m = layer_metrics(stats, counts, overhead)
    values = (stats.us_per_call("terms.parse"), stats.us_per_call("terms.eval"),
              stats.us_per_call("terms.graph"), 1000 * statistics.median(starts),
              1000 * statistics.median(bare), 1000 * process_ms,
              1000 * statistics.median(plain), stats.us_per_call("cli.parse_document") / 1000)
    m.update(zip(CLI_LAYER, values))
    return m


def verify_probe(tol):
    """Seconds of each verify-paper check, run in-process without tracing."""
    verify = importlib.import_module("tolrep.verify")
    out = {}
    for check in verify.CHECKS:
        t0 = time.perf_counter()
        result = check()
        out[f"verify.{result.name}_s"] = time.perf_counter() - t0
        if not result.passed:
            raise SystemExit(f"verify check {result.name} failed: {result.detail}")
    return out


# ----------------------------------------------------------------------- output


def unexpected_failures(loop, faults):
    """Problem lines for operations that failed but are not known faults.

    Every failure is printed to standard error; one outside `faults` (the
    indices of the known faults in a pass) makes the run incorrect.
    """
    problems = []
    for key, times in sorted(loop.fail_kinds.items()):
        known = int(key.split(":")[0]) in faults
        print(f"failed x{times}: op {key} ({'known fault' if known else 'UNEXPECTED'})",
              file=sys.stderr)
        if not known:
            problems.append(f"op {key}: failed {times} times")
    return problems


def finish(args, loop, problems, faults, metrics=None, layers=None, tracer=None, speed=None):
    count = len(loop.first)
    for i in loop.unsteady:
        problems.append(f"op {i}: output changed between passes")
    problems += unexpected_failures(loop, faults)
    for line in problems:
        print(f"WRONG: {line}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}")
    if metrics is not None:
        values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        units = layer_units()
        values = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        tracer.write(stem + ".spans")
    result = {"correct": not problems, "attempted": len(loop.times), "failed": loop.failed,
              "metrics": values}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({**result, "passes": loop.passes, "operations_per_pass": count,
                   "pass_seconds": loop.pass_times,
                   "raw_op_seconds_total": sum(loop.times),
                   "reference_seconds": list(speed.samples) if speed else None,
                   "raw_setup_seconds": speed.timed_raw if speed else None,
                   "problems": problems, "failures": dict(loop.fail_kinds)}, handle, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="tolrep benchmark")
    parser.add_argument("--workload", required=True, choices=("represent", "enumerate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tolrep", "__init__.py")):
        print(f"error: no tolrep sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One CPU for this process and every process it starts, so that the
    # reference samples see the speed of the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # verify-paper writes documents to a temporary directory; keep it in the checkout
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = os.environ["TMPDIR"] = tmp
    env = child_env()
    try:
        if args.workload == "cli":
            result = run_cli(args, env)
        else:
            ops = (instances.represent_ops if args.workload == "represent"
                   else instances.enumerate_ops)(args.seed)
            result = run_inprocess(ops, args, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
