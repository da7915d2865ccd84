"""Runs one workload plan and derives its metrics.

A plan (built in `workloads.py`) is plain data: documents, queries with
their expected answers, and how the run's seconds are shared between
phases.  The runner times calls into conseq's public functions from the
outside; it adds nothing inside the package.

The end-to-end metrics are medians of untraced samples, each scaled to the
nominal speed of a fixed reference loop (`Reference`) that is measured
before, during and after every sample.  On a shared host the interpreter's
speed swings by 1.5x and more for seconds at a time; the loop swings with
it, and the scaled times do not.

With tracing on, every public call goes through `Tracer.wrap`, which keeps
a span (name, start, end, parent) in memory; each timed round then runs
twice, untraced and traced, so the tracing overhead is measured on the
same inputs.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checks
from checks import Mismatch
from inputs import Doc

CLI_SNIPPET = "import sys; from conseq.cli import main; sys.exit(main(sys.argv[1:]))"
CLI_TIMEOUT_S = 120
CYCLES = 3
TURN_S = 1.0  # timed seconds per turn of a phase, after one gc.collect()
perf_counter = time.perf_counter


# -- reference loop ------------------------------------------------------------

REF_UNIT_S = 150e-6  # nominal time of one `_ref_unit`: about its time on a Xeon VM, Python 3.11
REF_UNITS = 8  # units per measurement of the loop's speed
REF_TICK_S = 0.02  # while a sample runs, one measurement every REF_TICK_S
REF_WINDOW_S = 0.5  # a sample is scaled by the measurements this close to it


class _Node:
    """Hashes and compares in Python code, like conseq's frozen dataclasses."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: int) -> None:
        self.name, self.kind = name, kind

    def __hash__(self) -> int:
        return hash((self.name, self.kind))

    def __eq__(self, other) -> bool:
        return self.name == other.name and self.kind == other.kind


_REF_WORDS = " ".join(f"w{i}" for i in range(64))


def _ref_unit() -> int:
    """A fixed unit of the interpreter work conseq does: split strings, build
    dicts and sets of tuples and objects, look them up, add integers.  It
    keeps no object, so it sets off no garbage collection."""
    seen = {}
    for k, w in enumerate(_REF_WORDS.split()):
        seen[(w, k & 7)] = k
    nodes = {_Node(w, k & 3) for w, k in seen}
    found = {n.name for n in nodes if n in nodes}
    total = 0
    for i in range(400):
        total += (i * i) & 255
    return len(found) + total


class Reference:
    """Measures the machine's speed with the reference loop around samples.

    The loop's speed is measured right before and right after a sample and,
    from a SIGALRM handler, every REF_TICK_S while the sample runs (a long
    sample, such as a CLI subprocess or a 16-symbol table, outlasts the
    machine's speed swings).  The handler's own time is taken out of the
    sample.  `nominal` scales a sample by REF_UNIT_S over the median unit
    time measured within REF_WINDOW_S of it: the sample's time at the
    loop's nominal speed.  The speed swings last seconds, so the window
    follows them, and its dozens of measurements average out the noise of
    each one.
    """

    def __init__(self) -> None:
        self.times: list[float] = []  # when each measurement ended
        self.units: list[float] = []  # its time per unit
        self._in_ticks = 0.0

    def _measure(self) -> float:
        t0 = perf_counter()
        for _ in range(REF_UNITS):
            _ref_unit()
        t1 = perf_counter()
        self.times.append(t1)
        self.units.append((t1 - t0) / REF_UNITS)
        return t1 - t0

    def _tick(self, signum, frame) -> None:
        self._in_ticks += self._measure()

    def time(self, fn: Callable, *args):
        """(fn's result, its time, its start, its end)."""
        self._measure()
        self._in_ticks = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_TICK_S, REF_TICK_S)
        try:
            t0 = perf_counter()
            out = fn(*args)
            t1 = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        dt = t1 - t0 - self._in_ticks
        self._measure()
        return out, dt, t0, t1

    def nominal(self, dt: float, t0: float, t1: float) -> float:
        """A sample's time `dt`, taken from t0 to t1, at nominal speed."""
        lo = bisect.bisect_left(self.times, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + REF_WINDOW_S)
        return dt * REF_UNIT_S / statistics.median(self.units[lo:hi])


def _raw_time(fn: Callable, *args):
    t0 = perf_counter()
    out = fn(*args)
    t1 = perf_counter()
    return out, t1 - t0, t0, t1


# -- spans ---------------------------------------------------------------------

class Tracer:
    """In-memory spans: `spans[i] = (name, start, end, parent index)`.

    A span's layer is its name up to the first dot; `bench.*` spans are the
    benchmark's own phases and samples.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float | None, int | None]] = []
        self._open: list[int | None] = [None]

    def _begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((name, perf_counter(), None, self._open[-1]))
        self._open.append(sid)
        return sid

    def _end(self, sid: int) -> None:
        end = perf_counter()
        self._open.pop()
        name, start, _, parent = self.spans[sid]
        self.spans[sid] = (name, start, end, parent)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args):
            sid = self._begin(name)
            try:
                return fn(*args)
            finally:
                self._end(sid)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)

    def durations(self, *names: str) -> list[float]:
        return [e - s for n, s, e, _ in self.spans if n in names]

    def sample_sums(self, name: str, sample: str) -> list[float]:
        """Per span called `sample`, the summed duration of its `name` children."""
        sums = {i: 0.0 for i, sp in enumerate(self.spans) if sp[0] == sample}
        for n, s, e, parent in self.spans:
            if n == name and parent in sums:
                sums[parent] += e - s
        return list(sums.values())

    def self_times(self) -> dict[str, float]:
        """Per layer, span time not covered by child spans."""
        covered = [0.0] * len(self.spans)
        for _, s, e, parent in self.spans:
            if parent is not None:
                covered[parent] += e - s
        out: dict[str, float] = {}
        for (name, s, e, _), c in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (e - s - c)
        return out


def _index_build(system):
    """First touch of the premise index and counts that `close` reads."""
    return system.premise_index, system.premise_counts


def _shape(system):
    """First touch of the memoized shape recognizers."""
    return system.ternary_shape, system.binary_shape


def make_api(tracer: Tracer | None) -> SimpleNamespace:
    """conseq's public calls, each wrapped in a span when tracing."""
    from conseq import cli, closure, fileformat, influence, laws, model

    calls = {
        "parse_system": ("fileformat.parse_system", fileformat.parse_system),
        "render_system": ("fileformat.render_system", fileformat.render_system),
        "render_set": ("fileformat.render_set", fileformat.render_set),
        "parse_set": ("fileformat.parse_set", fileformat.parse_set),
        "make_language": ("model.make_language", model.make_language),
        "make_system": ("model.make_system", model.make_system),
        "index_build": ("model.index_build", _index_build),
        "shape": ("model.shape", _shape),
        "close": ("closure.close", closure.close),
        "closed_form_ternary": ("closure.closed_form_ternary", closure.closed_form_ternary),
        "closed_form_binary": ("closure.closed_form_binary", closure.closed_form_binary),
        "tabulate": ("laws.tabulate", laws.tabulate),
        "check_axioms": ("laws.check_axioms", laws.check_axioms),
        "verify": ("laws.verify_closed_form_characterization", laws.verify_closed_form_characterization),
        "weight_ternary": ("influence.weight_ternary", influence.weight_ternary),
        "weight_binary": ("influence.weight_binary", influence.weight_binary),
        "cli_main": ("cli.main", cli.main),
    }
    return SimpleNamespace(
        **{k: tracer.wrap(name, fn) if tracer else fn for k, (name, fn) in calls.items()}
    )


# -- plans ---------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """A closure query on `docs[doc]` and its independently computed answer.

    `form` names the one-pass form the fast-path phase calls: "ternary",
    "binary", "refuse" (the form must refuse, so the answer comes from
    `close`), or None when the fast-path phase skips the query.
    """

    doc: int
    names: frozenset[str]
    expected: frozenset[str]
    form: str | None


@dataclass(frozen=True)
class Influence:
    doc: int
    premise: str | None  # anchor for weight_ternary; None means weight_binary
    conclusion: str
    expected: int


@dataclass(frozen=True)
class CliCall:
    doc: int
    args: tuple[str, ...]  # after the subcommand's file argument
    command: str
    check: Callable[[list[dict]], None]


@dataclass
class Plan:
    docs: list[Doc]
    queries: list[Query]
    influence: list[Influence]
    check: list[int]  # docs whose tables are checked, cycling, table_batch per round
    verify: list[int]  # docs verified, cycling, table_batch per round
    verify_refused: list[int]  # docs on which verify must refuse (negative control)
    masks: list[int]  # table entries compared with the bitmask fixpoint
    cli: list[CliCall]  # one CLI sample per cycle runs each call once, in order
    shares: dict[str, float]  # phase -> share of the run's seconds
    setup_reps: int  # set-up samples per cycle
    table_batch: int = 1  # verdicts per check or verify round
    cli_reps: int = 1  # CLI samples per cycle


# -- running -------------------------------------------------------------------

class Failed:
    """An operation that raised; counted in `failed`, never checked."""

    def __init__(self, error: BaseException) -> None:
        self.error = error


def attempt(fn: Callable, *args):
    try:
        return fn(*args)
    except Exception as error:  # the run must go on and report the failure
        return Failed(error)


def _names(result) -> frozenset[str]:
    return frozenset(s.name for s in result)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; with fewer than 100/(100-q) values it is the
    maximum, not a tail."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))]


class Runner:
    def __init__(self, root: Path, out_dir: Path, plan: Plan, seconds: float, trace: bool) -> None:
        from conseq.errors import PreconditionViolated

        self.root, self.out_dir, self.plan, self.seconds = root, out_dir, plan, seconds
        self.refusal = PreconditionViolated
        self.tracer = Tracer() if trace else None
        self.plain = make_api(None)
        self.traced = make_api(self.tracer) if trace else None
        self.ref = Reference()
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.counts: dict[str, float] = {}
        # (operations, seconds, start, end); see Reference.time
        self.rounds: dict[tuple[str, bool], list[tuple[int, float, float, float]]] = defaultdict(list)
        # (seconds, start, end)
        self.samples: dict[str, list[tuple[float, float, float]]] = defaultdict(list)

    # bookkeeping

    def _span(self, name: str, api=None):
        if self.tracer is None or (api is not None and api is not self.traced):
            return contextlib.nullcontext()
        return self.tracer.span(f"bench.{name}")

    def _tally(self, outputs: list) -> None:
        self.attempted += len(outputs)
        for out in outputs:
            if isinstance(out, Failed):
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"failed: {type(out.error).__name__}: {out.error}")

    def _check(self, fn: Callable, *args) -> None:
        try:
            fn(*args)
        except Mismatch as m:
            if len(self.errors) < 5:
                self.errors.append(f"wrong: {m}")
            self.counts["mismatches"] = self.counts.get("mismatches", 0) + 1

    @property
    def correct(self) -> bool:
        return not self.counts.get("mismatches")

    @property
    def systems(self) -> list:
        return [getattr(p, "system", None) for p in self.parsed]

    def run(self) -> None:
        """Set-up samples, timed turns and CLI samples, in CYCLES cycles.

        On a shared machine, speed changes for seconds at a time; taking
        every metric's samples in each cycle keeps a slow spell from
        landing on one metric only.
        """
        phases = {
            "close": (self.close_round, self.check_close),
            "fastpath": (self.fastpath_round, self.check_fastpath),
            "influence": (self.influence_round, self.check_influence),
            "check": (self.check_round, self.check_tables),
            "verify": (self.verify_round, self.check_verify),
        }
        spent = dict.fromkeys(phases, 0.0)
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            paths = self._write_cli_docs(Path(tmp))
            for cycle in range(CYCLES):
                self.setup()
                self.prepare()
                if cycle == 0:
                    if self.tracer:
                        self.make_systems()
                    for run_round, check_round in phases.values():
                        warm, *_ = self.ref.time(run_round, self.plain, 0)
                        self._tally(warm)
                        check_round(0, warm)
                self.timed(self.seconds / CYCLES, phases, spent)
                self.cli(paths)
        self.refused_verify()
        if self.tracer:
            self.render()

    # set-up: bytes to warm systems

    def _warm(self, api, text: bytes):
        doc = api.parse_system(text)
        api.index_build(doc.system)
        api.shape(doc.system)
        return doc

    def _warm_all(self, api) -> list:
        return [attempt(self._warm, api, d.text) for d in self.plan.docs]

    def setup(self) -> None:
        """`setup_reps` samples; the last one's systems answer the queries."""
        api, timer = (self.traced, _raw_time) if self.tracer else (self.plain, self.ref.time)
        for _ in range(self.plan.setup_reps):
            self.parsed = None
            gc.collect()
            with self._span("setup"):
                parsed, *sample = timer(self._warm_all, api)
            self.samples["setup"].append(sample)
            self._tally(parsed)
            for doc, got in zip(self.plan.docs, parsed):
                if not isinstance(got, Failed):
                    self._check(self._check_parsed, doc, got)
            self.parsed = parsed
        self.counts["bytes_parsed"] = sum(len(d.text) for d in self.plan.docs)

    @staticmethod
    def _check_parsed(doc: Doc, got) -> None:
        checks.expect(len(got.system) == len(set(doc.rules)), "parsed rule count")
        names = {s.name for s in got.language.symbols}
        checks.expect(names == set(doc.symbols), "parsed symbol names")

    def make_systems(self) -> None:
        """The same systems built from tuples (traced runs only)."""
        api = self.traced
        with self._span("make_system"):
            built = [
                attempt(lambda d: api.make_system(api.make_language(d.standard, d.nonstandard), d.rules), d)
                for d in self.plan.docs
            ]
        self._tally(built)
        for got, system in zip(built, self.systems):
            if not isinstance(got, Failed) and system is not None:
                self._check(checks.expect, got == system, "make_system differs from the parsed system")

    def prepare(self) -> None:
        """Resolve query names to the symbols of the current set-up, as a
        user of the parsed documents would.  Symbols from an earlier set-up
        are equal but not identical, so every set lookup would fall back
        to the dataclass `__eq__` and run about twice as slow."""
        langs = [p.language for p in self.parsed]
        self.inputs = [frozenset(langs[q.doc].resolve(n) for n in q.names) for q in self.plan.queries]
        self.onepass = [i for i, q in enumerate(self.plan.queries) if q.form]
        self.influence_args = [
            (w.doc, None if w.premise is None else langs[w.doc].resolve(w.premise), langs[w.doc].resolve(w.conclusion))
            for w in self.plan.influence
        ]

    # timed rounds

    def timed(self, budget: float, phases: dict, spent: dict[str, float]) -> None:
        """Turns of whole rounds for `budget` seconds.  Each turn goes to the
        phase furthest behind its share (every phase at least once), starts
        with `gc.collect()` and runs rounds until TURN_S of them are timed;
        each round's outputs are checked after its timer stops."""
        start = perf_counter()
        ran: set[str] = set()
        apis = (self.plain, self.traced) if self.tracer else (self.plain,)
        while len(ran) < len(phases) or perf_counter() - start < budget:
            name = min(phases, key=lambda p: (p in ran, spent[p] / self.plan.shares[p]))
            run_round, check_round = phases[name]
            began = perf_counter()
            gc.collect()
            timed = 0.0
            while timed < min(TURN_S, budget):
                k = len(self.rounds[(name, False)])
                for api in apis:
                    timer = self.ref.time if api is self.plain else _raw_time
                    with self._span(name, api):
                        out, dt, t0, t1 = timer(run_round, api, k)
                    self._tally(out)
                    check_round(k, out)
                    self.rounds[(name, api is self.traced)].append((len(out), dt, t0, t1))
                    timed += dt
            spent[name] += perf_counter() - began
            ran.add(name)

    def close_round(self, api, k):
        close, systems = api.close, self.systems
        return [attempt(close, systems[q.doc], x) for q, x in zip(self.plan.queries, self.inputs)]

    def check_close(self, k, outputs) -> None:
        derived = 0
        for q, x, got in zip(self.plan.queries, self.inputs, outputs):
            if not isinstance(got, Failed):
                self._check(checks.check_closure, _names(got), q.expected, "close")
                derived += len(got) - len(x)
        self.counts["symbols_derived"] = derived

    def _onepass(self, api, form: str, system, x):
        fn = api.closed_form_ternary if form == "ternary" else api.closed_form_binary
        try:
            return fn(system, x), False
        except self.refusal:
            return api.close(system, x), True

    def fastpath_round(self, api, k):
        queries, systems, inputs = self.plan.queries, self.systems, self.inputs
        return [
            attempt(self._onepass, api, queries[i].form, systems[queries[i].doc], inputs[i])
            for i in self.onepass
        ]

    def check_fastpath(self, k, outputs) -> None:
        refused = 0
        for i, got in zip(self.onepass, outputs):
            if isinstance(got, Failed):
                continue
            q = self.plan.queries[i]
            result, was_refused = got
            refused += was_refused
            self._check(checks.expect, was_refused == (q.form == "refuse"),
                        f"one-pass form refused={was_refused} on a {q.form} query")
            self._check(checks.check_closure, _names(result), q.expected, "one-pass form")
        self.counts["fastpath_refused"] = refused

    def influence_round(self, api, k):
        wt, wb, systems = api.weight_ternary, api.weight_binary, self.systems
        return [
            attempt(wb, systems[d], b) if a is None else attempt(wt, systems[d], a, b)
            for d, a, b in self.influence_args
        ]

    def check_influence(self, k, outputs) -> None:
        matched = 0
        for w, got in zip(self.plan.influence, outputs):
            if not isinstance(got, Failed):
                self._check(checks.expect, got.multiplicity == w.expected,
                            f"influence of {w.conclusion}: {got.multiplicity}, want {w.expected}")
                matched += got.multiplicity
        self.counts["rules_matched"] = matched

    def _verdict(self, api, system, universe):
        table = api.tabulate(system, universe)
        return table, api.check_axioms(table)

    def _round_docs(self, docs: list[int], k: int) -> list[int]:
        """Round k's share of a cycling document list, `table_batch` at a time."""
        b = self.plan.table_batch
        return [docs[(k * b + j) % len(docs)] for j in range(b)]

    def check_round(self, api, k):
        return [
            attempt(self._verdict, api, self.systems[d], self.parsed[d].language.symbols)
            for d in self._round_docs(self.plan.check, k)
        ]

    def check_tables(self, k, outputs) -> None:
        for d, out in zip(self._round_docs(self.plan.check, k), outputs):
            if not isinstance(out, Failed):
                self._check(self._check_table, self.plan.docs[d], *out)

    def _check_table(self, doc: Doc, table, report) -> None:
        universe = sorted(doc.symbols)
        checks.expect([s.name for s in table.universe] == universe, "table universe order")
        masks = checks.rule_masks(list(doc.rules), universe)
        full = (1 << len(universe)) - 1
        for m in self.plan.masks:
            m &= full
            want = checks.mask_fixpoint(masks, m)
            checks.expect(table.images[m] == want, f"table entry {m:#x}: {table.images[m]:#x}, want {want:#x}")
        checks.check_laws([(r.law, r.passed, r.checked) for r in report], len(universe))
        self.counts["subsets"] = len(table.images)

    def verify_round(self, api, k):
        return [attempt(api.verify, self.systems[d]) for d in self._round_docs(self.plan.verify, k)]

    def check_verify(self, k, outputs) -> None:
        for d, report in zip(self._round_docs(self.plan.verify, k), outputs):
            if not isinstance(report, Failed):
                doc = self.plan.docs[d]
                rows = [(r.law, r.passed, r.checked) for r in report]
                self._check(checks.check_verify, rows, len(doc.symbols), len(set(doc.rules)))
                self.counts["checks"] = sum(r.checked for r in report)

    def refused_verify(self) -> None:
        """Negative control: verify must refuse a chaining system."""
        for d in self.plan.verify_refused:
            out = attempt(self.plain.verify, self.systems[d])
            if isinstance(out, Failed) and isinstance(out.error, self.refusal):
                self._tally([None])
            else:
                self._tally([out])
                self._check(checks.expect, isinstance(out, Failed), "verify accepted a chaining system")

    # render (traced runs only): the text layer the CLI pays for

    def render(self) -> None:
        api = self.traced
        with self._span("render"):
            texts = [attempt(api.render_system, s) for s in self.systems]
        self._tally(texts)
        for doc, text in zip(self.plan.docs, texts):
            if not isinstance(text, Failed):
                want = checks.canonical_text(doc.standard, doc.nonstandard, list(doc.rules))
                self._check(checks.expect, text == want, "render_system is not the canonical text")
        results = [self.plain.close(self.systems[q.doc], x) for q, x in zip(self.plan.queries, self.inputs)]
        with self._span("render"):
            rendered = [attempt(api.render_set, r) for r in results]
        self._tally(rendered)
        with self._span("render"):
            back = [
                attempt(api.parse_set, text, self.parsed[q.doc].language)
                for q, text in zip(self.plan.queries, rendered)
            ]
        self._tally(back)
        for q, r, text, again in zip(self.plan.queries, results, rendered, back):
            if not isinstance(again, Failed):
                nonstandard = set(self.plan.docs[q.doc].nonstandard)
                self._check(checks.expect, text == checks.set_text(q.expected, nonstandard), "render_set text")
                self._check(checks.expect, again == r, "parse_set(render_set(x)) != x")

    # CLI

    def _write_cli_docs(self, tmp: Path) -> dict[int, str]:
        paths = {}
        for call in self.plan.cli:
            path = tmp / f"doc{call.doc}.lgs"
            path.write_bytes(self.plan.docs[call.doc].text)
            paths[call.doc] = str(path)
        return paths

    def _subprocess(self, argv: list[str]) -> str:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env,
            cwd=self.root, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def _main(self, argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.traced.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        return out.getvalue()

    def _cli_call(self, fn: Callable, argv: list[str], check: Callable | None) -> None:
        stdout = attempt(fn, argv)
        self._tally([stdout])
        if check is not None and not isinstance(stdout, Failed):
            self._check(check, checks.parse_records(stdout))

    def cli(self, paths: dict[int, str]) -> None:
        """`cli_reps` CLI samples: each call of the plan as a `conseq`
        subprocess, one at a time.  Traced runs instead time an import-only
        subprocess (start-up) and `cli.main` in-process with the same argv."""
        argvs = [[c.command, paths[c.doc], *c.args, "--output", "records"] for c in self.plan.cli]
        for _ in range(self.plan.cli_reps):
            if self.tracer:
                with self.tracer.span("cli.startup"):
                    self._cli_call(self._subprocess, ["-c", "import conseq.cli"], None)
                gc.collect()
                with self._span("cli"):
                    for call, argv in zip(self.plan.cli, argvs):
                        self._cli_call(self._main, argv, call.check)
                continue
            _, *sample = self.ref.time(self._cli_sample, argvs)
            self.samples["cli"].append(sample)

    def _cli_sample(self, argvs: list[list[str]]) -> None:
        for call, argv in zip(self.plan.cli, argvs):
            self._cli_call(self._subprocess, ["-c", CLI_SNIPPET, *argv], call.check)

    # metrics: end-to-end ones are medians of samples at nominal speed

    def _op_times(self, phase: str) -> list[float]:
        """Per untraced round, the time per operation."""
        return [self.ref.nominal(dt, t0, t1) / n for n, dt, t0, t1 in self.rounds[(phase, False)]]

    def _rate(self, phase: str) -> float:
        """Median over untraced rounds of operations per second."""
        return statistics.median([1 / t for t in self._op_times(phase)])

    def _op_time(self, phase: str) -> float:
        """Median over untraced rounds of the time per operation."""
        return statistics.median(self._op_times(phase))

    def _sample_time(self, kind: str) -> float:
        return statistics.median([self.ref.nominal(*sample) for sample in self.samples[kind]])

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "setup_s": (self._sample_time("setup"), "s"),
            "close_qps": (self._rate("close"), "1/s"),
            "fastpath_qps": (self._rate("fastpath"), "1/s"),
            "influence_qps": (self._rate("influence"), "1/s"),
            "check_s": (self._op_time("check"), "s"),
            "verify_s": (self._op_time("verify"), "s"),
            "cli_s": (self._sample_time("cli"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        t = self.tracer
        ms = 1e3
        fast = t.durations("closure.closed_form_ternary", "closure.closed_form_binary")
        close = t.durations("closure.close")
        weights = t.durations("influence.weight_ternary", "influence.weight_binary")
        self_s = t.self_times()
        traced = sum(r[1] for key, rounds in self.rounds.items() if key[1] for r in rounds)
        plain = sum(r[1] for key, rounds in self.rounds.items() if not key[1] for r in rounds)
        out = {
            "fileformat.parse_s": (statistics.median(t.sample_sums("fileformat.parse_system", "bench.setup")), "s"),
            "fileformat.bytes_parsed": (self.counts["bytes_parsed"], "bytes"),
            "fileformat.render_system_s": (sum(t.durations("fileformat.render_system")), "s"),
            "fileformat.render_set_s": (sum(t.durations("fileformat.render_set")), "s"),
            "fileformat.parse_set_s": (sum(t.durations("fileformat.parse_set")), "s"),
            "model.make_system_s": (sum(t.durations("model.make_language", "model.make_system")), "s"),
            "model.index_build_s": (statistics.median(t.sample_sums("model.index_build", "bench.setup")), "s"),
            "model.shape_s": (statistics.median(t.sample_sums("model.shape", "bench.setup")), "s"),
            "model.rules": (sum(len(s) for s in self.systems), "count"),
            "closure.close_p50_ms": (statistics.median(close) * ms, "ms"),
            "closure.close_p99_ms": (_percentile(close, 99) * ms, "ms"),
            "closure.symbols_derived": (self.counts["symbols_derived"], "count"),
            "closure.fastpath_p50_ms": (statistics.median(fast) * ms, "ms"),
            "closure.fastpath_refused": (self.counts["fastpath_refused"], "count"),
            "laws.tabulate_s": (statistics.median(t.durations("laws.tabulate")), "s"),
            "laws.check_axioms_s": (statistics.median(t.durations("laws.check_axioms")), "s"),
            "laws.subsets": (self.counts["subsets"], "count"),
            "laws.verify_s": (statistics.median(t.durations("laws.verify_closed_form_characterization")), "s"),
            "laws.checks": (self.counts["checks"], "count"),
            "influence.weight_p50_ms": (statistics.median(weights) * ms, "ms"),
            "influence.rules_matched": (self.counts["rules_matched"], "count"),
            "cli.startup_s": (statistics.median(t.durations("cli.startup")), "s"),
            "cli.main_s": (statistics.median(t.sample_sums("cli.main", "bench.cli")), "s"),
        }
        for layer in ("fileformat", "model", "closure", "laws", "influence", "cli", "bench"):
            out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        out["trace.overhead_pct"] = ((traced / plain - 1) * 100, "%")
        return out
