"""Benchmark of the neogate pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload {fetch,replay,score} --seed N \
        --seconds S --trace {0,1}

Each call of the ``neogate`` CLI runs in a fresh interpreter, as a user
would run it. A run sets up ``SETUP_REPEATS`` times and reports the median
set-up time. It then repeats the workload's sweep of calls until
``--seconds`` have passed and checks each sweep's outputs. A sweep's time
is the sum over its calls of each call's fastest repeat in the run: on a
shared host, CPU speed swings by a third from second to second, and the
fastest repeat is the one least slowed by other tenants. With ``--trace 1``, traced sweeps (``traced_call.py``)
alternate with untraced ones, and the per-layer metrics come from the
traced spans' self times. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
workloads, metrics and checks are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
REQUIRED = ("src/neogate/cli.py", "data/synthetic-test.tsv", "data/synthetic-dev.tsv")
CLI = "from neogate.cli import main; main()"
SETUP_REPEATS = 5
DEFAULT_SEED = 1
FETCH_PARADIGM = "schwa"


class BenchError(Exception):
    """The benchmark itself could not run."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if urllib.request.getproxies():
        env["no_proxy"] = env["NO_PROXY"] = "127.0.0.1,localhost"
    return env


ENV = _child_env()


@dataclass
class Call:
    rc: int
    launch: float
    end: float
    cpu: float
    rss_mb: float
    stdout: str
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.launch


def spawn(argv: list[str], log: Path) -> Call:
    """Run one child process; wall and CPU time and peak RSS come from wait4."""
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        rc=proc.returncode,
        launch=launch,
        end=end,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=log.read_text(encoding="utf-8", errors="replace"),
    )


class Launcher:
    """Runs one CLI call, either through ``neogate.cli`` or traced."""

    def __init__(self, traced: bool, directory: Path):
        self.traced = traced
        self.directory = directory
        self.count = 0

    def __call__(self, argv: list[str]) -> Call:
        """Run ``neogate`` with ``argv`` (command and flags)."""
        self.count += 1
        base = self.directory / f"call-{self.count:03d}"
        if not self.traced:
            return spawn([sys.executable, "-c", CLI, *argv], base.with_suffix(".out"))
        spans, probe = base.with_suffix(".spans.json"), base.with_suffix(".probe.jsonl")
        call = spawn(
            [sys.executable, str(HERE / "traced_call.py"), str(spans), str(probe), *argv],
            base.with_suffix(".out"),
        )
        if spans.exists():
            call.spans = json.loads(spans.read_text(encoding="utf-8"))
        call.spans.append([0, -1, "cli.call", call.launch, call.end, 1, ""])
        return call


class Stub:
    """The endpoint stub process."""

    def __init__(self, refs: Path, directory: Path):
        port_file = directory / "stub.port"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--refs", str(refs),
             "--port-file", str(port_file)],
            cwd=ROOT,
        )
        deadline = time.monotonic() + 30
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("endpoint stub did not start")
            time.sleep(0.002)
        self.port = int(port_file.read_text(encoding="ascii"))
        self.url = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self) -> dict:
        """Requests seen since the previous call."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Sweep:
    """One pass over a workload's calls, with its output checks."""

    calls: list[Call] = field(default_factory=list)
    entries: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    stub_stats: list[dict] = field(default_factory=list)
    first_request_s: float | None = None

    def record(self, call: Call, problems: list[str], entries: int) -> None:
        self.calls.append(call)
        self.entries += entries
        self.attempted += 1
        if call.rc != 0:
            problems = [f"exit code {call.rc}", *problems]
        if problems:
            self.failed += 1
            self.problems += problems

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.calls)

    @property
    def endpoint_requests(self) -> int:
        return sum(s["requests"] for s in self.stub_stats)


# ---------------------------------------------------------------- workloads


class Fetch:
    """Cold ``run`` against the stub: network, cache appends, extraction."""

    def setup(self, directory: Path, seed: int, bundle) -> dict:
        gen.write_refs(directory / "refs.json", bundle)
        return {
            "stub": Stub(directory / "refs.json", directory),
            "expected": bundle.adapted_lines(FETCH_PARADIGM),
            "entries": len(bundle.corpus),
            "distinct": len({e.source for e in bundle.corpus}),
        }

    def sweep(self, state: dict, launch: Launcher, directory: Path) -> Sweep:
        cache, out = directory / "fetch-cache.jsonl", directory / "fetch-out"
        cache.unlink(missing_ok=True)
        state["stub"].stats()
        call = launch(gen.run_argv(FETCH_PARADIGM, "ternary", 8, state["stub"].url, cache, out))
        stats = state["stub"].stats()
        sweep = Sweep(stub_stats=[stats])
        if stats["arrivals"]:
            sweep.first_request_s = stats["arrivals"][0] - call.launch
        n = state["entries"]
        problems = []
        if not call.stdout.startswith(f"records={n} failed=0 "):
            problems.append(f"fetch printed {call.stdout.strip()!r}")
        if stats["requests"] != state["distinct"]:
            problems.append(f"fetch sent {stats['requests']} requests, not {state['distinct']}")
        hyp = out / "hypotheses.txt"
        if not hyp.exists() or hyp.read_text(encoding="utf-8") != state["expected"]:
            problems.append("fetch hypotheses differ from the adapted references")
        sweep.record(call, problems, n)
        # every entry is an operation too; an entry whose outcome is failed fails
        printed = re.match(r"records=\d+ failed=(\d+) ", call.stdout)
        sweep.attempted += n
        sweep.failed += int(printed.group(1)) if printed else n
        return sweep


class Replay:
    """Warm ``run`` calls over one shared cache: no requests."""

    def setup(self, directory: Path, seed: int, bundle) -> dict:
        cache = directory / "cache.jsonl"
        hypotheses = gen.prefill_cache(cache, seed, bundle)
        for (paradigm, _, _), text in hypotheses.items():
            if text != bundle.adapted_lines(paradigm):
                raise BenchError("pre-filled hypotheses differ from the adapted references")
        gen.write_refs(directory / "refs.json", bundle)
        return {
            "stub": Stub(directory / "refs.json", directory), "cache": cache, "cache_sha": sha256(cache),
            "hypotheses": hypotheses, "entries": len(bundle.corpus),
        }

    def sweep(self, state: dict, launch: Launcher, directory: Path) -> Sweep:
        sweep = Sweep()
        state["stub"].stats()
        for paradigm, fmt, shots in gen.replay_configs():
            out = directory / f"replay-{paradigm}-{fmt}-{shots}"
            call = launch(gen.run_argv(paradigm, fmt, shots, state["stub"].url, state["cache"], out))
            stats = state["stub"].stats()
            sweep.stub_stats.append(stats)
            problems = []
            if stats["requests"]:
                problems.append(f"replay {paradigm}/{fmt}/{shots} sent {stats['requests']} requests")
            hyp = out / "hypotheses.txt"
            if not hyp.exists() or hyp.read_text(encoding="utf-8") != state["hypotheses"][(paradigm, fmt, shots)]:
                problems.append(f"replay {paradigm}/{fmt}/{shots} hypotheses differ from the pre-fill's")
            if sha256(state["cache"]) != state["cache_sha"]:
                problems.append(f"replay {paradigm}/{fmt}/{shots} changed the cache")
            sweep.record(call, problems, state["entries"])
        return sweep


class Score:
    """``validate`` plus one ``evaluate`` per seeded hypothesis file."""

    def setup(self, directory: Path, seed: int, bundle) -> dict:
        files = {}
        for paradigm in gen.PARADIGMS:
            for k, text in enumerate(gen.hypothesis_files(seed, bundle, paradigm)):
                path = directory / f"hyp-{paradigm}-{k}.txt"
                path.write_text(text, encoding="utf-8")
                files[f"{paradigm}-{k}"] = path
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        return {
            "files": files, "entries": len(bundle.corpus),
            "digests": expected["score"] if expected["seed"] == seed else None,
        }

    def sweep(self, state: dict, launch: Launcher, directory: Path) -> Sweep:
        sweep = Sweep()
        call = launch(["validate", f"--corpus={gen.TEST_CORPUS}"])
        sweep.record(call, [], state["entries"])
        for name, path in state["files"].items():
            out = directory / f"score-{name}"
            call = launch([
                "evaluate", f"--corpus={gen.TEST_CORPUS}", f"--paradigm={name.split('-')[0]}",
                f"--hyp={path}", f"--out={out}",
            ])
            sweep.record(call, self.check(name, out, state["digests"]), state["entries"])
        return sweep

    @staticmethod
    def check(name: str, out: Path, digests: dict | None) -> list[str]:
        try:
            report = (out / "report.kv").read_bytes()
            trace = (out / "trace.tsv").read_bytes()
        except OSError as exc:
            return [f"score {name}: {exc}"]
        problems = []
        if name.endswith("-0"):
            values = dict(
                line.split("=", 1) for line in report.decode("utf-8").splitlines() if "=" in line
            )
            want = {"cov": "100.00", "acc": "100.00", "cwa": "100.00", "mis": "0.00"}
            if any(values.get(k) != v for k, v in want.items()):
                problems.append(f"score {name}: adapted references do not score 100/100/100/0")
        if digests is not None:
            got = {
                "report.kv": hashlib.sha256(report).hexdigest(),
                "trace.tsv": hashlib.sha256(trace).hexdigest(),
            }
            if got != digests[name]:
                problems.append(f"score {name}: output digests {got} differ from expected.json")
        return problems


WORKLOADS = {"fetch": Fetch, "replay": Replay, "score": Score}


# ------------------------------------------------------------------ metrics


def self_times(spans: list) -> list[tuple[list, float]]:
    """Each span with its duration minus the union of its children's."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    result = []
    for s in spans:
        covered, reach = 0.0, s[3]
        for start, end in sorted(children[s[0]]):
            start, end = max(start, reach), min(end, s[4])
            if end > start:
                covered += end - start
                reach = end
        result.append((s, (s[4] - s[3]) - covered))
    return result


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def layer_metrics(untraced: Sweep, traced: Sweep) -> dict[str, float]:
    total = defaultdict(float)
    count = defaultdict(int)
    n = defaultdict(int)
    completes = []  # (source, duration)
    for call in traced.calls:
        for s, self_s in self_times(call.spans):
            total[s[2]] += self_s
            count[s[2]] += s[5]
            n[s[2]] += 1
            if s[2] == "runner.ChatClient.complete":
                completes.append((s[6], s[4] - s[3]))

    def per_item(name: str, scale: float = 1e6) -> float:
        return total[name] / count[name] * scale if count[name] else 0.0

    def per_call(name: str, scale: float) -> float:
        return total[name] / n[name] * scale if n[name] else 0.0

    service = defaultdict(list)
    for stats in traced.stub_stats:
        for source, s in zip(stats["sources"], stats["service_s"]):
            service[source].append(s)
    overheads = [d - service[src].pop(0) for src, d in completes if service[src]]
    durations = [d for _, d in completes]
    lookups = count["runner.run_corpus"]
    m = {
        "cli.import_ms": per_call("cli.import", 1e3),
        "cli.other_ms": per_call("cli.call", 1e3),
        "cli.render_report.us": per_call("cli.render_report", 1e6),
        "cli.render_trace.us_per_entry": per_item("cli.render_trace"),
        "corpus.parse_corpus.us_per_entry": per_item("corpus.parse_corpus"),
        "corpus.validate_corpus.us_per_entry": per_item("corpus.validate_corpus"),
        "paradigm.adapt_corpus.us_per_entry": per_item("paradigm.adapt_corpus"),
        "promptkit.build_prompt.us_per_prompt": per_item("promptkit.build_prompt"),
        "runner.prompt_hash.us_per_prompt": per_item("runner.prompt_hash"),
        "runner.JsonlCache.load.us_per_record": per_item("runner.JsonlCache.load"),
        "runner.JsonlCache.put.us_per_record": per_item("runner.JsonlCache.put"),
        "runner.ChatClient.complete.count": len(durations),
        "runner.ChatClient.complete.p50_ms": percentile(durations, 50) * 1e3 if durations else 0.0,
        "runner.ChatClient.complete.p98_ms": percentile(durations, 98) * 1e3 if durations else 0.0,
        "runner.client_overhead_ms": statistics.median(overheads) * 1e3 if overheads else 0.0,
        "promptkit.extract_translation.us_per_reply": per_item("promptkit.extract_translation"),
        "evaluator.tokenize.us_per_hyp": per_item("evaluator.tokenize"),
        "evaluator.match_entry.us_per_entry": per_item("evaluator.match_entry"),
        "evaluator.aggregate.us_per_entry": per_item("evaluator.aggregate"),
        "evaluator.compute_metrics.us": per_call("evaluator.compute_metrics", 1e6),
        "runner.export_hypotheses.us_per_entry": per_item("runner.export_hypotheses"),
        "runner.cache_lookups": lookups,
        "runner.cache_hit_ratio": (lookups - len(durations)) / lookups if lookups else 0.0,
        "runner.retries": traced.endpoint_requests - len(durations),
        "runner.endpoint_requests": untraced.endpoint_requests,
        "runner.first_request_ms": (untraced.first_request_s or 0.0) * 1e3,
        "trace.overhead_s": traced.wall - untraced.wall,
    }
    return m


UNITS = {
    "wall_s": "s", "entries_per_s": "entries/s", "cpu_s": "s", "peak_rss_mb": "MB",
    "setup_s": "s", "first_request_s": "s", "endpoint_requests": "count", "error_rate": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if ".us" in name:
        return "us"
    return "count"


def fastest(sweeps: list[Sweep], measure) -> float:
    """The sum over a sweep's calls of each call's fastest repeat."""
    return sum(min(map(measure, repeats)) for repeats in zip(*(s.calls for s in sweeps)))


def end_to_end(sweeps: list[Sweep], setup_s: float) -> dict[str, float]:
    wall = fastest(sweeps, lambda c: c.wall)
    return {
        "wall_s": wall,
        "entries_per_s": sweeps[0].entries / wall,
        "cpu_s": fastest(sweeps, lambda c: c.cpu),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in s.calls) for s in sweeps),
        "setup_s": setup_s,
    }


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def commit() -> str:
    """HEAD's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------- main


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]()
    work = WORK / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    states, setup_times = [], []
    try:
        for i in range(SETUP_REPEATS):
            directory = work / f"setup-{i}"
            directory.mkdir()
            start = time.monotonic()
            bundle = gen.load_bundle(ROOT)
            states.append(workload.setup(directory, seed, bundle))
            setup_times.append(time.monotonic() - start)
            if i < SETUP_REPEATS - 1 and "stub" in states[-1]:
                states[-1]["stub"].stop()
        state = states[-1]

        untraced, traced = [], []
        sweep_dir = work / "sweep"
        sweep_dir.mkdir()
        deadline = time.monotonic() + seconds
        while True:
            start = time.monotonic()
            untraced.append(workload.sweep(state, Launcher(False, sweep_dir), sweep_dir))
            if trace:
                traced.append(workload.sweep(state, Launcher(True, sweep_dir), sweep_dir))
            # start another sweep only if it should end before the deadline
            if 2 * time.monotonic() - start > deadline:
                break
    finally:
        for s in states:
            if "stub" in s:
                s["stub"].stop()

    sweeps = untraced + traced
    result = {
        "correct": all(s.failed == 0 for s in sweeps),
        "attempted": sum(s.attempted for s in sweeps),
        "failed": sum(s.failed for s in sweeps),
    }
    info = {
        "first_request_s": statistics.median(s.first_request_s for s in untraced)
        if workload_name == "fetch" and all(s.first_request_s for s in untraced) else None,
        "endpoint_requests": statistics.median(s.endpoint_requests for s in untraced),
        "error_rate": result["failed"] / result["attempted"],
    }
    if trace:
        metrics = median_metrics([layer_metrics(u, t) for u, t in zip(untraced, traced)])
        units = {k: layer_unit(k) for k in metrics}
        spans = [
            {"workload": workload_name, "sweep": i, "call": j, "spans": c.spans}
            for i, t in enumerate(traced) for j, c in enumerate(t.calls)
        ]
        (work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        metrics = end_to_end(untraced, statistics.median(setup_times))
        units = {k: UNITS[k] for k in metrics}
    meta = {
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "sweeps": len(untraced), "traced_sweeps": len(traced),
        "setup_times_s": setup_times, "sweep_walls_s": [s.wall for s in untraced],
        "commit": commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    for name, value in {**metrics, **info}.items():
        if value is not None:
            print(f"{name} = {value:.6g} {units.get(name, UNITS.get(name))}")
    print("meta " + json.dumps(meta))
    for problem in dict.fromkeys(p for s in sweeps for p in s.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (work / "result.json").write_text(json.dumps({**result, "meta": meta}, indent=1), encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="neogate pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # gen imports neogate, so it can only be imported once src/ is known to exist
    sys.path.insert(0, str(ROOT / "src"))
    global gen
    import gen

    # on SIGTERM, unwind: stop the stub and the CLI call in flight
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
