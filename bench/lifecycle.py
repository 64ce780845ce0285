"""One workload's lifecycle: set-up, cold generate, no-op rerun, hook updates.

Set-up materialises the corpus in a fresh Git repository, commits it, writes
``.repodoc.json``, installs the hook and, for the HTTP workload, starts the
stub provider. The lifecycle then repeats rounds: ``generate`` from a cold
start, the same ``generate`` again as a no-op rerun, and seeded one-line
edits, each staged, followed by ``update --json`` (what the installed hook
execs), checked, and committed with ``--no-verify``. Only the repodoc
commands are timed, each as a child process.
"""

from __future__ import annotations

import ast
import collections
import http.client
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from corpora import DATA_DIR, Def, copy_stdlib, load_pins, survey, walk_defs, write_synth

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120
HWM_ENV = "REPODOC_BENCH_HWM"
# The times are rescaled on the assumption that a command runs on one core
# (see timed_run in run.py); CPU time above this share of its wall time,
# plus CPU_SLACK_S, fails the command.
CPU_SHARE_LIMIT = 1.1
CPU_SLACK_S = 0.02

# ``python -m repodoc`` that, at exit, writes its own peak RSS (VmHWM, in kB)
# to the file named by HWM_ENV. ru_maxrss from wait4 is no use here: a child
# shares the spawning process's memory until exec, and the kernel counts
# that process's peak into the child's.
RUN_REPODOC = f"""
import atexit, os, runpy, sys
def _hwm():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["{HWM_ENV}"], "w") as out:
        out.write(kb)
atexit.register(_hwm)
runpy.run_module("repodoc", run_name="__main__", alter_sys=True)
"""


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "synth" or a stdlib package
    http: bool  # talk to the localhost stub instead of the mock provider
    jobs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-cyclic", "synth", http=False, jobs=1),
        Workload("stdlib-idlelib", "idlelib", http=False, jobs=1),
        Workload("provider-stub", "email", http=True, jobs=2),
    )
}


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's source on the path, no
    proxies, no user or system Git configuration."""
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env.update(
        PYTHONPATH=str(SRC),
        NO_PROXY="127.0.0.1,localhost",
        REPODOC_API_KEY="bench-key",
        GIT_CONFIG_GLOBAL=os.devnull,
        GIT_CONFIG_NOSYSTEM="1",
        GIT_AUTHOR_NAME="bench",
        GIT_AUTHOR_EMAIL="bench@localhost",
        GIT_COMMITTER_NAME="bench",
        GIT_COMMITTER_EMAIL="bench@localhost",
        GIT_AUTHOR_DATE="2024-01-01T00:00:00Z",
        GIT_COMMITTER_DATE="2024-01-01T00:00:00Z",
    )
    return env


@dataclass
class Run:
    """One finished child process."""

    wall_s: float
    cpu_s: float  # user plus system time of the child
    rc: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0  # peak RSS, where measured


def run_child(
    argv: list[str], cwd: Path, env: dict[str, str], timeout: float = CHILD_TIMEOUT_S
) -> Run:
    """Run a child and time it from outside; its CPU time comes from
    ``wait4``, which reports this child alone."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Run(
        wall,
        usage.ru_utime + usage.ru_stime,
        proc.returncode,
        out.decode("utf-8", "replace"),
        err[0].decode("utf-8", "replace"),
    )


def git(repo: Path, env: dict[str, str], *args: str) -> None:
    subprocess.run(["git", *args], cwd=repo, env=env, check=True, capture_output=True)


def repodoc_argv(command: str, repo: Path, jobs: int = 1, *extra: str) -> list[str]:
    argv = [command, "--repo", str(repo), *extra]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    return argv


class StubProcess:
    """The stub provider in its own process; ``close`` stops and reaps it."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py")],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/v1/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Workspace:
    """A set-up repository and what the checks compare the program against."""

    repo: Path
    stub: StubProcess | None
    truth: set[tuple[str, str]] | None = None  # true call edges, when known
    truth_note: str = ""
    files: list[str] = field(default_factory=list)
    defs: list[tuple[str, Def]] = field(default_factory=list)
    ids: dict[str, str] = field(default_factory=dict)  # object id -> kind

    def survey(self, corpus: str) -> None:
        """Compute the oracle from the committed corpus; not part of set-up."""
        self.files, self.defs = survey(self.repo)
        self.ids = {d.id: d.kind for _rel, d in self.defs}
        if self.truth is not None:
            self.truth_note = f"truth: generator call edges, {len(self.truth)} edges"
            return
        path = DATA_DIR / f"truth-{corpus}.json"
        if not path.exists():
            self.truth_note = f"no reference truth at {path.name}; ref_recall skipped"
            return
        data = json.loads(path.read_text(encoding="utf-8"))
        if data["sha256"] != load_pins()["stdlib"][corpus]["sha256"]:
            self.truth_note = f"{path.name} is for another corpus digest; ref_recall skipped"
            return
        self.truth = {tuple(edge) for edge in data["edges"]}
        self.truth_note = f"truth: Jedi goto pass, {len(self.truth)} edges"

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


def set_up(workload: Workload, seed: int, repo: Path, env: dict[str, str]) -> Workspace:
    """Everything a user does before the first generate."""
    repo.mkdir(parents=True)
    truth = None
    if workload.corpus == "synth":
        truth = write_synth(repo, seed)
    else:
        copy_stdlib(workload.corpus, repo)
    git(repo, env, "init", "-q", "-b", "main")
    git(repo, env, "add", "-A")
    git(repo, env, "commit", "-q", "--no-verify", "-m", "corpus")
    ws = Workspace(repo, StubProcess(env) if workload.http else None, truth)
    try:
        provider = {"base_url": ws.stub.base_url if ws.stub else "mock:"}
        config = json.dumps({"provider": provider}) + "\n"
        (repo / ".repodoc.json").write_text(config, encoding="utf-8")
        argv = [sys.executable, "-m", "repodoc", *repodoc_argv("install-hook", repo)]
        hook = run_child(argv, repo, env)
        if hook.rc != 0:
            raise RuntimeError(f"install-hook failed: {hook.stderr.strip()}")
    except BaseException:
        ws.close()
        raise
    return ws


class Editor:
    """Seeded one-line edits that change a def's source but no code.

    An edit appends a comment to one line inside a def or class. It is kept
    only when the file's AST is unchanged (so it stays parseable and no call
    changes) and no def around the line shares its id with another def. The
    defs whose span holds the line are the ones the update must regenerate.
    Comments add no lines, so the spans found by the survey stay valid.
    """

    def __init__(self, repo: Path, defs: list[tuple[str, Def]], seed: int) -> None:
        self.repo = repo
        self.defs = defs
        self.rng = random.Random(f"edits-{seed}")
        self.count = 0

    def next(self) -> tuple[str, set[str]]:
        for _ in range(1000):
            rel, target = self.rng.choice(self.defs)
            line = self.rng.randint(target.start, target.end)
            path = self.repo / rel
            text = path.read_text(encoding="utf-8")
            lines = text.split("\n")
            lines[line - 1] += f"  # bench edit {self.count + 1}"
            edited = "\n".join(lines)
            try:
                tree = ast.parse(edited)
            except SyntaxError:
                continue
            if ast.dump(tree) != ast.dump(ast.parse(text)):
                continue
            defs = walk_defs(rel, tree)
            counts = collections.Counter(d.id for d in defs)
            around = [d for d in defs if d.start <= line <= d.end]
            if not around or any(counts[d.id] > 1 for d in around):
                continue
            path.write_text(edited, encoding="utf-8")
            self.count += 1
            return rel, {d.id for d in around}
        raise RuntimeError("no valid edit found in 1000 draws")


# execute(command argv after "repodoc", cwd) -> Run
Execute = Callable[[list[str], Path], Run]


@dataclass
class Result:
    """Measurements and check outcomes of one lifecycle."""

    generate: list[Run] = field(default_factory=list)
    rerun: list[Run] = field(default_factory=list)
    update: list[Run] = field(default_factory=list)
    peak_rss_kb: int = 0
    requests: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    stub_stats: dict | None = None  # what the stub provider counted
    store_bytes: int = 0
    recall: float | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def run_lifecycle(
    ws: Workspace,
    workload: Workload,
    execute: Execute,
    env: dict[str, str],
    *,
    seed: int,
    min_rounds: int,
    edits_per_round: int,
    seconds: float,
    on_op: Callable[[str], None] = lambda kind: None,
    after_round: Callable[[], None] = lambda: None,
) -> Result:
    """Rounds of cold generate, no-op rerun and ``edits_per_round`` updates,
    until ``seconds`` have passed and at least ``min_rounds`` ran.

    Interleaving the phases spreads each one's samples over the whole run,
    so a slow spell of the machine does not land on one phase alone.
    Requests and tokens are billed over the first round only, so that they
    do not depend on how many rounds fit.
    """
    res = Result()
    repo = ws.repo
    editor = Editor(repo, ws.defs, seed)
    gen_argv = repodoc_argv("generate", repo, workload.jobs, "--json")
    upd_argv = repodoc_argv("update", repo, workload.jobs, "--json")
    started = time.perf_counter()
    served = 0  # requests the stub provider has served so far

    def op(kind: str, argv: list[str], requests: int) -> tuple[Run, dict, list[str]]:
        """Run one command; ``requests`` is how many objects it should send
        to the provider."""
        nonlocal served
        on_op(kind)
        run = execute(argv, repo)
        res.peak_rss_kb = max(res.peak_rss_kb, run.maxrss_kb)
        problems = []
        if run.rc != 0 and run.stderr:
            res.problems.append(f"{kind} stderr: {run.stderr.strip()[-300:]}")
        if run.cpu_s > run.wall_s * CPU_SHARE_LIMIT + CPU_SLACK_S:
            problems.append(
                f"{run.cpu_s:.3f} s of CPU in {run.wall_s:.3f} s of wall time: "
                "more than one core, so the rescaled time is biased"
            )
        if ws.stub is not None:
            total = ws.stub.stats()["requests"]
            if total - served != requests:
                problems.append(f"the stub served {total - served} requests, expected {requests}")
            served = total
        try:
            return run, json.loads(run.stdout), problems
        except ValueError:
            return run, {}, problems

    def bill(report: dict) -> None:
        res.requests += len(report.get("generated", [])) + len(report.get("failures", {}))
        res.prompt_tokens += report.get("prompt_tokens", 0)
        res.completion_tokens += report.get("completion_tokens", 0)

    rounds = 0
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        first = rounds == 0
        rounds += 1
        # a cold start: no store and no pages, as for a new user
        shutil.rmtree(repo / checks.DOC_DIR, ignore_errors=True)
        shutil.rmtree(repo / Path(checks.STORE_PATH).parent, ignore_errors=True)
        run, report, problems = op("generate", gen_argv, len(ws.ids))
        res.generate.append(run)
        more, output = checks.check_generate(report, run.rc, repo, ws.files, ws.ids)
        res.record("generate", problems + more)
        if first:
            bill(report)
            if output is not None:
                res.store_bytes = output.store.bytes
                if ws.truth:
                    res.recall = checks.recall(ws.truth, output.store)

        run, report, problems = op("rerun", gen_argv, 0)
        res.rerun.append(run)
        more, output = checks.check_rerun(report, run.rc, repo, ws.ids, output)
        res.record("rerun", problems + more)
        if first:
            bill(report)

        for _ in range(edits_per_round):
            rel, expected = editor.next()
            git(repo, env, "add", "--", rel)
            run, report, problems = op("update", upd_argv, len(expected))
            res.update.append(run)
            more, output = checks.check_update(
                report, run.rc, rel, expected, repo, ws.files, ws.ids, output
            )
            res.record(f"update {rel}", problems + more)
            if first:
                bill(report.get("run", {}))
            git(repo, env, "commit", "-q", "--no-verify", "-m", f"edit {editor.count}")
        after_round()

    if ws.stub is not None:
        res.stub_stats = ws.stub.stats()
    return res
