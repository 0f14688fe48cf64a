"""The stage scheduler on its own: fake tasks and calls, with hypothesis
choosing when each call ends, so that one interleaving is one example."""

import inspect
import threading
import time
from collections import deque
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apreval.pipeline import CallRunner, Task, schedule


class CallError(Exception):
    pass


class TaskError(Exception):
    pass


class FakeRunner:
    """A :class:`CallRunner` whose workers are simulated: a call begins once
    one of the ``jobs`` workers is free, and ends when ``data`` says so.

    Every call and every step is logged; the step ``interrupt_at`` raises
    ``KeyboardInterrupt``, as Ctrl-C would on the scheduling thread.
    """

    def __init__(self, data, log: list, interrupt_at: int | None, jobs: int):
        self.data, self.log, self.interrupt_at, self.jobs = data, log, interrupt_at, jobs
        self.todo: deque = deque()
        self.busy: list = []
        self.steps = 0
        self.closed = False

    def _step(self) -> bool:
        self.steps += 1
        return self.steps == self.interrupt_at

    @staticmethod
    def _outcome(call) -> tuple:
        try:
            return call(), None, 0.0
        except BaseException as exc:
            return None, exc, 0.0

    def put(self, tag, call) -> None:
        assert not self.closed
        self.todo.append((tag, call))
        self._fill()

    def _fill(self) -> None:
        while self.todo and len(self.busy) < self.jobs:
            tag, call = self.todo.popleft()
            self.log.append(("begin", call.keywords["cid"]))
            self.busy.append((tag, call))

    def ended(self, block: bool):
        if block:
            assert self.busy, "the scheduler would wait forever"
            if self._step():
                self.log.append(("interrupt",))
                raise KeyboardInterrupt
        elif not self.busy or self.data is None or not self.data.draw(st.booleans(), label="a call has ended"):
            return None
        which = self.data.draw(st.integers(0, len(self.busy) - 1), label="which call ends") if self.data else 0
        tag, call = self.busy.pop(which)
        self.log.append(("end", call.keywords["cid"]))
        self._fill()
        return tag, self._outcome(call)

    def close(self) -> None:
        self.closed = True
        self.todo.clear()  # dropped: never begun
        for tag, call in self.busy:  # the workers finish what they have begun
            self.log.append(("end", call.keywords["cid"]))
        self.busy.clear()


def _call(cid: str, fails: bool) -> str:
    if fails:
        raise CallError(cid)
    return cid


def _task_body(name: str, batches: list[list[bool]], fails: bool, log: list, gens: list):
    """A task that yields ``batches`` (each call failing where True), then
    raises if ``fails``; a failed call's error is raised again, as a stage does."""

    def body():
        log.append(("start", name))
        try:
            for b, batch in enumerate(batches):
                calls = [partial(_call, cid=f"{name}.{b}.{i}", fails=bad) for i, bad in enumerate(batch)]
                outcomes = yield calls
                assert len(outcomes) == len(calls)  # every call of a batch runs
                for call, (result, error, _) in zip(calls, outcomes):
                    if error is not None:
                        if not isinstance(error, KeyboardInterrupt):
                            log.append(("raise", name, error))
                        raise error
                    assert result == call.keywords["cid"]
            if fails:
                error = TaskError(name)
                log.append(("raise", name, error))
                raise error
        finally:
            log.append(("done", name))

    def start():
        gens.append(body())
        return gens[-1]

    return start


#: a rare True, so that most examples run to the end
_rare = st.sampled_from([False] * 6 + [True])


@st.composite
def _tasks(draw):
    """Task specs in table order: each may read from any task before it."""
    specs = []
    for i in range(draw(st.integers(1, 6))):
        tool = draw(st.booleans())
        batches = draw(st.lists(st.lists(_rare, min_size=1, max_size=3), max_size=3)) if tool else []
        upstream = draw(st.sets(st.sampled_from(range(i)))) if i else set()
        specs.append((f"t{i}", tool, {f"t{j}" for j in upstream}, batches, draw(_rare)))
    return specs


def _simulate(data, specs, jobs: int, interrupt_at: int | None):
    log: list = []
    gens: list = []
    runners: list[FakeRunner] = []

    def runner(n: int) -> FakeRunner:
        runners.append(FakeRunner(data, log, interrupt_at, n))
        return runners[-1]

    tasks = [Task(name, upstream, tool, _task_body(name, batches, fails, log, gens))
             for name, tool, upstream, batches, fails in specs]
    raised = None
    try:
        schedule(tasks, jobs, runner)
    except BaseException as exc:
        raised = exc
    return log, gens, runners, raised


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), specs=_tasks(), jobs=st.integers(1, 3),
       interrupt_at=st.none() | st.integers(1, 12))
def test_schedule_invariants(data, specs, jobs, interrupt_at):
    log, gens, runners, raised = _simulate(data, specs, jobs, interrupt_at)
    by_name = {name: (tool, upstream) for name, tool, upstream, _, _ in specs}

    # at most ``jobs`` calls in flight, so none overlap under jobs 1
    in_flight = peak = 0
    for event in log:
        if event[0] in ("begin", "end"):
            in_flight += 1 if event[0] == "begin" else -1
            peak = max(peak, in_flight)
    assert in_flight == 0
    assert peak <= jobs

    tools = [name for name, (tool, _) in by_name.items() if tool]
    done = set()
    failed = interrupted = False
    for event in log:
        kind = event[0]
        if kind == "start":
            name = event[1]
            tool, upstream = by_name[name]
            assert not failed and not interrupted, name
            # its upstream tasks have ended, and under jobs 1 the tool tasks before it
            assert upstream <= done, (name, upstream - done)
            if jobs == 1 and tool:
                assert set(tools[: tools.index(name)]) <= done, name
        elif kind == "begin":
            # the calls not yet begun at an interrupt are dropped
            assert not interrupted, event
        elif kind == "done":
            done.add(event[1])
        elif kind == "raise":
            failed = True
        elif kind == "interrupt":
            interrupted = True

    # every started generator is ended or closed, and the runner is closed
    assert all(inspect.getgeneratorstate(gen) == inspect.GEN_CLOSED for gen in gens)
    assert [(runner.jobs, runner.closed) for runner in runners] == [(jobs, True)]

    failures = [event[2] for event in log if event[0] == "raise"]
    if interrupted:
        assert isinstance(raised, KeyboardInterrupt)
    elif failures:
        assert raised is failures[0]
    else:
        assert raised is None
        assert done == set(by_name)
        calls = sum(len(batch) for _, _, _, batches, _ in specs for batch in batches)
        assert len([event for event in log if event[0] == "begin"]) == calls


def test_one_job_starts_tool_tasks_in_table_order():
    # t1 depends on nothing, so only the --jobs 1 rule keeps it behind t0
    log: list = []
    gens: list = []
    tasks = [Task("t0", set(), True, _task_body("t0", [[False, False]], False, log, gens)),
             Task("t1", set(), True, _task_body("t1", [[False]], False, log, gens)),
             Task("t2", set(), False, _task_body("t2", [], False, log, gens))]
    schedule(tasks, 1, lambda jobs: FakeRunner(None, log, None, jobs))
    assert [event for event in log if event[0] in ("start", "done")] == [
        ("start", "t0"), ("start", "t2"), ("done", "t2"), ("done", "t0"), ("start", "t1"), ("done", "t1")]


class TestCallRunner:
    def test_no_thread_until_a_call_is_put(self):
        runner = CallRunner(2)
        assert runner.ended(block=False) is None
        runner.close()
        assert runner.threads == []
        assert runner.run(lambda: 5)[:2] == (5, None)

    def test_at_most_jobs_calls_run_at_once(self):
        runner = CallRunner(2)
        lock = threading.Lock()
        running, peak = [0], [0]

        def call(i):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.01)
            with lock:
                running[0] -= 1
            if i == 3:
                raise CallError(i)
            return i

        for i in range(6):
            runner.put(i, partial(call, i))
        outcomes = dict(runner.ended(block=True) for _ in range(6))
        runner.close()
        assert 1 <= peak[0] <= 2
        assert {i: result for i, (result, _, _) in outcomes.items()} == {0: 0, 1: 1, 2: 2, 3: None, 4: 4, 5: 5}
        assert isinstance(outcomes[3][1], CallError)
        assert all(seconds >= 0.01 for _, _, seconds in outcomes.values())
        assert not any(thread.is_alive() for thread in runner.threads)

    def test_close_drops_the_calls_not_yet_begun(self):
        runner = CallRunner(1)
        gate, begun = threading.Event(), []

        def call(i):
            begun.append(i)
            assert gate.wait(5)

        for i in range(3):
            runner.put(i, partial(call, i))
        deadline = time.monotonic() + 5
        while not begun and time.monotonic() < deadline:
            time.sleep(0.001)
        timer = threading.Timer(0.05, gate.set)
        timer.start()
        runner.close()
        timer.join()
        assert begun == [0]
        assert not any(thread.is_alive() for thread in runner.threads)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failure_starts_nothing_more_and_lets_running_calls_end(jobs):
    log: list = []
    gens: list = []
    tasks = [Task("t0", set(), True, _task_body("t0", [[False]], False, log, gens)),
             Task("t1", set(), False, _task_body("t1", [], True, log, gens)),
             Task("t2", set(), False, _task_body("t2", [], False, log, gens))]
    with pytest.raises(TaskError):
        schedule(tasks, jobs, lambda n: FakeRunner(None, log, None, n))
    # t0's call goes to a worker before t1 starts; t2 was ready, but t1 had failed
    assert [event[:2] for event in log] == [
        ("start", "t0"), ("begin", "t0.0.0"), ("start", "t1"), ("raise", "t1"), ("done", "t1"),
        ("end", "t0.0.0"), ("done", "t0")]
