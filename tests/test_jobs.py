"""The one job runner: order, failure capture, dead workers, lazy pools."""

import os
import signal
import subprocess
import sys

import pytest

from repro.jobs import JobError, capture, run_jobs


def square(x):
    return x * x


class Unpicklable(Exception):
    def __init__(self, *, detail):
        super().__init__(f"bad input ({detail})")


def fail_on_odd(x):
    if x % 2:
        raise Unpicklable(detail=x)
    return x


def kill_on_three(x):
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


needs_fork = pytest.mark.skipif(
    __import__("multiprocessing").get_start_method() != "fork",
    reason="pool workers must inherit this test module via fork",
)


class TestCapture:
    def test_returns_the_result(self):
        assert capture(square, 3) == 9

    def test_raising_job_becomes_a_job_error(self):
        error = capture(fail_on_odd, 1)
        assert isinstance(error, JobError)
        assert error.error_type == "Unpicklable"
        assert error.error == "bad input (1)"
        assert "Unpicklable" in error.traceback
        assert error.ran and error.elapsed_s >= 0.0


class TestRunJobs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_outcomes_in_input_order_and_every_job_reported(self, workers):
        seen = []
        outcomes = run_jobs(
            fail_on_odd,
            range(6),
            lambda index, outcome: seen.append(index),
            workers=workers,
        )
        assert sorted(seen) == list(range(6))
        failed = [isinstance(o, JobError) for o in outcomes]
        assert failed == [False, True] * 3
        assert outcomes[::2] == [0, 2, 4]

    def test_threads_share_memory(self):
        box = []
        run_jobs(box.append, [1, 2, 3], workers=2, threads=True)
        assert sorted(box) == [1, 2, 3]

    def test_serial_interrupt_keeps_what_resolved(self):
        done = []

        def interrupt_at_two(x):
            if x == 2:
                raise KeyboardInterrupt
            return x

        with pytest.raises(KeyboardInterrupt):
            run_jobs(
                interrupt_at_two,
                [0, 1, 2, 3],
                lambda index, outcome: done.append(outcome),
                workers=1,
            )
        assert done == [0, 1]

    @needs_fork
    def test_dead_worker_is_reported_not_raised(self):
        outcomes = run_jobs(kill_on_three, range(5), workers=2)
        killed = outcomes[3]
        assert isinstance(killed, JobError)
        assert killed.error_type == "BrokenProcessPool"
        assert not killed.ran
        assert all(
            o == i or isinstance(o, JobError) for i, o in enumerate(outcomes)
        )


def test_layering_and_no_pool_import_when_serial():
    """pipeline does not import corpus, corpus does not import campaign,
    and nothing loads multiprocessing until a pool is needed."""
    code = (
        "import sys, repro.pipeline\n"
        "print('repro.corpus' in sys.modules)\n"
        "import repro.corpus\n"
        "print('repro.campaign' in sys.modules)\n"
        "import repro.campaign, repro.api\n"
        "from repro.jobs import run_jobs\n"
        "run_jobs(abs, [-1, -2], workers=1)\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.split() == ["False", "False", "False"]
