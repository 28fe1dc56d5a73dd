"""Positive + negative fixture per rule family.

Each test writes the offending (or innocent) code into a throwaway
tree at a path where the rule's scope applies, and asserts the exact
rule ids that fire.  The negative twin is the same code either cleaned
up or placed outside the rule's scope — proving the scope actually
gates.
"""

from __future__ import annotations


class TestDeterminismRules:
    def test_stdlib_random_import_flagged_in_sim(self, lint_tree):
        lint_tree.write(
            "src/repro/sim/foo.py",
            """\
            import random
            from random import choice
            """,
        )
        assert lint_tree.rules_found() == [
            "det-stdlib-random", "det-stdlib-random"
        ]

    def test_stdlib_random_fine_outside_scope(self, lint_tree):
        lint_tree.write("src/repro/viz_extra.py", "import random\n")
        assert lint_tree.rules_found() == []

    def test_np_global_state_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/campaign/foo.py",
            """\
            import numpy as np

            def f():
                np.random.seed(0)
                return np.random.randint(10)
            """,
        )
        assert lint_tree.rules_found() == ["det-np-global", "det-np-global"]

    def test_seeded_default_rng_is_the_blessed_path(self, lint_tree):
        lint_tree.write(
            "src/repro/sim/foo.py",
            """\
            import numpy as np

            def f(seed):
                good = np.random.default_rng(seed)
                bad = np.random.default_rng()
                return good, bad
            """,
        )
        assert lint_tree.rules_found() == ["det-unseeded-rng"]

    def test_wall_clock_flagged_monotonic_not(self, lint_tree):
        lint_tree.write(
            "src/repro/sim/foo.py",
            """\
            import time

            def f():
                t0 = time.perf_counter()
                t1 = time.monotonic()
                return time.time() - t0 + t1
            """,
        )
        assert lint_tree.rules_found() == ["det-wall-clock"]

    def test_datetime_now_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/campaign/foo.py",
            "import datetime\nstamp = datetime.datetime.now()\n",
        )
        assert lint_tree.rules_found() == ["det-wall-clock"]

    def test_rng_state_assignment_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/sim/foo.py",
            """\
            def rewind(self, rng, saved):
                rng.bit_generator.state = saved
                self.rng.bit_generator.state, other = saved, None
            """,
        )
        assert lint_tree.rules_found() == ["det-rng-rewind", "det-rng-rewind"]

    def test_rng_state_read_and_out_of_scope_are_fine(self, lint_tree):
        lint_tree.write(
            "src/repro/sim/foo.py",
            """\
            def same(a, b):
                return a.bit_generator.state == b.bit_generator.state
            """,
        )
        lint_tree.write(
            "src/repro/analysis/foo.py",
            "def rewind(rng, saved):\n    rng.bit_generator.state = saved\n",
        )
        assert lint_tree.rules_found() == []


class TestAsyncBlockingRules:
    def test_blocking_calls_in_async_def_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/serve/foo.py",
            """\
            import subprocess
            import time

            async def handler():
                time.sleep(1)
                data = open("x").read()
                subprocess.run(["ls"])
                return data
            """,
        )
        assert sorted(lint_tree.rules_found()) == [
            "async-open", "async-sleep", "async-subprocess"
        ]

    def test_sync_socket_in_async_def_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/serve/foo.py",
            """\
            import socket

            async def handler():
                return socket.create_connection(("h", 1), timeout=5)
            """,
        )
        # both the event-loop rule and the plain timeout rule pass
        # judgement; here the timeout is present so only async-socket.
        assert lint_tree.rules_found() == ["async-socket"]

    def test_sync_helper_nested_in_async_def_is_fine(self, lint_tree):
        # The executor-offload pattern: a sync def *defined inside* the
        # coroutine and handed to run_in_executor blocks a worker
        # thread, not the loop.
        lint_tree.write(
            "src/repro/serve/foo.py",
            """\
            import asyncio
            import time

            async def handler():
                def _work():
                    time.sleep(1)
                    return open("x").read()

                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, _work)
            """,
        )
        assert lint_tree.rules_found() == []

    def test_same_code_outside_serve_is_fine(self, lint_tree):
        lint_tree.write(
            "src/repro/other.py",
            "import time\n\nasync def f():\n    time.sleep(1)\n",
        )
        assert lint_tree.rules_found() == []


class TestExceptionRules:
    def test_bare_except_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/foo.py",
            """\
            def f():
                try:
                    return 1
                except:
                    return 2
            """,
        )
        assert lint_tree.rules_found() == ["exc-bare"]

    def test_base_exception_without_reraise_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/foo.py",
            """\
            def f():
                try:
                    return 1
                except BaseException:
                    return 2
            """,
        )
        assert lint_tree.rules_found() == ["exc-swallow"]

    def test_base_exception_with_reraise_is_fine(self, lint_tree):
        lint_tree.write(
            "src/repro/foo.py",
            """\
            def f(cleanup):
                try:
                    return 1
                except BaseException:
                    cleanup()
                    raise
            """,
        )
        assert lint_tree.rules_found() == []

    def test_narrow_except_is_fine(self, lint_tree):
        lint_tree.write(
            "src/repro/foo.py",
            """\
            def f():
                try:
                    return 1
                except (ValueError, OSError):
                    return 2
            """,
        )
        assert lint_tree.rules_found() == []


class TestHygieneRules:
    def test_sleep_in_test_flagged(self, lint_tree):
        lint_tree.write(
            "tests/test_foo.py",
            "import time\n\ndef test_x():\n    time.sleep(0.1)\n",
        )
        assert lint_tree.rules_found() == ["test-sleep"]

    def test_sleep_in_src_not_a_test_sleep(self, lint_tree):
        lint_tree.write(
            "src/repro/foo.py",
            "import time\n\ndef backoff():\n    time.sleep(0.1)\n",
        )
        assert lint_tree.rules_found() == []


class TestResourceRules:
    def test_connect_without_timeout_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/foo.py",
            "import socket\nsock = socket.create_connection(('h', 1))\n",
        )
        assert lint_tree.rules_found() == ["sock-no-timeout"]

    def test_connect_with_timeout_is_fine(self, lint_tree):
        lint_tree.write(
            "src/repro/foo.py",
            "import socket\n"
            "sock = socket.create_connection(('h', 1), timeout=5.0)\n",
        )
        assert lint_tree.rules_found() == []

    def test_positional_timeout_and_kwargs_splat_accepted(self, lint_tree):
        lint_tree.write(
            "src/repro/foo.py",
            """\
            import socket

            def f(kw):
                a = socket.create_connection(("h", 1), 5.0)
                b = socket.create_connection(("h", 1), **kw)
                return a, b
            """,
        )
        assert lint_tree.rules_found() == []

    def test_bare_capture_open_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/pcap/foo.py",
            """\
            import gzip

            def read(path):
                fp = gzip.open(path, "rb")
                return fp.read()
            """,
        )
        assert lint_tree.rules_found() == ["capture-open-no-ctx"]

    def test_path_open_outside_with_flagged(self, lint_tree):
        lint_tree.write(
            "src/repro/corpus/foo.py",
            "def read(path):\n    return path.open('rb').read()\n",
        )
        assert lint_tree.rules_found() == ["capture-open-no-ctx"]

    def test_with_managed_opens_are_fine(self, lint_tree):
        lint_tree.write(
            "src/repro/pcap/foo.py",
            """\
            import gzip

            def read(path, compressed):
                with (gzip.open(path) if compressed else path.open("rb")) as fp:
                    head = fp.read(8)
                with path.open("wb") as raw, gzip.GzipFile(
                    fileobj=raw, mode="wb", mtime=0
                ) as out:
                    out.write(head)
            """,
        )
        assert lint_tree.rules_found() == []

    def test_capture_open_rule_scoped_to_capture_io(self, lint_tree):
        lint_tree.write(
            "src/repro/sim/foo.py",
            "def read(path):\n    return open(path, 'rb').read()\n",
        )
        assert lint_tree.rules_found() == []

    def test_private_rename_flagged_anywhere_in_src(self, lint_tree):
        lint_tree.write(
            "src/repro/campaign/foo.py",
            """\
            import os

            def commit(tmp, path):
                os.replace(tmp, path)
                os.rename(path, path + ".corrupt")
            """,
        )
        assert lint_tree.rules_found() == ["store-bypass", "store-bypass"]

    def test_renames_allowed_in_the_store_module_and_outside_src(self, lint_tree):
        source = "import os\n\ndef commit(tmp, path):\n    os.replace(tmp, path)\n"
        lint_tree.write("src/repro/store.py", source)
        lint_tree.write("benchmarks/foo.py", source)
        assert lint_tree.rules_found() == []

    def test_private_pool_flagged_anywhere_in_src(self, lint_tree):
        lint_tree.write(
            "src/repro/pipeline/foo.py",
            """\
            import concurrent.futures
            from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

            def run(jobs, threads):
                pool_cls = ThreadPoolExecutor if threads else ProcessPoolExecutor
                with concurrent.futures.ProcessPoolExecutor() as pool:
                    return pool_cls, pool
            """,
        )
        assert lint_tree.rules_found() == ["pool-bypass"] * 3

    def test_pools_allowed_in_the_job_runner_and_outside_src(self, lint_tree):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def pool():\n    return ProcessPoolExecutor(2)\n"
        )
        lint_tree.write("src/repro/jobs.py", source)
        lint_tree.write("benchmarks/foo.py", source)
        assert lint_tree.rules_found() == []

    def test_gzip_stream_flagged_outside_the_codec(self, lint_tree):
        lint_tree.write(
            "src/repro/corpus/foo.py",
            """\
            import gzip
            from gzip import GzipFile

            def peek(path, wrap=gzip.GzipFile):
                with gzip.open(path, "rb") as fp:
                    return fp.read(8), wrap, GzipFile
            """,
        )
        assert lint_tree.rules_found() == ["gzip-bypass"] * 3

    def test_gzip_blobs_and_the_codec_are_fine(self, lint_tree):
        lint_tree.write(
            "src/repro/campaign/foo.py",
            """\
            import gzip

            def roundtrip(data):
                return gzip.decompress(gzip.compress(data, mtime=0))
            """,
        )
        source = (
            "import gzip\n\ndef read(path):\n"
            "    with gzip.open(path) as fp:\n        return fp.read()\n"
        )
        lint_tree.write("src/repro/pcap/foo.py", source)
        lint_tree.write("benchmarks/foo.py", source)
        assert lint_tree.rules_found() == []

    def test_signal_timer_flagged_anywhere_in_src(self, lint_tree):
        lint_tree.write(
            "src/repro/campaign/foo.py",
            """\
            import signal

            def arm(handler, seconds):
                signal.signal(signal.SIGALRM, handler)
                signal.setitimer(signal.ITIMER_REAL, seconds)
                signal.alarm(1)
            """,
        )
        assert lint_tree.rules_found() == ["signal-timer"] * 3

    def test_other_signal_handlers_and_non_src_timers_allowed(self, lint_tree):
        lint_tree.write(
            "src/repro/serve/foo.py",
            """\
            import signal

            def install(handler):
                signal.signal(signal.SIGTERM, handler)
            """,
        )
        lint_tree.write("benchmarks/foo.py", "import signal\n\nsignal.alarm(1)\n")
        assert lint_tree.rules_found() == []


class TestEngineMeta:
    def test_syntax_error_becomes_parse_error_finding(self, lint_tree):
        lint_tree.write("src/repro/foo.py", "def broken(:\n")
        result = lint_tree.lint()
        assert [f.rule for f in result.findings] == ["parse-error"]
        assert "syntax error" in result.findings[0].message

    def test_findings_sorted_and_counted_by_rule_path(self, lint_tree):
        lint_tree.write(
            "src/repro/sim/b.py", "import random\nimport random as r\n"
        )
        lint_tree.write("src/repro/sim/a.py", "import random\n")
        result = lint_tree.lint()
        assert [f.path for f in result.findings] == [
            "src/repro/sim/a.py",
            "src/repro/sim/b.py",
            "src/repro/sim/b.py",
        ]
        assert result.counts == {
            "det-stdlib-random:src/repro/sim/a.py": 1,
            "det-stdlib-random:src/repro/sim/b.py": 2,
        }

    def test_select_filters_reporting(self, lint_tree):
        lint_tree.write(
            "src/repro/sim/foo.py", "import random\nimport time\nt = time.time()\n"
        )
        assert lint_tree.rules_found(select=["det-wall-clock"]) == [
            "det-wall-clock"
        ]

    def test_select_unknown_rule_suggests(self, lint_tree):
        import pytest

        with pytest.raises(ValueError, match="did you mean 'det-wall-clock'"):
            lint_tree.lint(select=["det-wall-clok"])
