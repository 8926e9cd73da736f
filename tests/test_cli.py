"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.kernels import kernel_unavailable_reason
from repro.parallel import ProcessBackend, SerialBackend, resolve_backend

NATIVE_OK = kernel_unavailable_reason("native") is None


class TestParser:
    def test_table1_defaults(self):
        arguments = build_parser().parse_args(["table1"])
        assert arguments.command == "table1"
        assert arguments.budget == "quick"
        assert not arguments.full

    def test_table2_with_options(self):
        arguments = build_parser().parse_args(
            ["table2", "--circuits", "s27", "--budget", "paper", "--seed", "7"]
        )
        assert arguments.circuits == ["s27"]
        assert arguments.budget == "paper"
        assert arguments.seed == 7

    def test_compress_arguments(self):
        arguments = build_parser().parse_args(
            ["compress", "file.txt", "--k", "8", "--l", "9"]
        )
        assert arguments.k == 8 and arguments.l == 9

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_ablate_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablate", "nonsense"])

    def test_jobs_defaults_to_serial(self):
        for argv in (
            ["table1"],
            ["table2"],
            ["compress", "file.txt"],
            ["atpg", "c17"],
            ["ablate", "kl"],
            ["report"],
        ):
            arguments = build_parser().parse_args(argv)
            assert arguments.jobs == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--jobs", "2", "--backend", "x"])


RUN_COMMANDS = (
    ["table1"],
    ["table2"],
    ["compress", "file.txt"],
    ["atpg", "c17"],
    ["ablate", "kl"],
    ["report"],
    ["serve"],
    ["request", "body.json"],
)


class TestKernelFlag:
    """No command takes --kernel: the fitness layer picks the covering
    kernel itself, and every pick gives byte-identical output."""

    PATTERNS = "\n".join(["11001100XXXX", "110011001111", "XXXX11001100"] * 6)
    ARGS = ["--k", "4", "--l", "6", "--runs", "1", "--stagnation", "5",
            "--max-evaluations", "120", "--seed", "3"]

    def test_kernel_defaults_to_auto(self, tmp_path, monkeypatch, capsys):
        """A run prices through the ``auto`` rule: the CLI passes no
        kernel, so the fitness asks ``select_kernel_name``."""
        from repro.core import kernels

        shapes = []
        auto = kernels.select_kernel_name

        def spy(*shape):
            shapes.append(shape)
            return auto(*shape)

        monkeypatch.setattr(kernels, "select_kernel_name", spy)
        path = tmp_path / "patterns.txt"
        path.write_text(self.PATTERNS)
        assert main(["compress", str(path), *self.ARGS]) == 0
        assert shapes and all(shape[3] == 4 for shape in shapes)
        for argv in RUN_COMMANDS:
            assert not hasattr(build_parser().parse_args(argv), "kernel")

    def test_invalid_kernel_name_rejected_with_clear_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["table1", "--kernel", "nonsense"])
        assert info.value.code == 2
        assert "unrecognized arguments: --kernel nonsense" in capsys.readouterr().err

    def test_kernel_documented_in_help(self, capsys):
        """Kernels are documented by the `kernels` command, not a flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "covering-kernel backends" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kernels", "--help"])
        assert "auto kernel pick" in capsys.readouterr().out

    def test_compress_kernel_output_matches_auto(
        self, tmp_path, capsys, force_kernel
    ):
        path = tmp_path / "patterns.txt"
        path.write_text(self.PATTERNS)
        outputs = {}
        kernels = ("auto", "bitpack") + (("native",) if NATIVE_OK else ())
        for kernel in kernels:
            force_kernel(kernel)
            assert main(["compress", str(path), *self.ARGS]) == 0
            outputs[kernel] = capsys.readouterr().out
        assert len(set(outputs.values())) == 1  # byte-identical output


class TestRemovedCacheFlags:
    """The MV match-column cache, the tuning profile, the gemm kernel,
    kernel selection and the pool-flavor choice are gone, and so are
    their flags, serve's `--jobs` and the `tune` command."""

    REMOVED = (
        (["--mv-cache-size", "0"], "unrecognized arguments"),
        (["--mv-cache-policy", "lru"], "unrecognized arguments"),
        (["--mv-cache-persist"], "unrecognized arguments"),
        (["--no-mv-cache-persist"], "unrecognized arguments"),
        (["--mv-feedback", "off"], "unrecognized arguments"),
        (["--profile", "profile.json"], "unrecognized arguments"),
        (["--kernel", "gemm"], "unrecognized arguments"),
        (["--kernel", "auto"], "unrecognized arguments"),
        (["--kernel", "bitpack"], "unrecognized arguments"),
        (["--backend", "process"], "unrecognized arguments"),
        (["--backend", "thread"], "unrecognized arguments"),
    )

    @pytest.mark.parametrize("argv", RUN_COMMANDS)
    def test_rejected_by_every_run_command(self, argv, capsys):
        for flag, message in self.REMOVED:
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args([*argv, *flag])
            assert info.value.code == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["request", "body.json", "--jobs", "4"],
            ["request", "body.json", "--backend", "thread"],
            ["request", "body.json", "--task-timeout", "0"],
            ["serve", "--backend", "thread"],
            ["serve", "--jobs", "2"],
        ],
    )
    def test_ignored_service_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_tune_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["tune", "--quick"])
        assert info.value.code == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err

    def test_absent_from_help(self, capsys):
        for argv in (["compress"], ["serve"], ["request"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*argv, "--help"])
            help_text = capsys.readouterr().out
            assert "--mv-" not in help_text
            assert "--profile" not in help_text
            assert "gemm" not in help_text
            assert "--kernel" not in help_text
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "tune" not in capsys.readouterr().out


class TestCacheCommand:
    def test_empty_cache_lists_and_clears(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for action in ("list", "info"):
            assert main(["cache", action]) == 0
            assert "(empty)" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 0 file(s)" in capsys.readouterr().out

    def test_explicit_dir_flag(self, tmp_path, capsys):
        assert main(["cache", "list", "--dir", str(tmp_path / "none")]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_default_mode_governs_the_native_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "list"]) == 0
        listing = capsys.readouterr().out
        assert f"cache directory: {tmp_path / 'native'}" in listing
        assert "mv_cache" not in listing

    @pytest.mark.skipif(not NATIVE_OK, reason="no C compiler")
    def test_native_builds_listed_and_cleared(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.core.kernels.build import compile_cached
        from repro.core.kernels.native import NATIVE_C_SOURCE

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        compile_cached(NATIVE_C_SOURCE, tmp_path / "native")
        assert main(["cache", "list"]) == 0
        listing = capsys.readouterr().out
        assert ".so" in listing
        assert main(["cache", "info"]) == 0
        info = capsys.readouterr().out
        assert "compiler:" in info
        assert "source_sha256:" in info
        assert main(["cache", "clear"]) == 0
        cleared = capsys.readouterr().out
        assert "removed 2 file(s)" in cleared  # .so + .json sidecar
        assert list((tmp_path / "native").iterdir()) == []


class TestKernelsCommand:
    def test_lists_every_backend_with_availability(self, capsys):
        assert main(["kernels"]) == 0
        output = capsys.readouterr().out
        assert "bitpack: available" in output
        assert "gemm" not in output and "scalar" not in output
        if NATIVE_OK:
            assert "native: available" in output
        else:
            assert "native: unavailable —" in output

    def test_reports_unavailability_reason(self, monkeypatch, capsys):
        from repro.core.kernels import native as native_module

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        native_module._reset_native_state()
        try:
            assert main(["kernels"]) == 0
            output = capsys.readouterr().out
            assert "native: unavailable — disabled via REPRO_NATIVE_DISABLE" in output
        finally:
            native_module._reset_native_state()

    def test_shape_prints_auto_pick(self, capsys):
        assert main(["kernels", "--shape", "32,3300,64,12"]) == 0
        output = capsys.readouterr().out
        expected = "native" if NATIVE_OK else "bitpack"
        assert (
            f"auto pick for shape C=32, D=3300, L=64, K=12: {expected}"
            in output
        )

    def test_bad_shape_is_a_usage_error(self, capsys):
        assert main(["kernels", "--shape", "1,2,3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "expected C,D,L,K" in err


class TestResolvedBackends:
    def test_jobs_one_resolves_serial(self):
        arguments = build_parser().parse_args(["table1", "--jobs", "1"])
        assert isinstance(resolve_backend(arguments.jobs), SerialBackend)

    def test_jobs_n_resolves_pool(self):
        arguments = build_parser().parse_args(["table1", "--jobs", "3"])
        backend = resolve_backend(arguments.jobs)
        assert isinstance(backend, ProcessBackend)
        assert backend.jobs == 3


class TestCompressCommand:
    def test_compress_file(self, tmp_path, capsys):
        path = tmp_path / "patterns.txt"
        path.write_text(
            "# demo patterns\n"
            + "\n".join(["11001100XXXX", "110011001111", "XXXX11001100"] * 6)
        )
        code = main(
            [
                "compress",
                str(path),
                "--k", "4",
                "--l", "6",
                "--runs", "1",
                "--stagnation", "5",
                "--max-evaluations", "120",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "9C" in output and "EA" in output


class TestBadInput:
    """Bad input ends in one ``repro: error: …`` line and exit 2."""

    def assert_one_line_error(self, argv, capsys, fragment):
        """Run ``argv``; check the error line and return the stdout."""
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert fragment in err
        return out

    def test_nonpositive_block_length(self, tmp_path, capsys):
        path = tmp_path / "patterns.txt"
        path.write_text("0101XXXX\n01010101\n")
        self.assert_one_line_error(
            ["compress", str(path), "--k", "0"], capsys, "block_length must be >= 1"
        )

    def test_invalid_pattern_character(self, tmp_path, capsys):
        path = tmp_path / "patterns.txt"
        path.write_text("0101\n01Q1\n")
        self.assert_one_line_error(
            ["compress", str(path)], capsys, "invalid trit character 'Q'"
        )

    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        self.assert_one_line_error(["compress", str(missing)], capsys, str(missing))

    def test_negative_retries_rejected(self, tmp_path, capsys):
        """Rejected before any work: compress prints nothing first."""
        path = tmp_path / "patterns.txt"
        path.write_text("0101XXXX\n01010101\n")
        out = self.assert_one_line_error(
            ["compress", str(path), "--retries", "-1"], capsys,
            "--retries must be >= 0, got -1",
        )
        assert out == ""

    @pytest.mark.parametrize(
        "extra", [["--task-timeout", "0"], ["--task-timeout", "-1", "--jobs", "2"]]
    )
    def test_nonpositive_task_timeout_rejected(self, extra, tmp_path, capsys):
        """Rejected before any work, on serial and pool runs alike."""
        path = tmp_path / "patterns.txt"
        path.write_text("0101XXXX\n01010101\n")
        out = self.assert_one_line_error(
            ["compress", str(path), *extra], capsys, "--task-timeout must be > 0"
        )
        assert out == ""

    @pytest.mark.parametrize(
        "shape", ["0,0,0,0", "5,100,64,-3", "5,0,64,12", "a,b,c,d"]
    )
    def test_bad_kernels_shape(self, shape, capsys):
        self.assert_one_line_error(
            ["kernels", "--shape", shape], capsys, "expected C,D,L,K"
        )

    def test_process_exit_status(self, tmp_path):
        import subprocess
        import sys

        from .conftest import subprocess_environment

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "compress", str(tmp_path / "absent.txt")],
            capture_output=True,
            text=True,
            timeout=120,
            env=subprocess_environment(),
        )
        assert completed.returncode == 2
        assert completed.stderr.startswith("repro: error: ")
        assert "Traceback" not in completed.stderr


class TestAtpgCommand:
    def test_atpg_c17(self, capsys):
        code = main(["atpg", "c17", "--k", "4", "--l", "8"])
        assert code == 0
        output = capsys.readouterr().out
        assert "fault coverage" in output
        assert "EA" in output


class TestJobsSmoke:
    """End-to-end --jobs: parallel output must equal the serial output."""

    ARGS = [
        "--k", "4",
        "--l", "6",
        "--runs", "2",
        "--stagnation", "5",
        "--max-evaluations", "120",
        "--seed", "3",
    ]

    def _patterns_file(self, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_text(
            "\n".join(["11001100XXXX", "110011001111", "XXXX11001100"] * 6)
        )
        return str(path)

    def test_compress_process_jobs_matches_serial(self, tmp_path, capsys):
        path = self._patterns_file(tmp_path)
        assert main(["compress", path, *self.ARGS, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["compress", path, *self.ARGS, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestFaultToleranceFlags:
    """--retries / --task-timeout / --resume parsing and wiring."""

    EVERY_COMMAND = (
        ["table1"],
        ["table2"],
        ["compress", "file.txt"],
        ["atpg", "c17"],
        ["ablate", "kl"],
        ["report"],
    )

    def test_defaults(self):
        for argv in self.EVERY_COMMAND:
            arguments = build_parser().parse_args(argv)
            assert arguments.retries == 1
            assert arguments.task_timeout is None

    def test_values_parsed_on_every_command(self):
        for argv in self.EVERY_COMMAND:
            arguments = build_parser().parse_args(
                [*argv, "--retries", "3", "--task-timeout", "2.5"]
            )
            assert arguments.retries == 3
            assert arguments.task_timeout == 2.5

    def test_retries_map_to_policy(self):
        from repro.cli import _resolve_fault_tolerance

        arguments = build_parser().parse_args(["table1", "--retries", "2"])
        retry, timeout = _resolve_fault_tolerance(arguments)
        assert retry is not None
        assert retry.max_attempts == 3  # N retries = N+1 attempts
        assert timeout is None

    def test_zero_retries_disable_policy(self):
        from repro.cli import _resolve_fault_tolerance

        arguments = build_parser().parse_args(["table1", "--retries", "0"])
        retry, _ = _resolve_fault_tolerance(arguments)
        assert retry is None

    def test_resume_flag_on_sweep_commands(self):
        for argv in (["table1"], ["table2"], ["ablate", "kl"], ["report"]):
            assert not build_parser().parse_args(argv).resume
            assert build_parser().parse_args([*argv, "--resume"]).resume

    def test_resume_not_offered_on_single_shot_commands(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", "file.txt", "--resume"])

    def test_resume_resolves_checkpoint_store(self, tmp_path, monkeypatch):
        from repro.cli import _resolve_checkpoint
        from repro.experiments.checkpoint import CheckpointStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        off = build_parser().parse_args(["table1"])
        assert _resolve_checkpoint(off) is None
        on = build_parser().parse_args(["table1", "--resume"])
        store = _resolve_checkpoint(on)
        assert isinstance(store, CheckpointStore)
        assert store.root == tmp_path / "checkpoints"

    def test_flags_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--help"])
        text = capsys.readouterr().out
        assert "--retries" in text
        assert "--task-timeout" in text
        assert "--resume" in text

    def test_fault_summary_silent_when_uneventful(self, capsys):
        from repro.cli import _print_fault_summary

        _print_fault_summary({"attempts": 12, "retries": 0, "resumed": 0})
        assert capsys.readouterr().err == ""

    def test_fault_summary_on_stderr_when_eventful(self, capsys):
        from repro.cli import _print_fault_summary

        _print_fault_summary({"attempts": 12, "retries": 2, "resumed": 3})
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout stays byte-stable
        assert "retries=2" in captured.err
        assert "resumed=3" in captured.err

    def test_compress_output_invariant_under_retries(self, tmp_path, capsys):
        path = tmp_path / "patterns.txt"
        path.write_text(
            "\n".join(["11001100XXXX", "110011001111", "XXXX11001100"] * 6)
        )
        args = ["compress", str(path), "--k", "4", "--l", "6", "--runs", "1",
                "--stagnation", "5", "--max-evaluations", "120", "--seed", "3"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main([*args, "--retries", "3", "--task-timeout", "600"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.slow
    def test_resumed_table_run_skips_journaled_work(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        args = ["table1", "--circuits", "s298", "--seed", "11", "--resume"]
        assert main(args) == 0
        first = capsys.readouterr()
        assert main(args) == 0
        second = capsys.readouterr()
        # Progress lines carry wall-clock timings; the rendered table
        # (everything after the progress block) must be byte-identical.
        assert second.out.split("\n\n", 1)[1] == first.out.split("\n\n", 1)[1]
        assert "resumed=" in second.err  # second run served from journal


class TestServeParser:
    def test_serve_defaults(self):
        arguments = build_parser().parse_args(["serve"])
        assert arguments.command == "serve"
        assert arguments.host == "127.0.0.1"
        assert arguments.port == 8477
        assert arguments.batch_window_ms == 5.0
        assert arguments.max_batch == 64
        assert arguments.max_queue == 256
        assert not hasattr(arguments, "jobs")

    def test_serve_overrides(self):
        arguments = build_parser().parse_args(
            ["serve", "--port", "0", "--batch-window-ms",
             "2.5", "--max-batch", "8", "--max-queue", "32"]
        )
        assert arguments.port == 0
        assert arguments.batch_window_ms == 2.5
        assert arguments.max_batch == 8
        assert arguments.max_queue == 32

    def test_request_defaults(self):
        arguments = build_parser().parse_args(["request", "body.json"])
        assert arguments.command == "request"
        assert arguments.file == "body.json"
        assert arguments.endpoint is None

    def test_request_endpoint_choices(self):
        arguments = build_parser().parse_args(
            ["request", "-", "--endpoint", "fitness"]
        )
        assert arguments.endpoint == "fitness"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["request", "-", "--endpoint", "nope"])

    def test_serve_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        help_text = capsys.readouterr().out
        assert "--batch-window-ms" in help_text
        assert "byte-inert" in help_text


class TestRequestCommand:
    TABLE = {
        "patterns": ["01X10X", "X10011", "110100", "0XX01X"],
        "block_length": 3,
        "name": "cli-test",
    }

    def _write(self, tmp_path, body):
        import json

        path = tmp_path / "body.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_tables_request(self, tmp_path, capsys):
        import json

        assert main(["request", self._write(tmp_path, self.TABLE)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["block_length"] == 3
        assert len(payload["digest"]) == 64

    def test_fitness_request_matches_service(self, tmp_path, capsys):
        from repro.serve import (
            CompressionService,
            WarmRegistry,
            canonical_json,
        )

        body = {
            "table": self.TABLE,
            "n_vectors": 3,
            "genomes": ["01U1U0UUU", "UUUUUUUUU"],
        }
        path = self._write(tmp_path, body)
        assert main(["request", path]) == 0
        out = capsys.readouterr().out
        reference = CompressionService(WarmRegistry()).run_fitness(body)
        assert out.encode() == canonical_json(reference)

    def test_compress_request_is_deterministic(self, tmp_path, capsys):
        body = {
            "table": self.TABLE,
            "seed": 5,
            "config": {
                "n_vectors": 3,
                "runs": 1,
                "ea": {"population_size": 8, "max_generations": 2},
            },
        }
        path = self._write(tmp_path, body)
        assert main(["request", path]) == 0
        first = capsys.readouterr().out
        assert main(["request", path]) == 0
        assert capsys.readouterr().out == first
        import json

        assert json.loads(first)["seed"] == 5

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["request", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid JSON" in captured.err

    def test_kernel_field_is_rejected(self, tmp_path, capsys):
        fitness = {"table": self.TABLE, "n_vectors": 3,
                   "genomes": ["UUUUUUUUU"], "kernel": "auto"}
        compress = {"table": self.TABLE, "seed": 5, "kernel": "auto"}
        for body, where in ((fitness, "/fitness body"), (compress, "/compress body")):
            assert main(["request", self._write(tmp_path, body)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: unknown {where} fields: kernel\n"

    def test_protocol_error_fails_cleanly(self, tmp_path, capsys):
        body = {"table": self.TABLE, "n_vectors": 3}  # no genomes
        assert main(["request", self._write(tmp_path, body),
                     "--endpoint", "fitness"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestObjectivesFlag:
    """--objectives routes compress/atpg to the Pareto-front mode."""

    PATTERNS = "\n".join(["11001100XXXX", "110011001111", "XXXX11001100"] * 6)

    def _args(self, path):
        return [
            "compress", str(path), "--k", "4", "--l", "6", "--runs", "2",
            "--stagnation", "5", "--max-evaluations", "120", "--seed", "3",
        ]

    def test_default_is_single_objective(self):
        for argv in (["compress", "file.txt"], ["atpg", "c17"]):
            assert build_parser().parse_args(argv).objectives == "rate"

    def test_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compress", "file.txt", "--objectives", "power"]
            )

    def test_explicit_rate_matches_default_output(self, tmp_path, capsys):
        path = tmp_path / "patterns.txt"
        path.write_text(self.PATTERNS)
        assert main(self._args(path)) == 0
        default = capsys.readouterr().out
        assert main([*self._args(path), "--objectives", "rate"]) == 0
        assert capsys.readouterr().out == default
        assert "### Pareto front" not in default

    def test_pareto_output_job_and_kernel_invariant(
        self, tmp_path, capsys, force_kernel
    ):
        path = tmp_path / "patterns.txt"
        path.write_text(self.PATTERNS)
        base = [*self._args(path), "--objectives", "rate+area+time"]
        outputs = {}
        variants = {
            "serial": ("auto", []),
            "jobs4": ("auto", ["--jobs", "4"]),
            "bitpack": ("bitpack", []),
        }
        if NATIVE_OK:
            variants["native"] = ("native", [])
        for name, (kernel, extra) in variants.items():
            force_kernel(kernel)
            assert main([*base, *extra]) == 0
            outputs[name] = capsys.readouterr().out
        assert len(set(outputs.values())) == 1  # byte-identical fronts
        assert "### Pareto front (rate, area, time)" in outputs["serial"]
        assert "hypervolume" in outputs["serial"]

    def test_two_objective_front(self, tmp_path, capsys):
        path = tmp_path / "patterns.txt"
        path.write_text(self.PATTERNS)
        assert main(
            [*self._args(path), "--objectives", "rate+area"]
        ) == 0
        out = capsys.readouterr().out
        assert "### Pareto front (rate, area)" in out
        assert "Time cycles" not in out
