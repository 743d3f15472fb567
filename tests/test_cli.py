"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["describe"])
        assert args.workload == "zipf"
        assert args.n == 1 << 12

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["describe", "--workload", "nope"])

    @pytest.mark.parametrize("argv", [
        ["l1", "--eps", "0"],
        ["heavy-hitters", "--eps", "1"],
        ["l1", "--n", "0"],
        ["l0", "--alpha", "0.5"],
        ["describe", "--m", "-5"],
        ["support", "--k", "0"],
        ["describe", "--chunk-size", "64"],
    ], ids=["eps_zero", "eps_one", "n_zero", "alpha_below_one",
            "m_negative", "k_zero", "chunk_size_on_describe"])
    def test_bad_flags_exit_2_with_usage(self, capsys, argv):
        """Out-of-range workload flags, and engine flags on the
        subcommands that replay nothing, are refused at parse time:
        exit status 2 and a usage line, never a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe", "--n", "256", "--m", "1000"]) == 0
        out = capsys.readouterr().out
        assert "alpha_l1" in out and "strict" in out

    def test_heavy_hitters(self, capsys):
        code = main([
            "heavy-hitters", "--n", "512", "--m", "3000",
            "--alpha", "4", "--eps", "0.125",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reported" in out and "bits" in out

    def test_l1_strict_path(self, capsys):
        assert main(["l1", "--n", "512", "--m", "3000", "--alpha", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_l1_general_path(self, capsys):
        # traffic workload is general turnstile -> Theorem 8 estimator.
        assert main([
            "l1", "--workload", "traffic", "--n", "2048", "--m", "8000",
            "--eps", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Theorem 8" in out

    def test_no_kernels_is_estimate_invariant(self, capsys):
        """With the pure-NumPy backend selected (what REPRO_KERNELS=off
        selects), every reported line except the updates/sec figure
        must match the kernel-backed replay exactly (the bit-identity
        contract, observed end to end through the CLI)."""
        from repro import kernels

        args = ["heavy-hitters", "--n", "512", "--m", "4000",
                "--alpha", "4", "--eps", "0.125"]
        assert main(args) == 0
        fused = capsys.readouterr().out
        with kernels.override("off"):
            assert main(args) == 0
        numpy_only = capsys.readouterr().out

        def answers(out):
            return [l for l in out.splitlines() if "throughput" not in l]

        assert answers(fused) == answers(numpy_only)

    def test_kernels_subcommand_reports_backend(self, capsys):
        """`repro kernels` prints the backend record and each kernel's
        self-test status."""
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "mode" in out and "active" in out
        for name in ("kwise_hash", "fused_table_update",
                     "cauchy_fold", "csss_scatter"):
            assert name in out

    def test_l0(self, capsys):
        assert main(["l0", "--workload", "sensor", "--n", "4096",
                     "--m", "20000"]) == 0
        out = capsys.readouterr().out
        assert "L0 estimate" in out and "live rows" in out

    def test_support(self, capsys):
        assert main(["support", "--workload", "sensor", "--n", "4096",
                     "--m", "20000", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out

    def test_generate_and_reload(self, tmp_path, capsys):
        out_path = tmp_path / "s.npz"
        assert main(["generate", "--n", "256", "--m", "500",
                     "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert main(["describe", "--stream", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "alpha_l1" in out


class TestLint:
    """Exit-code contract for `repro lint` (documented in
    ARCHITECTURE.md): 0 clean, 1 findings, 2 internal error."""

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import random\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "rng-discipline" in out and "1 finding" in out

    def test_internal_error_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "no" / "such.py")]) == 2
        assert "FileNotFoundError" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        import json

        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import random\n")
        assert main(["lint", "--format=json", str(tmp_path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        assert doc["findings"][0]["rule"] == "rng-discipline"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("rng-discipline", "lock-discipline",
                        "pickle-ban", "protocol-hygiene"):
            assert rule_id in out

    def test_repo_tree_is_clean(self, capsys):
        """The exact invocation CI gates on."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        paths = [str(root / p) for p in ("src", "tests", "benchmarks")
                 if (root / p).exists()]
        assert main(["lint", *paths]) == 0


class TestServe:
    def test_serve_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "0",
            "--session", "edge", "--session", "core",
            "--track", "countmin,frequency_vector",
            "--n", "1024", "--seed", "3", "--node", "1",
        ])
        assert args.command == "serve"
        assert args.session == ["edge", "core"]
        assert args.track == "countmin,frequency_vector"
        assert args.port == 0
        # durability knobs default to the non-durable service
        assert args.checkpoint_dir is None
        assert args.checkpoint_every is None
        assert args.checkpoint_keep == 3
        assert args.ingest_deadline is None

    def test_serve_parses_durability_flags(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--port", "0", "--session", "edge",
            "--checkpoint-dir", str(tmp_path),
            "--checkpoint-every", "250", "--checkpoint-keep", "5",
            "--ingest-deadline", "2.5",
        ])
        assert args.checkpoint_dir == str(tmp_path)
        assert args.checkpoint_every == 250
        assert args.checkpoint_keep == 5
        assert args.ingest_deadline == 2.5

    def test_serve_round_trips_a_request(self):
        """Boot the served loop in a thread via the service layer the
        subcommand uses, then hit it once — the CLI wiring (session
        pre-creation from flags) is exercised without a subprocess."""
        from repro.service import ServerThread, ServiceClient, SketchService

        service = SketchService()
        service.create_session("edge", n=512, seed=3, node=0,
                               track=["countmin", "frequency_vector"])
        with ServerThread(service) as handle:
            with ServiceClient(handle.host, handle.port,
                               client_id="cli") as client:
                client.ingest("edge", [1, 2], [5, 5])
                assert client.query("edge", "frequency_vector") == 10
