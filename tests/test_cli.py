"""CLI smoke tests: every subcommand runs and prints sane output."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_volume(self, capsys):
        assert main(["volume", "--scheme", "oktopk", "--n", "2048",
                     "--p", "4", "--k", "32"]) == 0
        out = capsys.readouterr().out
        assert "measured words per rank" in out

    def test_volume_density_resolves_k(self, capsys):
        assert main(["volume", "--n", "1000", "--p", "2",
                     "--density", "0.05"]) == 0
        assert "k=50" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1", "--n", "1024", "--p", "4", "--k", "16"]) == 0
        out = capsys.readouterr().out
        assert "oktopk" in out and "dense" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "14,728,266" in out
        assert "133,547,324" in out

    def test_scaling(self, capsys):
        assert main(["scaling", "--model", "vgg16", "--p", "16"]) == 0
        out = capsys.readouterr().out
        assert "weak scaling" in out and "oktopk" in out

    def test_train(self, capsys):
        assert main(["train", "--workload", "lstm", "--scheme", "oktopk",
                     "--workers", "2", "--iters", "3"]) == 0
        out = capsys.readouterr().out
        assert "final loss" in out and "breakdown" in out

    def test_serve(self, capsys):
        assert main(["serve", "--workers", "4", "--requests", "8",
                     "--rate", "1500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out and "TTFT" in out and "p99" in out
        assert "allreduce/" in out  # algorithm provenance line

    def test_serve_arg_parsing(self):
        ap = build_parser()
        args = ap.parse_args(["serve", "--workers", "2", "--requests", "5",
                              "--prompt-tokens", "16:32",
                              "--algorithm", "bandwidth",
                              "--max-wait", "1e-4"])
        assert args.workers == 2 and args.requests == 5
        assert args.prompt_tokens == "16:32"
        assert args.algorithm == "bandwidth" and args.max_wait == 1e-4

    def test_serve_bad_token_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "4", "--prompt-tokens", "x:y"])

    def test_serve_is_seeded(self, capsys):
        argv = ["serve", "--workers", "2", "--requests", "6", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_serve_sweep(self, capsys):
        assert main(["serve", "--workers", "2", "--requests", "6",
                     "--sweep", "500", "4000"]) == 0
        out = capsys.readouterr().out
        assert "offered req/s" in out
        # one row per swept rate
        assert len([ln for ln in out.splitlines()
                    if ln.strip() and ln.lstrip()[0].isdigit()]) == 2

    def test_serve_trace(self, capsys, tmp_path):
        from repro.serve import Workload

        wl = Workload.poisson(5, 1000.0, seed=3)
        trace = tmp_path / "trace.json"
        trace.write_text(wl.to_json())
        assert main(["serve", "--workers", "2",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "requests=5" in out

    def test_runner_choices(self):
        ap = build_parser()
        for runner in ("coop", "threads"):
            assert ap.parse_args(["--runner", runner, "volume"]).runner \
                == runner
        with pytest.raises(SystemExit):
            ap.parse_args(["--runner", "gen", "volume"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_parser_help_lists_subcommands(self):
        ap = build_parser()
        help_text = ap.format_help()
        for cmd in ("volume", "table1", "table2", "scaling", "train",
                    "serve"):
            assert cmd in help_text
