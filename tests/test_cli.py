"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_present(self):
        parser = build_parser()
        for command in ("table1", "figure8", "table3", "figure9",
                        "figure10", "ablations", "pack"):
            args = parser.parse_args(
                [command] if command != "pack" else [command, "181.mcf"]
            )
            assert args.command == command

    def test_bench_filter_repeatable(self):
        args = build_parser().parse_args(
            ["figure8", "--bench", "130.li/B", "--bench", "181.mcf/A"]
        )
        assert args.bench == ["130.li/B", "181.mcf/A"]

    def test_unknown_benchmark_exits(self):
        with pytest.raises(SystemExit):
            main(["figure8", "--bench", "nope/A", "--scale", "0.1"])


class TestCommands:
    def test_table1_single_input(self, capsys, tmp_path):
        out = tmp_path / "t1.txt"
        code = main([
            "table1", "--bench", "181.mcf/A", "--scale", "0.2",
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "181.mcf" in captured
        assert "Table 1" in out.read_text()

    def test_pack_command(self, capsys):
        code = main(["pack", "181.mcf", "A", "--scale", "0.2"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "unique phases" in captured
        assert "coverage" in captured

    def test_pack_with_classic_passes(self, capsys):
        code = main(["pack", "181.mcf", "A", "--scale", "0.2", "--classic"])
        assert code == 0
        assert "coverage" in capsys.readouterr().out


class TestConfigFlag:
    def test_pack_accepts_pipeline_config(self, capsys, tmp_path):
        import json

        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps({"classic": True, "validate": False}))
        code = main(["pack", "181.mcf", "A", "--scale", "0.2",
                     "--config", str(path)])
        assert code == 0
        assert "coverage" in capsys.readouterr().out

    def test_missing_config_file_exits(self):
        with pytest.raises(SystemExit):
            main(["pack", "181.mcf", "A", "--config", "/nope/missing.json"])

    def test_invalid_config_document_exits(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"clasic": true}')
        with pytest.raises(SystemExit):
            main(["pack", "181.mcf", "A", "--config", str(path)])

    def test_ingest_flag_aliases(self, tmp_path):
        parser = build_parser()
        canonical = parser.parse_args(
            ["ingest", "--bench", "181.mcf/A", "--runs", "2",
             "--seed", "7", "--out", str(tmp_path)]
        )
        assert canonical.seed == 7
        assert canonical.out == str(tmp_path)

    def test_jobs_flag_uniform(self):
        parser = build_parser()
        serve_required = ["--profiles", "p", "--bench", "181.mcf/A"]
        for argv in (["faults", "--jobs", "2"],
                     ["fuzz", "--jobs", "2"],
                     ["serve", "--jobs", "2"] + serve_required,
                     ["figure8", "--jobs", "2"]):
            assert parser.parse_args(argv).jobs == 2


class TestTraceCommand:
    def test_trace_pack_writes_parseable_ledger(self, capsys, tmp_path):
        import json

        out = tmp_path / "ledger.json"
        code = main([
            "trace", "pack", "181.mcf", "A", "--scale", "0.2",
            "--trace-out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "pipeline.profile" in captured
        assert "trace written to" in captured
        document = json.loads(out.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert "repro.pack" in names and "vacuum.pack" in names

    def test_trace_jsonl_export(self, tmp_path):
        out = tmp_path / "ledger.jsonl"
        code = main([
            "trace", "pack", "181.mcf", "A", "--scale", "0.2",
            "--export=jsonl", "--trace-out=" + str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_trace_rejects_tracing_trace(self):
        with pytest.raises(SystemExit):
            main(["trace", "trace", "pack", "181.mcf"])

    def test_trace_rejects_empty_command(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_trace_rejects_bad_export_format(self):
        with pytest.raises(SystemExit):
            main(["trace", "pack", "181.mcf", "--export", "xml"])

    def test_stats_renders_written_ledger(self, capsys, tmp_path):
        out = tmp_path / "ledger.json"
        main(["trace", "pack", "181.mcf", "A", "--scale", "0.2",
              "--trace-out", str(out)])
        capsys.readouterr()
        code = main(["stats", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "pipeline.pack" in captured

    def test_stats_reexports(self, capsys, tmp_path):
        src = tmp_path / "ledger.json"
        dst = tmp_path / "ledger.jsonl"
        main(["trace", "pack", "181.mcf", "A", "--scale", "0.2",
              "--trace-out", str(src)])
        capsys.readouterr()
        code = main(["stats", str(src), "--export", "jsonl",
                     "--out", str(dst)])
        assert code == 0
        assert dst.exists()

    def test_stats_on_garbage_exits(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        with pytest.raises(SystemExit):
            main(["stats", str(path)])
