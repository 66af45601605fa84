"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, resolve_dataset, resolve_query
from repro.query.parser import QueryParseError


class TestResolveQuery:
    def test_path_spec(self):
        assert resolve_query("4-path").name == "4-path"

    def test_cycle_spec(self):
        assert resolve_query("5-cycle").name == "5-cycle"

    def test_clique_and_star(self):
        assert len(resolve_query("4-clique")) == 6
        assert len(resolve_query("3-star")) == 3

    def test_random_spec_with_probability(self):
        query = resolve_query("5-rand(0.6)")
        assert "5-rand" in query.name

    def test_lollipop(self):
        assert resolve_query("lollipop").name == "{3,2}-lollipop"

    def test_imdb_cycles(self):
        assert len(resolve_query("imdb-4-cycle")) == 4
        assert len(resolve_query("imdb-6-cycle")) == 6

    def test_datalog_body(self):
        query = resolve_query("E(x,y), E(y,z)")
        assert len(query) == 2

    def test_garbage_rejected(self):
        with pytest.raises(QueryParseError):
            resolve_query("17-nonsense&&&")


class TestResolveDataset:
    def test_snap_standin(self):
        database = resolve_dataset("wiki-Vote", scale=0.3)
        assert "E" in database

    def test_imdb(self):
        database = resolve_dataset("imdb", scale=0.3)
        assert "male_cast" in database

    def test_edge_list_path(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n2 3\n")
        database = resolve_dataset(str(path), scale=1.0)
        assert len(database.relation("E")) == 2


class TestCommands:
    def test_run_count(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--scale", "0.3", "--algorithm", "clftj"])
        assert code == 0
        output = capsys.readouterr().out
        assert "clftj" in output
        assert "3-cycle" in output

    def test_run_evaluate_with_rows(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "2-path",
                     "--scale", "0.3", "--mode", "evaluate", "--show-rows", "2"])
        assert code == 0
        assert "first 2 rows" in capsys.readouterr().out

    def test_run_with_cache_capacity(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "4-path",
                     "--scale", "0.3", "--cache-capacity", "10"])
        assert code == 0

    def test_compare(self, capsys):
        code = main(["compare", "--dataset", "wiki-Vote", "--query", "3-path",
                     "--scale", "0.3", "--algorithms", "lftj", "clftj"])
        assert code == 0
        output = capsys.readouterr().out
        assert "lftj" in output and "clftj" in output

    def test_plan(self, capsys):
        code = main(["plan", "--dataset", "wiki-Vote", "--query", "5-cycle",
                     "--scale", "0.3"])
        assert code == 0
        assert "variable order" in capsys.readouterr().out

    def test_run_auto_reports_selection(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "5-cycle",
                     "--scale", "0.3", "--algorithm", "auto"])
        assert code == 0
        assert "auto selected:" in capsys.readouterr().out

    def test_run_repeat_reports_cache_counters(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "4-cycle",
                     "--scale", "0.3", "--repeat", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "plan_cache_hits=" in output
        assert "index_builds=0" in output

    def test_run_mutate_streams_updates(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--scale", "0.3", "--repeat", "3", "--mutate", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("mutated E: +4 rows") == 2
        assert "index_patches=" in output
        assert "rebuilds_after_updates=0" in output

    def test_explain_auto(self, capsys):
        code = main(["explain", "--dataset", "wiki-Vote", "--query", "5-cycle",
                     "--scale", "0.3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "selected algorithm" in output
        assert "plan cache" in output
        assert "index cache" in output

    def test_explain_explicit_algorithm(self, capsys):
        code = main(["explain", "--dataset", "wiki-Vote", "--query", "4-cycle",
                     "--scale", "0.3", "--algorithm", "clftj"])
        assert code == 0
        assert "algorithm: clftj (explicit)" in capsys.readouterr().out

    def test_unused_parameter_is_a_clean_error(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-path",
                     "--scale", "0.3", "--algorithm", "lftj", "--cache-capacity", "5"])
        assert code == 2
        assert "does not use" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run"],
        ["compare", "--algorithms", "lftj", "clftj"],
    ])
    def test_dataset_column_is_filled_from_the_flag(self, capsys, command):
        code = main([*command, "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--scale", "0.3"])
        assert code == 0
        header, _rule, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[0] == "dataset"
        assert rows and all(row.split()[:2] == ["wiki-Vote", "3-cycle"] for row in rows)

    @pytest.mark.parametrize("flags,named", [
        (["--mutate", "5"], "--mutate 5"),
        (["--show-rows", "3"], "--show-rows 3"),
    ])
    def test_flag_that_cannot_take_effect_is_a_clean_error(self, capsys, flags, named):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--scale", "0.3", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.out == ""

    def test_removed_parallel_mode_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                  "--algorithm", "lftj", "--parallel", "2", "--parallel-mode", "static"])
        assert info.value.code == 2
        assert "--parallel-mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "explain"])
    def test_retired_generic_join_is_a_usage_error(self, capsys, command):
        """``generic_join`` is no registered algorithm, so argparse refuses it."""
        with pytest.raises(SystemExit) as info:
            main([command, "--dataset", "wiki-Vote", "--query", "3-cycle",
                  "--algorithm", "generic_join"])
        assert info.value.code == 2
        assert "invalid choice: 'generic_join'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,declined", [
        ([], False),
        (["--memory-budget", "1"], True),
    ])
    def test_run_prints_the_schedule_explain_prints(self, capsys, extra, declined):
        """`repro run --parallel N` ends with the schedule it ran, in the
        words `repro explain --parallel N` uses for the same request."""
        request = ["--dataset", "wiki-Vote", "--query", "4-path",
                   "--algorithm", "clftj", "--parallel", "2", *extra]
        assert main(["run", *request]) == 0
        ran = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("parallel:")]
        assert main(["explain", *request]) == 0
        explained = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("parallel:")]
        assert len(ran) == len(explained) == 1
        if declined:
            assert ran[0].startswith("parallel: declined, runs serial (memory budget: ")
            assert explained[0].startswith(ran[0][:ran[0].index("footprint")])
        else:
            prefix = "parallel: workers=2, "
            assert ran[0].startswith(prefix) and explained[0].startswith(prefix)

    def test_datasets_listing(self, capsys):
        code = main(["datasets"])
        assert code == 0
        output = capsys.readouterr().out
        assert "wiki-Vote" in output
        assert "imdb" in output

    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "wiki-Vote", "--query", "3-path", "--algorithm", "magic"]
            )
