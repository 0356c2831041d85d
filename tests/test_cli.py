"""Command-line behaviour: outputs, formats, exit codes, determinism."""

import errno
import json
import os
import subprocess
import sys

import pytest

from nsgbounds import build_gmgen_table, build_lgm_table, cli, enumeration, survey
from nsgbounds.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_OSERR,
    EXIT_RESOURCE,
    EXIT_USAGE,
    _render_table,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMember:
    def test_not_member(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--gens", "5,7,18", "--value", "16")
        assert code == EXIT_OK
        assert out.strip() == "not a member"

    def test_member_with_representation(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--gens", "5,7", "--value", "24")
        assert code == EXIT_OK
        assert out.strip() == "member, 24 = 2*5 + 2*7"

    def test_small_gap(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--gens", "2,3", "--value", "1")
        assert code == EXIT_OK
        assert out.strip() == "not a member"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--gens", "5,7", "--value", "24",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["representation"] == {"m": 2, "n": 2, "a": 5, "b": 7}

    def test_negative_value(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--gens", "5,7", "--value", "-3")
        assert code == EXIT_OK and out.strip() == "not a member"


class TestBounds:
    def test_counterexample_text(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--gens", "5,7,18", "--q", "9")
        assert code == EXIT_OK
        assert "lewittes : 46" in out
        assert "gm       : 46" in out
        assert "coincide : yes" in out
        assert "sufficient condition: no" in out

    def test_closed_method(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--gens", "5,7", "--q", "9",
                               "--method", "closed", "--format", "json")
        payload = json.loads(out)
        assert payload["gm"] == 44 and payload["gm_method"] == "closed"

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--gens", "2,3", "--q", "2",
                               "--format", "json", "--check")
        payload = json.loads(out)
        assert payload["lewittes"] == 5 and payload["gm"] == 5
        assert payload["serre"] == 5
        assert payload["gm_generators"] == [2] and payload["non_gm_generators"] == [3]

    def test_closed_rejected_for_three_generators(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--gens", "5,7,18", "--q", "9", "--method", "closed"])
        assert info.value.code == EXIT_USAGE


class TestUsageErrors:
    def test_non_coprime_gens(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["member", "--gens", "4,6", "--value", "3"])
        assert info.value.code == EXIT_USAGE

    def test_bad_gens_syntax(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["member", "--gens", "4,x", "--value", "3"])
        assert info.value.code == EXIT_USAGE

    def test_bad_genus_range(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table", "lgm", "--genus", "9..2"])
        assert info.value.code == EXIT_USAGE

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("setting", ["0", "-1", "NSG_WORKERS=0", "NSG_WORKERS=-3",
                                         "NSG_WORKERS=abc", "--node-budget=0"])
    def test_workers_must_be_positive(self, capsys, monkeypatch, setting):
        argv = ["table", "gmgens", "--genus", "2..4"]
        if setting.startswith("NSG_WORKERS="):
            monkeypatch.setenv("NSG_WORKERS", setting.partition("=")[2])
        elif setting.startswith("--"):
            argv.append(setting)
        else:
            argv += ["--workers", setting]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive integer" in captured.err

    @pytest.mark.parametrize("seed", ["-3", "-1", "x"])
    def test_seed_must_be_non_negative(self, capsys, seed):
        with pytest.raises(SystemExit) as info:
            main(["table", "lgm", "--genus", "2..4", "--selfcheck", "--seed", seed])
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-negative integer" in captured.err

    @pytest.mark.parametrize("argv", [["table", "lgm", "--q", "2,3,2"],
                                      ["verify", "--q-list", "9,9"]])
    def test_duplicate_q_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "q values must be distinct" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "--gens", "3,5", "--q", "0"], "positive integer"),
        (["table", "gmgens", "--genus", "2..4", "--q", "7"],
         "--q applies to the lgm table only"),
        (["table", "gmgens", "--genus", "2..4", "--seed", "5"],
         "--seed applies with --selfcheck only"),
        (["table", "lgm", "--genus", "2..4", "--seed", "5"],
         "--seed applies with --selfcheck only"),
        (["verify", "--a-max", "1"], "integer of at least 2"),
        (["verify", "--b-max", "2"], "integer of at least 3"),
    ], ids=["bounds-q-0", "gmgens-q", "gmgens-seed", "lgm-seed-alone", "verify-a-max",
            "verify-b-max"])
    def test_ignored_or_empty_input_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err

    def test_selfcheck_is_for_lgm_only(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table", "gmgens", "--genus", "2..4", "--selfcheck"])
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--selfcheck applies to the lgm table only" in captured.err

    @pytest.mark.parametrize("reference", [None, "", "genus,x\nx,50.00\n",
                                           "genus,x\n2,half\n"])
    def test_bad_reference_fails_before_the_walk(self, capsys, monkeypatch, tmp_path,
                                                  reference):
        path = tmp_path / "ref.csv"  # None: the file does not exist
        if reference is not None:
            path.write_text(reference)
        monkeypatch.setattr(cli, "build_lgm_table", self._no_walk)
        code, out, err = run_cli(capsys, "table", "lgm", "--genus", "2..4",
                                 "--reference", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("nsgbounds: ") and err.count("\n") == 1

    def test_bad_out_fails_before_the_walk(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "missing" / "t.csv"
        monkeypatch.setattr(cli, "build_gmgen_table", self._no_walk)
        code, out, err = run_cli(capsys, "table", "gmgens", "--genus", "2..4",
                                 "--out", str(target))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("nsgbounds: ") and err.count("\n") == 1
        assert str(target) in err

    @staticmethod
    def _no_walk(*args, **kwargs):
        raise AssertionError("no table may be built")

    def test_no_fork_is_a_clear_error(self, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        code, out, err = run_cli(capsys, "table", "gmgens", "--genus", "2..6",
                                 "--workers", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("nsgbounds: ") and err.count("\n") == 1
        assert "'fork'" in err

    @pytest.mark.parametrize("fault", ["dies", "cannot fork"])
    def test_pool_worker_failure_is_an_os_error(self, capsys, monkeypatch, fault):
        if fault == "dies":  # the worker returns at once, so it exits with status 1
            monkeypatch.setattr(enumeration, "_serve", lambda *args: None)
        else:
            def no_fork():
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", no_fork)
        code, out, err = run_cli(capsys, "table", "gmgens", "--genus", "2..10",
                                 "--workers", "2")
        assert code == EXIT_OSERR and out == ""
        assert err.startswith("nsgbounds: ") and err.count("\n") == 1
        assert "pool worker" in err

    def test_no_fork_leaves_the_out_file_alone(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "keep.csv"
        target.write_text("genus,old\n")
        monkeypatch.delattr(os, "fork")
        code, out, err = run_cli(capsys, "table", "gmgens", "--genus", "2..6",
                                 "--workers", "2", "--out", str(target))
        assert code == EXIT_USAGE and out == ""
        assert "'fork'" in err
        assert target.read_text() == "genus,old\n"


class TestVerify:
    def test_smallest_sweep_checks_one_pair(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a-max", "2", "--b-max", "3",
                               "--q-list", "2,9")
        assert code == EXIT_OK
        assert out.strip() == "all agree (2 cases)"

    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a-max", "5", "--b-max", "10",
                               "--q-list", "2,3,9")
        assert code == EXIT_OK
        assert out.startswith("all agree (")

    def test_default_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == EXIT_OK
        assert out.strip() == "all agree (13842 cases)"

    def test_injected_fault(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--a-max", "3", "--b-max", "5",
                               "--q-list", "2", "--inject-fault")
        assert code == EXIT_MISMATCH
        assert "MISMATCH" in err


class TestTable:
    def test_csv_golden(self, capsys):
        code, out, _ = run_cli(capsys, "table", "lgm", "--genus", "2..4",
                               "--q", "2,3", "--format", "csv")
        assert code == EXIT_OK
        assert out == (
            "genus,Lewittes = Geil-Matsumoto (q=2),Lewittes = Geil-Matsumoto (q=3),"
            "q <= floor(q/l1)*l2 (q=2),q <= floor(q/l1)*l2 (q=3)\n"
            "2,50.00,100,50.00,100\n"
            "3,25.00,75.00,25.00,75.00\n"
            "4,42.86,57.14,14.29,42.86\n"
        )

    def test_single_genus_range(self, capsys):
        code, out, _ = run_cli(capsys, "table", "lgm", "--genus", "2..2",
                               "--q", "2", "--format", "csv")
        assert code == EXIT_OK
        assert out.strip().split("\n")[1] == "2,50.00,50.00"

    def test_gmgens_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "gmgens", "--genus", "2..3",
                               "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[1] == "2,1.50,1.00,60.00,40.00,41.67"
        assert lines[2] == "3,1.75,1.00,63.64,36.36,35.42"

    def test_worker_count_does_not_change_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "lgm", "--genus", "2..7", "--q", "2,9",
                             "--format", "csv", "--workers", "1")
        _, out2, _ = run_cli(capsys, "table", "lgm", "--genus", "2..7", "--q", "2,9",
                             "--format", "csv", "--workers", "2")
        assert out1 == out2

    def test_gmgens_bytes_for_any_worker_count(self, capsys):
        outs = {run_cli(capsys, "table", "gmgens", "--genus", "2..12", "--format", "csv",
                        "--workers", w) for w in ("1", "2", "3")}
        assert len(outs) == 1
        assert outs.pop()[0] == EXIT_OK

    def test_nsg_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NSG_WORKERS", "2")
        code, out, _ = run_cli(capsys, "table", "lgm", "--genus", "2..5",
                               "--q", "2", "--format", "csv")
        assert code == EXIT_OK
        assert out.strip().split("\n")[1] == "2,50.00,50.00"

    def test_budget_truncation(self, capsys):
        code, out, err = run_cli(capsys, "table", "lgm", "--genus", "2..12",
                                 "--q", "2", "--format", "csv", "--node-budget", "60")
        assert code == EXIT_RESOURCE
        assert "# truncated: node budget exceeded" in out
        assert out.startswith("genus,")
        assert "node budget" in err

    @pytest.mark.parametrize("kind", ["lgm", "gmgens"])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_render_truncated(self, kind, fmt):
        q_list = (2, 9)
        rows = (build_lgm_table(range(2, 5), q_list) if kind == "lgm"
                else build_gmgen_table(range(2, 5)))
        whole = _render_table(kind, rows, q_list, fmt)
        cut = _render_table(kind, rows, q_list, fmt, truncated=True)
        if fmt == "json":
            assert cut.endswith("}\n")
            assert json.loads(cut) == {**json.loads(whole), "truncated": True}
        else:
            assert cut == whole + "# truncated: node budget exceeded\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "gmgens", "--genus", "2..2",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["rows"][0]["mean_gm"] == "1.50"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "table", "lgm", "--genus", "2..3",
                               "--q", "2", "--format", "csv", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert target.read_text().startswith("genus,")

    def test_reference_comparison(self, capsys):
        code, _, err = run_cli(capsys, "table", "lgm", "--genus", "2..6",
                               "--q", "2,3,9,16,256", "--format", "csv",
                               "--reference", "auto")
        assert code == EXIT_OK
        assert "reference match" in err

    def test_reference_mismatch_detected(self, capsys, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("genus,Lewittes = Geil-Matsumoto (q=2)\n2,49.00\n")
        code, _, err = run_cli(capsys, "table", "lgm", "--genus", "2..2",
                               "--q", "2", "--format", "csv",
                               "--reference", str(ref))
        assert code == EXIT_MISMATCH
        assert "DEVIATION" in err

    def test_selfcheck(self, capsys):
        code, _, err = run_cli(capsys, "table", "lgm", "--genus", "2..5",
                               "--q", "2,9", "--format", "csv",
                               "--selfcheck", "--seed", "3")
        assert code == EXIT_OK
        assert "selfcheck passed" in err

    # genus 2..12 walks 3335 nodes for the table; the selfcheck walks none of its own
    @pytest.mark.parametrize("budget, overrun", [(3334, 12), (3335, None), (6670, None)])
    def test_selfcheck_shares_the_node_budget(self, capsys, budget, overrun):
        code, out, err = run_cli(capsys, "table", "lgm", "--genus", "2..12",
                                 "--format", "csv", "--node-budget", str(budget),
                                 "--selfcheck")
        if overrun is None:
            assert code == EXIT_OK
            assert len(out.splitlines()) == 12 and "truncated" not in out
            assert "selfcheck passed" in err
        else:
            assert code == EXIT_RESOURCE
            assert out.splitlines()[-1] == "# truncated: node budget exceeded"
            assert err == f"nsgbounds: node budget exhausted while computing genus {overrun}\n"

    def test_selfcheck_output_does_not_depend_on_workers(self, capsys):
        runs = [run_cli(capsys, "table", "lgm", "--genus", "2..13", "--format", "csv",
                        "--selfcheck", "--seed", "11", "--workers", str(w))
                for w in (1, 2, 3)]
        assert runs[0][0] == EXIT_OK and "selfcheck passed on" in runs[0][2]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_selfcheck_with_q_one_does_not_depend_on_workers(self, capsys):
        runs = [run_cli(capsys, "table", "lgm", "--genus", "0..13", "--q", "1,2,3,4",
                        "--format", "csv", "--selfcheck", "--workers", w) for w in ("1", "3")]
        assert runs[0][0] == EXIT_OK and "selfcheck passed on" in runs[0][2]
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_selfcheck_reports_mismatches(self, capsys, monkeypatch, workers):
        criterion = survey.coincidence_criterion
        monkeypatch.setattr(survey, "coincidence_criterion",
                            lambda S, q: not criterion(S, q))
        code, out, err = run_cli(capsys, "table", "lgm", "--genus", "2..10", "--q", "2,9",
                                 "--format", "csv", "--selfcheck", "--workers", workers)
        assert code == EXIT_MISMATCH
        assert len(out.splitlines()) == 10
        lines = err.splitlines()
        assert lines and all(ln.startswith("SELFCHECK MISMATCH genus=") for ln in lines)
        assert len(lines) % 2 == 0  # every sampled semigroup fails for both q


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nsgbounds", "member", "--gens", "2,3",
             "--value", "7"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "member" in proc.stdout
