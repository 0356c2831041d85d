"""Command-line behaviour: outputs, formats, exit codes, determinism."""

import errno
import json
import os
import subprocess
import sys

import pytest

import nsgbounds
from nsgbounds import cli, enumeration, survey
from nsgbounds.cli import (
    EXIT_MISMATCH,
    EXIT_IOERR,
    EXIT_OK,
    EXIT_OSERR,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)

from conftest import oracle_gm_count, run_python


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

    def test_member_without_representation(self, capsys):
        # only a two-generator semigroup prints its representation
        code, out, _ = run_cli(capsys, "member", "--gens", "5,7,18", "--value", "12")
        assert code == EXIT_OK
        assert out == "member\n"

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

    def test_full_semigroup_warns_in_one_line(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--gens", "1", "--q", "3")
        assert code == EXIT_OK and "lewittes : 4" in out
        assert err == ("nsgbounds: warning: multiplicity 1: every non-negative integer "
                       "is a member, the bound degenerates to q + 1\n")

    @pytest.mark.parametrize("gens, q", [
        ("12,18,20,27", 16),  # no generator coprime to l1
        ("4,6,10,9", 9),  # 10 = 4 + 6 is redundant
    ], ids=["none-coprime-to-l1", "redundant"])
    def test_check_matches_the_oracle(self, capsys, gens, q):
        code, out, err = run_cli(capsys, "bounds", "--gens", gens, "--q", str(q), "--check",
                                 "--format", "json")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["gm"] == oracle_gm_count(map(int, gens.split(",")), q)

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
        for gens, message in (("4,x", "not a comma-separated integer list"),
                              ("0,3", "generators must be positive")):
            with pytest.raises(SystemExit) as info:
                main(["member", "--gens", gens, "--value", "3"])
            assert info.value.code == EXIT_USAGE
            assert message in capsys.readouterr().err

    def test_bad_genus_range(self, capsys):
        for genus, message in (("9..2", "bad genus range"),
                               ("abc", "expected A..B or a single genus")):
            with pytest.raises(SystemExit) as info:
                main(["table", "lgm", "--genus", genus])
            assert info.value.code == EXIT_USAGE
            assert message in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("setting", ["0", "-1", "--node-budget=0"])
    def test_workers_must_be_positive(self, capsys, setting):
        argv = ["table", "gmgens", "--genus", "2..4"]
        if setting.startswith("--"):
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

    # the last three share a genus and a column with the table, so only their
    # ragged row, their repeated genus and their signed cell make them bad
    @pytest.mark.parametrize("reference", [
        None, "", "genus,x\nx,50.00\n", "genus,x\n2,half\n",
        pytest.param("genus,Lewittes = Geil-Matsumoto (q=2)\n2,50.00,1.00\n", id="ragged"),
        pytest.param("genus,Lewittes = Geil-Matsumoto (q=2)\n2,50.00\n2,50.00\n",
                     id="repeated-genus"),
        pytest.param("genus,Lewittes = Geil-Matsumoto (q=2)\n2,-0.50\n", id="signed")])
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

    def test_reference_sharing_no_genus_fails_before_the_walk(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_gmgen_table", self._no_walk)
        monkeypatch.setattr(cli, "build_lgm_table", self._no_walk)
        lgm_path = os.path.join(os.path.dirname(cli.__file__), "data", "reference_lgm.csv")
        for args, reason in [
            # the bundled references start at genus 2, so 0..1 would compare nothing
            (("gmgens", "--genus", "0..1", "--reference", "auto"),
             "auto: shares no genus with --genus 0..1"),
            # the bundled lgm reference has no q=5 or q=7 column
            (("lgm", "--genus", "2..5", "--q", "5,7", "--format", "csv", "--reference", "auto"),
             "auto: shares no column with the lgm table"),
            (("gmgens", "--genus", "2..4", "--reference", lgm_path),
             f"{lgm_path}: shares no column with the gmgens table"),
        ]:
            code, out, err = run_cli(capsys, "table", *args)
            assert code == EXIT_USAGE and out == ""
            assert err == f"nsgbounds: reference {reason}\n"
        monkeypatch.undo()
        code, _, err = run_cli(capsys, "table", "gmgens", "--genus", "0..3",
                               "--reference", "auto")  # the rows both tables have
        assert code == EXIT_OK
        assert err == "reference match: 10 cells within one ulp\n"
        code, _, err = run_cli(capsys, "table", "lgm", "--genus", "2..12", "--q", "2,5",
                               "--reference", "auto")  # the columns both tables have
        assert code == EXIT_OK
        assert err == "reference match: 22 cells within one ulp\n"

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

    # q = 10**17 scans a window of about 3*10**17 bits, more than any
    # address space holds, so the allocation fails at once
    @pytest.mark.parametrize("argv", [
        ("bounds", "--gens", "3,5", "--q", str(10 ** 17), "--check"),
        ("bounds", "--gens", "3,5,7", "--q", str(10 ** 17), "--check"),
        ("table", "lgm", "--genus", "2..12", "--q", str(10 ** 17), "--selfcheck",
         "--format", "csv", "--workers", "1"),
        ("table", "lgm", "--genus", "2..12", "--q", str(10 ** 17), "--selfcheck",
         "--format", "csv", "--workers", "2"),
    ], ids=["two-gen", "three-gen", "selfcheck", "pooled-selfcheck"])
    def test_out_of_memory_is_an_os_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OSERR and out == ""
        assert err == "nsgbounds: out of memory\n"
        with pytest.raises(ChildProcessError):  # every pool worker is reaped
            os.waitpid(-1, os.WNOHANG)

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

    @pytest.mark.parametrize("argv, cases", [
        (("--q-list", "1,2,3"), 2307),  # q = 1 lies below every a of the sweep
        (("--a-max", "40", "--b-max", "80"), 25074),
    ], ids=["q-one", "b-to-80"])
    def test_sweep_past_the_defaults(self, capsys, argv, cases):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == EXIT_OK
        assert out == f"all agree ({cases} cases)\n"

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

    @pytest.mark.parametrize("argv, row", [
        pytest.param(("lgm", "--genus", "2..2", "--q", "2"), "2,50.00,50.00", id="2..2"),
        pytest.param(("lgm", "--genus", "2", "--q", "2"), "2,50.00,50.00", id="2"),
        pytest.param(("gmgens", "--genus", "7..7"), "7,2.79,1.62,63.37,36.63,39.13",
                     id="gmgens-7..7"),
        pytest.param(("gmgens", "--genus", "7"), "7,2.79,1.62,63.37,36.63,39.13",
                     id="gmgens-7"),
    ])
    def test_single_genus_range(self, capsys, argv, row):
        code, out, _ = run_cli(capsys, "table", *argv, "--format", "csv")
        assert code == EXIT_OK
        assert out.strip().split("\n")[1:] == [row]

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

    def test_budget_truncation(self, capsys):
        # rows 2..5 walk 54 nodes and row 6 another 50: no row is printed
        code, out, err = run_cli(capsys, "table", "lgm", "--genus", "2..12",
                                 "--q", "2", "--format", "csv", "--node-budget", "60")
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err == "nsgbounds: node budget exhausted while computing genus 6\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_an_overrun_leaves_out_empty(self, capsys, tmp_path, workers):
        target = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "table", "gmgens", "--genus", "2..16",
                                 "--node-budget", "20000", "--workers", workers,
                                 "--out", str(target))
        assert code == EXIT_RESOURCE and out == ""
        assert err == "nsgbounds: node budget exhausted while computing genus 16\n"
        assert target.read_text() == ""
        with pytest.raises(ChildProcessError):  # no pool worker is left running
            os.waitpid(-1, os.WNOHANG)

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
            assert len(out.splitlines()) == 12
            assert "selfcheck passed" in err
        else:
            assert code == EXIT_RESOURCE
            assert out == ""
            assert err == f"nsgbounds: node budget exhausted while computing genus {overrun}\n"

    def test_selfcheck_output_does_not_depend_on_workers(self, capsys):
        runs = [run_cli(capsys, "table", "lgm", "--genus", "2..13", "--format", "csv",
                        "--selfcheck", "--seed", "11", "--reference", "auto",
                        "--workers", str(w))
                for w in (1, 2, 3)]
        assert runs[0][0] == EXIT_OK
        assert runs[0][2] == ("reference match: 120 cells within one ulp\n"
                              "selfcheck passed on 21 sampled semigroups\n")
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


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


class TestWriteErrors:
    @staticmethod
    def _run(argv, stdout, stderr, unbuffered):
        # a buffered stream keeps the bytes it could not write, and Python
        # flushes it again at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return run_python("-m", "nsgbounds", *argv, stdout=stdout, stderr=stderr, text=True,
                          env=env)

    def _verify_to(self, stdout, unbuffered):
        return self._run(("verify", "--a-max", "5", "--b-max", "10"), stdout,
                         subprocess.PIPE, unbuffered)

    @needs_dev_full
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_verify_to_a_full_stdout(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self._verify_to(full, unbuffered)
        assert proc.returncode == EXIT_IOERR
        assert proc.stderr.startswith("nsgbounds: cannot write output: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_verify_to_a_closed_pipe(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._verify_to(write_end, unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""

    @needs_dev_full
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [
        ("bounds", "--gens", "1", "--q", "3"),  # a warning
        ("table", "gmgens", "--genus", "2..4", "--reference", "auto"),  # the match line
        ("table", "gmgens", "--genus", "2..4", "--node-budget", "5"),  # the overrun line
        ("bounds", "--gens", "3,5", "--q", str(10 ** 17), "--check"),  # out of memory
    ], ids=["warning", "reference", "overrun", "out-of-memory"])
    def test_a_full_stderr(self, argv, unbuffered):
        # the error line cannot be written either, and no traceback is tried
        with open("/dev/full", "w") as full:
            proc = self._run(argv, subprocess.DEVNULL, full, unbuffered)
        assert proc.returncode == EXIT_IOERR

    @staticmethod
    def _run_with_stdout_closed(argv, cwd):
        # the child closes fd 1 and then starts nsgbounds, which finds no stdout
        start = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"
        return run_python("-c", start, sys.executable, "-m", "nsgbounds", *argv,
                          stderr=subprocess.PIPE, text=True, cwd=cwd)

    @pytest.mark.parametrize("argv", [
        ("verify", "--a-max", "5", "--b-max", "10"),
        ("member", "--gens", "2,3", "--value", "5"),
        ("table", "gmgens", "--genus", "2..4"),
        ("table", "gmgens", "--genus", "2..8", "--workers", "2"),
    ], ids=["verify", "member", "table", "pooled-table"])
    def test_a_closed_stdout(self, argv, tmp_path):
        proc = self._run_with_stdout_closed(argv, tmp_path)
        assert proc.returncode == EXIT_IOERR
        assert proc.stderr == "nsgbounds: cannot write output: [Errno 9] stdout is closed\n"

    def test_out_with_a_closed_stdout(self, capsys, tmp_path):
        argv = ("table", "gmgens", "--genus", "2..4", "--format", "csv")
        proc = self._run_with_stdout_closed((*argv, "--out", "t.csv"), tmp_path)
        assert proc.returncode == EXIT_OK and proc.stderr == ""
        assert (tmp_path / "t.csv").read_text() == run_cli(capsys, *argv)[1]

    @needs_dev_full
    def test_table_out_to_a_full_device(self, capsys):
        code, out, err = run_cli(capsys, "table", "gmgens", "--genus", "2..4",
                                 "--out", "/dev/full")
        assert code == EXIT_IOERR and out == ""
        assert err.startswith("nsgbounds: cannot write output: ") and err.count("\n") == 1


class TestConsoleEntry:
    def test_import_skips_dataclasses(self):
        # -S keeps site hooks from importing anything for the package
        proc = run_python(
            "-S", "-c",
            "import sys, nsgbounds.cli; "
            "print([m for m in ('dataclasses', 'importlib.resources') if m in sys.modules])",
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_invocation(self):
        proc = run_python("-m", "nsgbounds", "member", "--gens", "2,3", "--value", "7",
                          capture_output=True, text=True)
        assert proc.returncode == 0
        assert "member" in proc.stdout

    def test_a_child_imports_this_package(self):
        # so that a run against an installed copy tests that copy, not src/
        proc = run_python("-c", "import nsgbounds; print(nsgbounds.__file__)",
                          capture_output=True, text=True)
        assert proc.stdout == f"{nsgbounds.__file__}\n", proc.stderr
