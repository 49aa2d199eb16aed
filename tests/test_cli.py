"""Command-line front end: outputs, exit codes, caching, determinism."""

from __future__ import annotations

import gc
import hashlib
import itertools
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from algstat import cli, enumeration, infolaws
from algstat.cache import ENV_CACHE_DIR
from algstat.cli import EXIT_OK, EXIT_REGRESSION, EXIT_USAGE, build_parser, main
from algstat.condition import Condition
from algstat.constants import load_constants, packaged_constants_text
from oracles import plain_text, resealed, stored

GOOD_CONSTANTS = {
    "expected_mi": 4,
    "logn_gap": 4,
    "mi_self_gap": 10,
    "mi_swap_gap": 10,
    "nonincrease": -3,
    "soi_additivity": 10,
    "soi_triangle": 0,
    "suff_identity": 4,
    "theta_tau": 0,
}

# The stdout of each `laws --audit` selection at the default table settings.
XR_LINES = [
    "xr r=0 sum=134461/2^19 bound=4 PASS",
    "xr r=1 sum=259757/2^21 bound=2 PASS",
    "xr r=2 sum=34501/2^20 bound=1 PASS",
    "xr r=3 sum=9977/2^20 bound=1/2^1 PASS",
    "xr r=4 sum=1471/2^19 bound=1/2^2 PASS",
    "xr r=5 sum=479/2^19 bound=1/2^3 PASS",
    "xr r=6 sum=239/2^19 bound=1/2^4 PASS",
    "xr r=7 sum=63/2^19 bound=1/2^5 PASS",
    "xr r=8 sum=19/2^19 bound=1/2^6 PASS",
    "xr r=9 sum=5/2^19 bound=1/2^7 PASS",
    "xr r=10 sum=3/2^19 bound=1/2^8 PASS",
    "xr r=11 sum=1/2^20 bound=1/2^9 PASS",
    "xr r=12 sum=0 bound=1/2^10 PASS",
]
THETA_LINES = ["theta weight-prob-sufficient PASS", "theta identity-deficiency-zero PASS"]


def _regression_lines(*names: str) -> list[str]:
    return [f"{n} measured={GOOD_CONSTANTS[n]} frozen={GOOD_CONSTANTS[n]} PASS" for n in names]


SELECTION_STDOUT = {
    "all": (
        XR_LINES + ["slice-bound PASS"] + THETA_LINES + _regression_lines(*sorted(GOOD_CONSTANTS))
    ),
    "xr": XR_LINES,
    "slices": ["slice-bound PASS"],
    "soi": _regression_lines("mi_self_gap", "mi_swap_gap", "soi_additivity", "soi_triangle"),
    "nonincrease": _regression_lines("nonincrease"),
    "expected-mi": _regression_lines("expected_mi"),
    "theta": THETA_LINES + _regression_lines("theta_tau"),
    "identity": _regression_lines("suff_identity"),
}


@pytest.fixture(scope="session")
def cli_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli-cache"))


@pytest.fixture()
def run(capsys, cli_cache):
    def _run(*argv: str, cache: bool = True):
        args = list(argv)
        if cache and "--cache-dir" not in args:
            args += ["--cache-dir", cli_cache]
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestQueries:
    def test_k(self, run):
        code, out, _ = run("k", "0110", "--max-len", "12")
        assert code == EXIT_OK
        assert out == "K=11 witness=00010100100\n"

    def test_k_empty_string(self, run):
        code, out, _ = run("k", "-", "--max-len", "12")
        assert (code, out) == (EXIT_OK, "K=3 witness=100\n")

    def test_k_conditioned(self, run):
        code, out, _ = run("k", "1011", "--cond", "1011", "--max-len", "12")
        assert (code, out) == (EXIT_OK, "K=8 witness=10110100\n")

    def test_k_beyond_horizon(self, run):
        code, _, err = run("k", "0" * 9, "--max-len", "12")
        assert code == EXIT_USAGE
        assert "enlarge it" in err

    def test_mi(self, run):
        code, out, _ = run("mi", "0", "00", "--max-len", "22")
        assert (code, out) == (EXIT_OK, "I=-3 K(x)=5 K(y)=7 K(pair)=15\n")

    def test_suffstat(self, run):
        code, out, _ = run("suffstat", "00010111", cache=False)
        assert code == EXIT_OK
        assert out.splitlines() == [
            "x=00010111",
            "beta=0",
            "lambda_min=17",
            "minimal=all:8",
            "optimal=all:8;singleton:00010111",
        ]

    def test_suffstat_lists_base_models_only(self, run):
        """At beta 4 the optimal models of 00000011 are its base sets alone.
        list{00000011} has a two-part total of 21 = lambda_min + beta, but
        the search no longer makes it: Singleton(00000011) beats it with 17
        bits of code against 21 and the same size."""
        code, out, _ = run("suffstat", "00000011", "--beta", "4", cache=False)
        assert code == EXIT_OK
        assert out.splitlines() == [
            "x=00000011",
            "beta=4",
            "lambda_min=17",
            "minimal=all:8",
            "optimal=all:8;cyl:-/8;ham:8,2;cyl:0/8;cyl:00/8;singleton:00000011",
        ]

    def test_probstat(self, run):
        code, out, _ = run("probstat", "0101", "bern:4,1/4", "--max-len", "15")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "x=0101",
            "dist=bern:4,1/4",
            "neglog=4.830074999",
            "K_cond=11",
            "delta_norm=1.584962501",
            "two_part=20",
            "lambda_min=13",
            "minimal=unif(all:4)",
        ]

    def test_probstat_table_is_sliced_to_the_domain(self, run, tmp_path):
        """Without --max-len the table is built for the 4-bit domain: output
        budget 4 and cap 2*4+3, and the answer is the one above."""
        code, out, _ = run("probstat", "0101", "bern:4,1/4", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK
        assert out.splitlines()[3] == "K_cond=11"
        [name] = [p.name for p in tmp_path.iterdir()]
        assert "_L11_" in name and "_O4_" in name

    def test_probstat_long_members_of_a_short_codebook(self, run, tmp_path):
        """Under the distribution a member is SFDECODE, its codeword and a
        HALT, so 16-bit members get a table at 7 + 1 bits, not 2*16+3."""
        code, out, err = run(
            "probstat", "0000000000000000", "table{0000000000000000:1/2,1111111111111111:1/2}",
            "--cache-dir", str(tmp_path),
        )
        assert code == EXIT_OK, err
        assert out.splitlines()[3:5] == ["K_cond=8", "delta_norm=0"]
        [name] = [p.name for p in tmp_path.iterdir()]
        assert "_L8_" in name and "_O16_" in name


class TestEnumerate:
    def test_build_then_cache(self, run):
        code, out, err = run("enumerate", "--max-len", "12")
        assert code == EXIT_OK
        assert out.startswith("machine=tpm1-v1 L=12 condition=")
        assert "entries=31" in out
        # the first call in the session may or may not have warmed this
        # table; the second is always a silent cache hit
        code, out2, err2 = run("enumerate", "--max-len", "12")
        assert out2.endswith("entries=31 cached\n")
        assert err2 == ""

    def test_cold_cache_warns(self, run, tmp_path):
        _, _, err = run(
            "enumerate", "--max-len", "8", "--cache-dir", str(tmp_path), cache=False
        )
        assert "cache miss" in err

    def test_export_is_deterministic(self, run, tmp_path):
        f1, f2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run("enumerate", "--max-len", "12", "--out", str(f1))
        run("enumerate", "--max-len", "12", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_cond_keeps_the_requested_condition(self, run, tmp_path):
        """A walk under --max-out 2 reads only 2 bits of the condition, but
        ``enumerate`` builds and names the table of the condition asked for."""
        cond = "0110100110"
        code, out, _ = run(
            "enumerate", "--max-len", "8", "--max-out", "2", "--cond", cond,
            "--cache-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        assert f" condition={Condition.string(cond).fingerprint()} " in out
        [name] = [p.name for p in tmp_path.iterdir()]
        assert name.endswith(f"_{Condition.string(cond).fingerprint()[:16]}.table")

    def test_env_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        assert main(["enumerate", "--max-len", "8"]) == EXIT_OK
        capsys.readouterr()
        assert any(tmp_path.iterdir())
        assert main(["enumerate", "--max-len", "8"]) == EXIT_OK
        assert "cached" in capsys.readouterr().out


class TestCsvCommands:
    def test_sk(self, run):
        code, out, _ = run("sk", "5", "--max-len", "22")
        assert code == EXIT_OK
        assert out == "member,K,index\n-,3,01\n0,5,10\n1,5,11\n"

    def test_xr(self, run):
        code, out, _ = run("xr", "--max-len", "12")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "r,|X(r)|,sum,bound,pass",
            "0,31,31/2^7,4,1",
            "1,30,15/2^7,2,1",
            "2,14,7/2^8,1,1",
            "3,6,3/2^9,1/2^1,1",
            "4,2,1/2^10,1/2^2,1",
            "5,0,0,1/2^3,1",
        ]

    def test_structfn(self, run):
        code, out, _ = run("structfn", "0110", "--alpha-max", "12", "--max-len", "15")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "alpha,h,beta,beta_star,lambda",
            "8,4,0,0,12",
            "9,4,0,0,13",
            "10,4,0,0,14",
            "11,4,0,0,15",
            "12,0,0,0,12",
        ]

    def test_structfn_ten_bits(self, run, tmp_path):
        """A 10-bit string's star tables are built at the derived cap 2*10+3,
        where the old fixed cap of 22 left members of all:10 Absent; its
        uniform tables at 7 plus their codeword length, from 7 (the
        singleton) up."""
        code, out, err = run("structfn", "0110100110", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK, err
        assert out.splitlines()[:2] == ["alpha,h,beta,beta_star,lambda", "10,10,0,4,20"]
        names = [p.name for p in tmp_path.iterdir()]
        assert names and [n for n in names if "_O10_" not in n] == []
        caps = {int(n.split("_L")[1].split("_")[0]) for n in names}
        assert (min(caps), max(caps)) == (7, 23)

    def test_structfn_workers_has_no_effect(self, run, tmp_path):
        """``--workers`` is accepted and changes nothing: a cold run at 1 and
        at 2 prints the same CSV and notes and writes the same cache files."""
        runs = []
        for workers in ("1", "2"):
            cache_dir = tmp_path / workers
            result = run("structfn", "0110", "--workers", workers, "--cache-dir", str(cache_dir))
            files = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
            runs.append((result, files))
        assert runs[0][0][0] == EXIT_OK and runs[0][1]
        assert runs[0] == runs[1]

    def test_structfn_no_deficiency(self, run):
        _, out, _ = run(
            "structfn", "0110", "--alpha-max", "12", "--no-deficiency", cache=False
        )
        assert out.splitlines()[1] == "8,4,,,12"

    def test_structfn_alpha_beyond_bound(self, run):
        code, out, err = run("structfn", "0110", "--alpha-max", "40")
        assert (code, out) == (EXIT_USAGE, "")
        assert "alpha_max 40 exceeds configured bound 36" in err

    def test_bernoulli(self, run):
        code, out, _ = run("bernoulli", "4", "--max-len", "12")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "x,weight,K,hamming_total,lambda_min,flagged"
        assert lines[1] == "0000,0,11,9,9,0"
        assert lines[2] == "0001,1,11,13,11,0"
        assert len(lines) == 17

    def test_bernoulli_6_stdout_is_pinned(self, run):
        """The whole ``bernoulli 6`` CSV (65 lines) by its SHA-256, and the
        rows it flags: every model family it enumerates for the 64 strings
        gives the same totals as it always did."""
        code, out, err = run("bernoulli", "6")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 65
        assert [l for l in lines if l.endswith(",1")] == [
            "000111,3,13,18,13,1", "001110,3,13,18,13,1", "010101,3,13,18,13,1",
            "011011,4,13,17,13,1", "011100,3,13,18,13,1", "100011,3,13,18,13,1",
            "101010,3,13,18,13,1", "101101,4,13,17,13,1", "110001,3,13,18,13,1",
            "110110,4,13,17,13,1", "111000,3,13,18,13,1",
        ]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "725990fb4e244af7c57b74f5c02dad63484c497e492c7628d2348739802fe643"
        )

    def test_out_file(self, run, tmp_path):
        target = tmp_path / "xr.csv"
        code, out, err = run("xr", "--max-len", "12", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert f"wrote {target}" in err
        assert target.read_text().startswith("r,|X(r)|")


class TestLaws:
    def test_xr_audit_passes(self, run):
        code, out, _ = run("laws", "--audit", "xr", "--max-len", "12")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("xr r=0 ") and lines[0].endswith("PASS")
        assert all(l.endswith("PASS") for l in lines)

    def test_slices_audit(self, run):
        code, out, _ = run("laws", "--audit", "slices", "--max-len", "12")
        assert (code, out) == (EXIT_OK, "slice-bound PASS\n")

    def test_full_battery_matches_packaged_constants(self, run):
        code, out, _ = run("laws", "--audit", "all", "--max-len", "22")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "theta weight-prob-sufficient PASS" in lines
        assert "theta identity-deficiency-zero PASS" in lines
        assert "soi_additivity measured=10 frozen=10 PASS" in lines
        assert "nonincrease measured=-3 frozen=-3 PASS" in lines
        assert not any("FAIL" in l for l in lines)

    def test_regression_detected(self, run, tmp_path):
        tight = dict(GOOD_CONSTANTS, soi_additivity=5)
        path = tmp_path / "tight.txt"
        path.write_text(
            "".join(f"{k} {v}\n" for k, v in sorted(tight.items())), encoding="ascii"
        )
        code, out, _ = run(
            "laws", "--audit", "soi", "--constants", str(path), "--max-len", "22"
        )
        assert code == EXIT_REGRESSION
        assert "soi_additivity measured=10 frozen=5 FAIL" in out.splitlines()

    def test_single_audit_against_packaged(self, run):
        code, out, _ = run("laws", "--audit", "nonincrease", "--max-len", "22")
        assert code == EXIT_OK
        assert "nonincrease measured=-3 frozen=-3 PASS" in out.splitlines()

    def test_steps_reach_every_table(self, run, tmp_path):
        code, _, _ = run("laws", "--audit", "soi", "--steps", "300", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names
        assert [n for n in names if "_T300_" not in n] == []

    def test_max_len_caps_only_the_level_table(self, run, tmp_path):
        """In the default battery --max-len caps the level table alone: the
        deep table and the audits' conditional tables keep their derived caps."""
        argv = ("laws", "--audit", "soi", "--max-len", "22", "--cache-dir", str(tmp_path))
        code, out, _ = run(*argv)
        assert (code, out) == (EXIT_OK, "\n".join(SELECTION_STDOUT["soi"]) + "\n")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names
        assert [n for n in names if "_L22_" in n] == []

    def test_freeze_reproduces_packaged_file(self, run, tmp_path):
        target = tmp_path / "frozen.txt"
        code, out, _ = run(
            "laws", "--audit", "all", "--freeze", "--constants", str(target),
            "--max-len", "22",
        )
        assert code == EXIT_OK
        assert "soi_additivity measured=10 frozen" in out
        assert target.read_bytes() == packaged_constants_text().encode("ascii")
        assert load_constants() == GOOD_CONSTANTS

    @pytest.mark.parametrize("audit", list(SELECTION_STDOUT))
    def test_every_selection_cold_and_warm(self, run, tmp_path, audit):
        argv = ("laws", "--audit", audit, "--cache-dir", str(tmp_path))
        cold = run(*argv)
        warm = run(*argv)
        expected = "\n".join(SELECTION_STDOUT[audit]) + "\n"
        assert cold[:2] == warm[:2] == (EXIT_OK, expected)
        assert warm[2] == ""
        if audit == "all":
            # The soi and non-increase conditions are cut to their tables'
            # output budgets (4 and 6 bits): 7 + 15 files rather than 31 + 127.
            assert len(list(tmp_path.iterdir())) == 26
            builds = [l for l in cold[2].splitlines() if "cache miss" in l]
            assert [b.split()[4] for b in builds[:2]] == ["L=22", "L=29"]

    def test_warm_battery_opens_each_file_as_its_audits_read_it(self, run, tmp_path, monkeypatch):
        assert run("laws", "--cache-dir", str(tmp_path))[0] == EXIT_OK
        written = sorted(p.name for p in tmp_path.iterdir())
        opened = []
        import_table = enumeration.import_table

        def counted(path):
            opened.append(Path(path).name)
            return import_table(path)

        # at every module attribute that holds it, as the benchmark's tracer wraps it
        for module in ("algstat.enumeration", "algstat.cache"):
            monkeypatch.setattr(f"{module}.import_table", counted)
        code, out, err = run("laws", "--cache-dir", str(tmp_path))
        assert (code, out, err) == (EXIT_OK, "\n".join(SELECTION_STDOUT["all"]) + "\n", "")
        # every file the cold pass wrote, the level and deep tables and 24
        # conditional ones, is opened, and each audit opens the conditional
        # tables it reads: only the two L=7, O=2 label tables are read by
        # more than one, once by each theta statistic and once by the
        # identity audit
        counts = Counter(opened)
        assert sorted(counts) == written and len(written) == 26
        labels = [name for name in written if "_L7_T100000_O2_" in name]
        assert len(labels) == 2
        assert {name: n for name, n in counts.items() if n > 1} == dict.fromkeys(labels, 3)
        assert len(opened) == 30

    @pytest.mark.parametrize("audit", ["all", "nonincrease", "theta"])
    def test_transforms_run_once(self, run, monkeypatch, audit):
        calls = []
        apply = infolaws.Transform.apply

        def counted(self, *args):
            calls.append(self.name)
            return apply(self, *args)

        monkeypatch.setattr(infolaws.Transform, "apply", counted)
        code, _, _ = run("laws", "--audit", audit)
        assert code == EXIT_OK
        # 3 default transforms x the 127 strings of at most 6 bits, and none
        # where the non-increase audit does not run: sizing the deep table
        # runs no transform
        assert len(calls) == (0 if audit == "theta" else 3 * 127)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--audit", "soi", "--freeze"], "--audit all"),
            (["--freeze"], "--constants"),
            (["--joint", "JOINT", "--freeze", "--constants", "OUT"], "--joint"),
        ],
        ids=["one-audit", "no-constants", "joint"],
    )
    def test_freeze_misuse_rejected_before_any_table(self, run, tmp_path, argv, message):
        joint = tmp_path / "joint.txt"
        joint.write_text("theta 0 1/1\ndist 0 bern:2,1/2\nstatistic weight\n", encoding="ascii")
        out_file = tmp_path / "frozen.txt"
        argv = [{"JOINT": str(joint), "OUT": str(out_file)}.get(a, a) for a in argv]
        cache = tmp_path / "cache"
        code, out, err = run("laws", *argv, "--cache-dir", str(cache))
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err and "cache miss" not in err
        assert not cache.exists() or not any(cache.iterdir())
        assert not out_file.exists()

    def test_freeze_needs_path_and_full_battery(self, run):
        code, _, err = run("laws", "--audit", "all", "--freeze", "--max-len", "22")
        assert code == EXIT_USAGE and "--constants" in err
        code, _, err = run("laws", "--audit", "soi", "--freeze", "--max-len", "22")
        assert code == EXIT_USAGE and "--audit all" in err


class TestLawsJoint:
    @pytest.fixture()
    def joint_file(self, tmp_path):
        path = tmp_path / "joint.txt"
        path.write_text(
            "theta 0 1/2\ntheta 1 1/2\n"
            "dist 0 bern:2,1/4\ndist 1 bern:2,3/4\n"
            "statistic weight\n",
            encoding="ascii",
        )
        return str(path)

    def test_theta(self, run, joint_file):
        code, out, err = run("laws", "--joint", joint_file, "--audit", "theta")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "theta,x,statistic,p,d"
        assert lines[1] == "0,00,-,9/32,0"
        assert all(l.endswith(",0") for l in lines[1:])
        assert "prob_sufficient=True minimal_tau=0" in err

    def test_theta_loss_below_the_float_grain(self, run, tmp_path):
        """The constant statistic loses 2.9e-10 bits of this joint's
        information, below the old 1e-9 float grain; the exact verdict
        still calls it insufficient."""
        path = tmp_path / "joint.txt"
        path.write_text(
            "theta 0 1/2\ntheta 1 1/2\n"
            "dist 0 table{0:50001/100000,1:49999/100000}\n"
            "dist 1 table{0:49999/100000,1:50001/100000}\n"
            "statistic constant\n",
            encoding="ascii",
        )
        code, _, err = run("laws", "--joint", str(path), "--audit", "theta")
        assert code == EXIT_OK
        assert "prob_sufficient=False" in err

    def test_identity(self, run, joint_file):
        code, out, err = run("laws", "--joint", joint_file, "--audit", "identity")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "x,theta_star,lhs,rhs",
            "00,0,7,3",
            "01,0,7,6",
            "10,0,7,6",
            "11,1,7,5",
        ]
        assert "max_gap=4" in err

    def test_expected_mi(self, run, joint_file):
        code, out, err = run("laws", "--joint", joint_file, "--audit", "expected-mi")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "theta,x,p,I_alg"
        assert out.splitlines()[1] == "0,00,9/32,-3"
        assert "expected=-2.875" in err

    def test_statistic_required(self, run, tmp_path):
        path = tmp_path / "nostat.txt"
        path.write_text("theta 0 1/1\ndist 0 bern:2,1/2\n", encoding="ascii")
        code, _, err = run("laws", "--joint", str(path), "--audit", "theta")
        assert code == EXIT_USAGE and "statistic" in err

    def test_statistic_values_set_the_cap(self, run, tmp_path):
        """The table's program-length cap covers the statistic's values, not
        only the data strings and the labels."""
        path = tmp_path / "joint.txt"
        path.write_text(
            "theta 0 1/2\ntheta 1 1/2\ndist 0 bern:1,1/4\ndist 1 bern:1,3/4\n"
            "statistic map{0:00000100000,1:00000100001}\n",
            encoding="ascii",
        )
        code, out, err = run("laws", "--joint", str(path), "--audit", "theta")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "theta,x,statistic,p,d",
            "0,0,00000100000,3/8,-3",
            "0,1,00000100001,1/8,-3",
            "1,0,00000100000,1/8,0",
            "1,1,00000100001,3/8,0",
        ]
        assert "prob_sufficient=True minimal_tau=0" in err

    def test_max_len_is_honoured(self, run, joint_file):
        """An explicit --max-len caps the table, as in every other command,
        even below the derived cap; a string with no program within it is
        Absent."""
        code, out, err = run("laws", "--joint", joint_file, "--audit", "theta", "--max-len", "6")
        assert (code, out) == (EXIT_USAGE, "")
        assert "algstat: error: 00 has no program within the table's cap L=6" in err

    def test_max_len_caps_every_table_of_the_file(self, run, joint_file, tmp_path):
        """With --joint, --max-len caps the theta audit's conditional tables
        as well as its unconditional one. Caps are exact, so the stdout is
        that of the derived caps."""
        cache = tmp_path / "cache"
        argv = ("laws", "--joint", joint_file, "--audit", "theta")
        code, out, _ = run(*argv, "--max-len", "12", "--cache-dir", str(cache))
        assert (code, out) == run(*argv)[:2]
        names = sorted(p.name for p in cache.iterdir())
        assert len(names) == 3  # the unconditional table and one per label
        assert [n for n in names if "_L12_" not in n] == []

    def test_statistic_beyond_thirteen_bits_needs_max_len(self, run, tmp_path):
        """Values of 14 bits would derive L = 2*14+3 = 31, above the deep
        table's 29: exit 1 naming --max-len, before any table is built."""
        path = tmp_path / "joint.txt"
        path.write_text(
            "theta 0 1/2\ntheta 1 1/2\ndist 0 bern:1,1/4\ndist 1 bern:1,3/4\n"
            "statistic map{0:00000100000000,1:00000100000001}\n",
            encoding="ascii",
        )
        cache = tmp_path / "cache"
        code, out, err = run("laws", "--joint", str(path), "--audit", "theta", "--cache-dir", str(cache))
        assert (code, out) == (EXIT_USAGE, "")
        assert "need tables with a program-length cap of L=31" in err and "pass --max-len" in err
        assert not cache.exists()

    def test_unsupported_audit(self, run, joint_file):
        code, _, err = run("laws", "--joint", joint_file, "--audit", "soi")
        assert code == EXIT_USAGE and "soi" in err

    @pytest.mark.parametrize(
        "text, audit, message",
        [
            ("theta 0 1/2\ntheta 1 1/2\ndist 0 bern:2,1/4\ndist 1 bern:2,3/4\n", "theta", "no statistic line"),
            ("theta 0 1/2\ntheta 1 1/2\ndist 0 bern:2,1/4\ndist 1 bern:2,3/4\n", "identity", "no statistic line"),
            ("theta 0 1/1\ndist 0 bern:2,1/2\nstatistic identity\n", "identity", "weight statistic"),
            ("theta 0 1/2\ntheta 1 1/2\ndist 0 bern:1,1/2\ndist 1 bern:2,1/2\nstatistic weight\n", "identity", "fixed-length"),
        ],
        ids=["theta-no-statistic", "identity-no-statistic", "identity-not-weight", "identity-mixed-lengths"],
    )
    def test_rejected_before_any_table(self, run, tmp_path, text, audit, message):
        path = tmp_path / "joint.txt"
        path.write_text(text, encoding="ascii")
        cache = tmp_path / "cache"
        code, out, err = run("laws", "--joint", str(path), "--audit", audit, "--cache-dir", str(cache))
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err and "cache miss" not in err
        assert not cache.exists() or not any(cache.iterdir())

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "theta 0 1/1\ndist 0 bern:2,1/0\nstatistic weight\n",
                "line 2: bad distribution syntax 'bern:2,1/0': rational '1/0' has a zero denominator",
            ),
            ("theta 0x 1/2\ntheta 1 1/2\n", "line 1: not a bit string: '0x'"),
            (
                "theta 0 1/1\ndist 0 bern:2,1/2\nstatistic bogus\n",
                "line 3: unknown statistic 'bogus'",
            ),
            ("theta 0 1/1\n\ndist 0x bern:2,1/2\n", "line 3: not a bit string: '0x'"),
        ],
        ids=["distribution", "theta-label", "statistic", "dist-label"],
    )
    def test_bad_line_is_reported_with_its_number(self, run, tmp_path, text, message):
        path = tmp_path / "joint.txt"
        path.write_text(text, encoding="ascii")
        cache = tmp_path / "cache"
        code, out, err = run("laws", "--joint", str(path), "--cache-dir", str(cache))
        assert (code, out, err) == (EXIT_USAGE, "", f"algstat: error: {message}\n")
        assert not cache.exists() or not any(cache.iterdir())


def _edit_index_entry(path: Path, n: int, edit, reseal: bool) -> None:
    """Replace the index entry of output length n, as [n, records, bytes,
    mass], by ``edit(entry)``, in the file's text with its body inflated
    (``plain_text``), deflate the body again, and reseal the file if asked:
    the digest covers the header lines before it and the stored body."""
    lines = plain_text(path.read_bytes()).split("\n", 9)
    fields = lines[7].split()
    i = next(i for i, f in enumerate(fields) if f.startswith(f"{n},"))
    fields[i] = ",".join(map(str, edit(list(map(int, fields[i].split(","))))))
    lines[7] = " ".join(fields)
    data = stored("\n".join(lines))
    path.write_bytes(resealed(data) if reseal else data)


class TestTamperedCache:
    def test_segment_error_exits_one_and_prints_no_number(self, run, tmp_path):
        # `k 0110` and `mi 0 -`, whose longest string is the 4-bit pair
        # 1000, read the same file: the L=12 table under output budget 4
        argv = ("k", "0110", "--max-len", "12", "--cache-dir", str(tmp_path))
        code, _, _ = run(*argv, cache=False)
        assert code == EXIT_OK
        (path,) = tmp_path.iterdir()
        assert "_O4_" in path.name
        # one more record for output length 1 than the segment holds, in a
        # file sealed around that index, so that it still opens
        _edit_index_entry(path, 1, lambda e: [e[0], e[1] + 1, *e[2:]], reseal=True)
        code, out, err = run("mi", "0", "-", *argv[2:], cache=False)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("algstat: error: ") and "index entry" in err
        # a lookup of another length still reads its own, intact segment
        code, out, _ = run(*argv, cache=False)
        assert (code, out) == (EXIT_OK, "K=11 witness=00010100100\n")

    @pytest.mark.parametrize("reseal", [False, True], ids=["unsealed", "resealed"])
    def test_index_length_beyond_O_is_rebuilt(self, run, tmp_path, reseal):
        # The longest outputs of the L=12 table that `sk 3` reads have 4
        # bits, as do all of the O=4 table's that `k 0110` reads; that index
        # entry's length is made 5000000000, still increasing. Before the
        # header was sealed and index lengths checked against O, `k 0110`
        # then found no program and `sk 3` raised OverflowError from the
        # record pattern.
        argvs = [("k", "0110", "--max-len", "12"), ("sk", "3", "--max-len", "12")]
        caches = [tmp_path / argv[0] for argv in argvs]
        expected = [
            run(*argv, "--cache-dir", str(cache), cache=False) for argv, cache in zip(argvs, caches)
        ]
        assert [code for code, _, _ in expected] == [EXIT_OK, EXIT_OK]
        assert expected[0][1] == "K=11 witness=00010100100\n"
        for argv, cache, (_, want, _) in zip(argvs, caches, expected):
            (path,) = cache.iterdir()
            pristine = path.read_bytes()
            _edit_index_entry(path, 4, lambda e: [5000000000, *e[1:]], reseal)
            code, out, err = run(*argv, "--cache-dir", str(cache), cache=False)
            assert (code, out) == (EXIT_OK, want)
            assert "cache miss" in err and "Traceback" not in err
            assert path.read_bytes() == pristine


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["k"],
            ["k", "21", "--max-len", "8"],
            ["k", "0", "--cond", "1", "--cond-set", "all:2"],
            ["sk", "five"],
            ["enumerate", "--max-len", "0"],
            ["enumerate", "--workers", "0", "--max-len", "8"],
            ["suffstat", "0", "--beta", "-1"],
            ["probstat", "0101", "geom:1/2"],
            ["laws", "--audit", "everything"],
            ["structfn", "0", "--workers", "0"],
            ["k", "0", "--steps", "0"],
            ["k", "0", "--max-out", "0"],
        ],
    )
    def test_exit_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            code = main(argv)
            raise SystemExit(code)
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


    @pytest.mark.parametrize(
        "argv, joint, where, text",
        [
            (["probstat", "0101", "bern:4,1/0"], None, "", "bern:4,1/0"),
            (["probstat", "0101", "table{0101:1/0}"], None, "", "table{0101:1/0}"),
            (
                ["laws", "--joint", "JOINT"],
                "theta 0 1/1\ndist 0 bern:2,1/0\nstatistic weight\n",
                "line 2: ",
                "bern:2,1/0",
            ),
        ],
        ids=["bern", "table", "joint-dist"],
    )
    def test_zero_denominator_exits_one_before_any_table(
        self, run, tmp_path, argv, joint, where, text
    ):
        if joint is not None:
            path = tmp_path / "joint.txt"
            path.write_text(joint, encoding="ascii")
            argv = [str(path) if a == "JOINT" else a for a in argv]
        cache = tmp_path / "cache"
        code, out, err = run(*argv, "--cache-dir", str(cache))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"algstat: error: {where}bad distribution syntax {text!r}: "
            "rational '1/0' has a zero denominator\n"
        )
        assert not cache.exists() or not any(cache.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [["bernoulli", "3"], ["bernoulli", "-2"], ["bernoulli", "14"]],
        ids=["odd", "negative", "large"],
    )
    def test_bernoulli_n_checked_before_any_table(self, run, tmp_path, argv):
        cache = tmp_path / "cache"
        code, out, err = run(*argv, "--cache-dir", str(cache))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "algstat: error: demo needs even n with 0 <= n <= 12\n"
        assert not cache.exists() or not any(cache.iterdir())


# Every flag of each command, with a value where it takes one.
_TABLE = ["--max-len", "8", "--steps", "90", "--max-out", "7", "--cache-dir", "DIR"]
FULL_ARGV = {
    "enumerate": ["enumerate", *_TABLE, "--cond", "01", "--out", "F"],
    "k": ["k", "0110", *_TABLE, "--cond-set", "all:2"],
    "mi": ["mi", "0", "1", *_TABLE],
    "structfn": [
        "structfn", "0110", "--alpha-max", "9", "--no-deficiency", *_TABLE,
        "--workers", "2", "--out", "F",
    ],
    "suffstat": ["suffstat", "0110", "--beta", "1", "--out", "F"],
    "sk": ["sk", "5", *_TABLE, "--out", "F"],
    "xr": ["xr", *_TABLE, "--out", "F"],
    "laws": [
        "laws", "--audit", "xr", "--constants", "C", "--freeze", "--joint", "J", *_TABLE,
        "--workers", "2", "--out", "F",
    ],
    "bernoulli": ["bernoulli", "8", "--beta", "2", *_TABLE, "--out", "F"],
    "probstat": ["probstat", "0110", "bern:4,1/4", "--beta", "1", *_TABLE, "--out", "F"],
}
# Each command with its positionals alone, so every flag keeps its default.
BARE_ARGV = {
    name: list(itertools.takewhile(lambda a: not a.startswith("-"), argv))
    for name, argv in FULL_ARGV.items()
}


class TestParser:
    """``main`` builds the arguments of the command its argv names alone;
    what it parses and prints equals the parse of every command's flags."""

    def test_every_command_has_a_full_argv(self):
        assert list(FULL_ARGV) == list(cli.COMMANDS)

    @pytest.mark.parametrize("command", list(FULL_ARGV))
    def test_help_matches_the_full_parser(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "-h"])
        assert capsys.readouterr().out == help_text
        assert help_text.startswith(f"usage: algstat {command} [-h]")

    @pytest.mark.parametrize("command", list(FULL_ARGV))
    def test_namespace_matches_the_full_parser(self, command, monkeypatch):
        seen = []
        help_text, _, add_args = cli.COMMANDS[command]
        monkeypatch.setitem(cli.COMMANDS, command, (help_text, seen.append, add_args))
        for argv in (FULL_ARGV[command], BARE_ARGV[command]):
            main(argv)
            assert seen.pop() == build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv, stderr",
        [
            (
                [],
                "usage: algstat [-h]\n"
                "               {enumerate,k,mi,structfn,suffstat,sk,xr,laws,bernoulli,probstat}\n"
                "               ...\n"
                "algstat: error: the following arguments are required: command\n",
            ),
            (
                ["frobnicate"],
                "usage: algstat [-h]\n"
                "               {enumerate,k,mi,structfn,suffstat,sk,xr,laws,bernoulli,probstat}\n"
                "               ...\n"
                "algstat: error: argument command: invalid choice: 'frobnicate' (choose from "
                "'enumerate', 'k', 'mi', 'structfn', 'suffstat', 'sk', 'xr', 'laws', "
                "'bernoulli', 'probstat')\n",
            ),
            (
                ["k", "0110", "--bogus"],
                "usage: algstat [-h]\n"
                "               {enumerate,k,mi,structfn,suffstat,sk,xr,laws,bernoulli,probstat}\n"
                "               ...\n"
                "algstat: error: unrecognized arguments: --bogus\n",
            ),
            (
                ["k"],
                "usage: algstat k [-h] [--max-len L] [--steps T] [--max-out O]\n"
                "                 [--cache-dir DIR] [--cond BITS | --cond-set SET]\n"
                "                 x\n"
                "algstat k: error: the following arguments are required: x\n",
            ),
        ],
        ids=["no-command", "unknown-command", "unknown-flag", "missing-positional"],
    )
    def test_usage_errors_are_pinned(self, argv, stderr, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr() == ("", stderr)


def console_script() -> list[str]:
    """Command prefix for the ``algstat`` console script: the installed
    script when it is on PATH, otherwise the entry point that
    pyproject.toml declares, run the way an installed script runs it."""
    installed = shutil.which("algstat")
    if installed is not None:
        return [installed]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["algstat"]
    module, _, func = target.partition(":")
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


class TestEntryPoint:
    def test_console_script(self, cli_cache):
        proc = subprocess.run(
            [*console_script(), "k", "0110", "--max-len", "12", "--cache-dir", cli_cache],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout == "K=11 witness=00010100100\n"

    def test_module_invocation(self, cli_cache):
        proc = subprocess.run(
            [sys.executable, "-m", "algstat.cli", "xr", "--max-len", "12",
             "--cache-dir", cli_cache],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout.splitlines()[0] == "r,|X(r)|,sum,bound,pass"


class TestCollectorPolicy:
    """``main`` pauses the cyclic collector for the parse and the command,
    restores the state it found, and freezes the heap at exit."""

    # argv and what the command itself sees, for each way main can end
    ENDINGS = {
        "success": (["k", "0110", "--max-len", "12"], [False]),
        "error": (["k", "0110", "--max-len", "0"], [False]),
        "usage": (["k", "0110", "--bogus"], []),
        "raises": (["k", "0110", "--max-len", "12"], [False]),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("ending", list(ENDINGS))
    def test_main_restores_the_collector_state(self, run, monkeypatch, enabled, ending):
        argv, paused = self.ENDINGS[ending]
        seen = []
        help_text, fn, add_args = cli.COMMANDS["k"]

        def spy(args):
            seen.append(gc.isenabled())
            if ending == "raises":
                raise RuntimeError("boom")
            return fn(args)

        monkeypatch.setitem(cli.COMMANDS, "k", (help_text, spy, add_args))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if ending == "usage":
                with pytest.raises(SystemExit) as exc:
                    run(*argv)
                assert exc.value.code == EXIT_USAGE
            elif ending == "raises":
                with pytest.raises(RuntimeError, match="boom"):
                    run(*argv)
            else:
                code, out, err = run(*argv)
                assert (code, out) == {
                    "success": (EXIT_OK, "K=11 witness=00010100100\n"),
                    "error": (EXIT_USAGE, ""),
                }[ending]
                assert ("error:" in err) is (ending == "error")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == paused

    def test_exit_hook_freezes_the_heap_once_per_process(self, cli_cache):
        """Two runs of ``python -m algstat.cli`` in one interpreter freeze the
        heap once at exit, and a hook registered before them runs after that
        freeze and sees a frozen heap. ``gc.freeze`` is wrapped to count."""
        script = (
            "import atexit, gc, runpy, sys\n"
            "calls, freeze = [], gc.freeze\n"
            "gc.freeze = lambda: (calls.append(1), freeze())\n"
            "atexit.register(lambda: print('freezes', len(calls), gc.get_freeze_count() > 0))\n"
            "argv = ['algstat', 'k', '0110', '--max-len', '12', '--cache-dir', sys.argv[1]]\n"
            "for _ in range(2):\n"
            "    sys.argv = list(argv)\n"
            "    try:\n"
            "        runpy.run_module('algstat.cli', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        print('rc', exc.code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, cli_cache], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "K=11 witness=00010100100",
            "rc 0",
            "K=11 witness=00010100100",
            "rc 0",
            "freezes 1 True",
        ]

    @pytest.mark.parametrize("code", [EXIT_OK, EXIT_USAGE, EXIT_REGRESSION])
    def test_process_streams_and_exit_code_are_pinned(self, tmp_path, code):
        """What a command process prints and returns, warm and cold: exit 0
        (a query), 1 (a usage error) and 2 (a ``laws`` regression)."""
        cache = tmp_path / "cache"
        tight = tmp_path / "tight.txt"
        tight.write_text(
            "".join(f"{k} {v}\n" for k, v in sorted(dict(GOOD_CONSTANTS, soi_additivity=5).items())),
            encoding="ascii",
        )
        argv, stdout, stderr = {
            EXIT_OK: (["k", "0110"], "K=11 witness=00010100100\n", ""),
            EXIT_USAGE: (
                ["k", "0110", "--steps", "0"],
                "",
                "algstat: error: budgets must satisfy max_steps >= 1, max_output >= 0\n",
            ),
            EXIT_REGRESSION: (
                ["laws", "--audit", "soi", "--constants", str(tight)],
                "mi_self_gap measured=10 frozen=10 PASS\n"
                "mi_swap_gap measured=10 frozen=10 PASS\n"
                "soi_additivity measured=10 frozen=5 FAIL\n"
                "soi_triangle measured=0 frozen=0 PASS\n",
                "",
            ),
        }[code]
        for _ in range(2):  # cold, then warm
            proc = subprocess.run(
                [sys.executable, "-m", "algstat.cli", *argv, "--max-len", "12",
                 "--cache-dir", str(cache)],
                capture_output=True,
                text=True,
            )
            assert (proc.returncode, proc.stdout) == (code, stdout)
        assert proc.stderr == stderr
