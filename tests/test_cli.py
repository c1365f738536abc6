"""Exit codes and output of the oia-sim command line."""

import hashlib
import os
import sys

import pytest

from oiasim import threshold_asymptotic, threshold_lambert, threshold_numeric
from oiasim.cli import main

# sha256 of the fig4 CSV body (everything after the generated_at line)
_FIG4_BODY_SHA256 = "546863877f8f953a53eeffc922c6ba0db425a8241d6862d73a6aad510f29f713"


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2_sumrate_d1", "fig3_eligible_users",
                 "fig4_threshold_compare", "fig5_sumrate_d2",
                 "fig6_oia_vs_ia", "fig7_complexity_table"):
        assert name in out


def test_threshold_closed_form_value(capsys):
    # numeric prints the closed form at d = 1
    rc = main(["threshold", "--method", "numeric", "--d", "1",
               "--K", "1000"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.00689081863"


def test_threshold_numeric_value(capsys):
    # every design prints its own value at 9 digits, on any numpy/scipy
    for method, design in (("numeric", threshold_numeric),
                           ("lambert", threshold_lambert),
                           ("asymptotic", threshold_asymptotic)):
        rc = main(["threshold", "--method", method, "--d", "2",
                   "--K", "100"])
        assert rc == 0, method
        printed = capsys.readouterr().out.strip()
        assert printed == "%.9g" % design(100, 2), method


@pytest.mark.usefixtures("pinned_build")
def test_fig4_csv_body_pinned(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["run", "fig4_threshold_compare", "--out", str(out)]) == 0
    with open(out, "rb") as fh:
        assert fh.readline().startswith(b"# generated_at=")
        assert hashlib.sha256(fh.read()).hexdigest() == _FIG4_BODY_SHA256


def test_run_with_config_and_out(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("trials = 2\nsnr_db_grid = 0,5\n", encoding="utf-8")
    out = tmp_path / "rows.csv"
    rc = main(["run", "fig2_sumrate_d1", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    assert f"wrote 6 rows to {out}" in capsys.readouterr().out
    assert out.exists()


def test_run_seed_changes_output(tmp_path):
    outs = []
    for seed in ("1", "1", "2"):
        out = tmp_path / f"s{len(outs)}.csv"
        rc = main(["run", "fig7_complexity_table", "--seed", seed,
                   "--out", str(out)])
        assert rc == 0
        outs.append(out.read_text(encoding="utf-8").splitlines()[1:])
    # the flop table is deterministic: seed must not change it
    assert outs[0] == outs[1] == outs[2]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["run", "fig9_mystery"]) == 2
    assert "error:" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wat = 1\n", encoding="utf-8")
    assert main(["run", "fig2_sumrate_d1", "--config", str(cfg)]) == 2
    # closed_form_d1 is no design: numeric gives the closed form at d = 1
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--method", "closed_form_d1", "--d", "1", "--K", "100"])
    assert exc.value.code == 2
    assert "invalid choice: 'closed_form_d1'" in capsys.readouterr().err
    # fewer than one user is a usage error for every method
    for method, d, K in (("numeric", "2", "0"), ("numeric", "1", "-3"),
                         ("lambert", "2", "0"), ("asymptotic", "1", "-1")):
        assert main(["threshold", "--method", method, "--d", d, "--K", K]) == 2
    # so is a K past the largest double, which every design would turn
    # into a float; the largest double itself is designed
    for method, d in (("numeric", "1"), ("numeric", "2"), ("lambert", "2"),
                      ("asymptotic", "2")):
        capsys.readouterr()
        assert main(["threshold", "--method", method, "--d", d,
                     "--K", str(2 ** 1024)]) == 2
        assert "--K must lie in" in capsys.readouterr().err
    assert main(["threshold", "--method", "numeric", "--d", "1",
                 "--K", str(int(sys.float_info.max))]) == 0
    # a d outside 1..MAX_D is refused by the G(2d, d) constant every design
    # reads, for every design
    for method in ("numeric", "lambert", "asymptotic"):
        for d in ("-1", "0", "19"):
            capsys.readouterr()
            assert main(["threshold", "--method", method, "--d", d, "--K", "10"]) == 2
            assert "1 <= d <= 18" in capsys.readouterr().err, (method, d)
    # while d = 18 itself is designed
    assert main(["threshold", "--method", "numeric", "--d", "18", "--K", "10"]) == 0
    # the receive antennas follow from d: --nr is no option
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--method", "numeric", "--d", "2", "--nr", "4",
              "--K", "100"])
    assert exc.value.code == 2
    out = str(tmp_path / "never.csv")
    assert main(["run", "fig2_sumrate_d1", "--workers", "0", "--out", out]) == 2
    # an output path that names a directory, refused before the run
    capsys.readouterr()
    assert main(["run", "fig3_eligible_users", "--trials", "2",
                 "--out", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err
    huge = tmp_path / "huge.cfg"
    huge.write_text("snr_db_grid = 130\n", encoding="utf-8")
    assert main(["run", "fig2_sumrate_d1", "--config", str(huge),
                 "--out", out]) == 2
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("trials = 5\ntrials = 50\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "fig2_sumrate_d1", "--config", str(repeated),
                 "--out", out]) == 2
    assert "already set on line 1" in capsys.readouterr().err
    repeated.write_text("K_rule = fixed:10,10\n", encoding="utf-8")
    assert main(["run", "fig5_sumrate_d2", "--config", str(repeated),
                 "--out", out]) == 2
    repeated.write_text("snr_db_grid = 10,10\n", encoding="utf-8")
    assert main(["run", "fig3_eligible_users", "--config", str(repeated),
                 "--out", out]) == 2
    # odd, too large or power-coupled bit budgets, and grid points without a
    # finite power P > 0: refused while parsing, not after the first drops
    # or with a traceback
    for experiment, text in (("fig6_oia_vs_ia", "K_rule = fixed:10,15\n"),
                             ("fig6_oia_vs_ia", "K_rule = fixed:2100\n"),
                             ("fig6_oia_vs_ia", "K_rule = ceil_P\n"),
                             ("fig2_sumrate_d1", "snr_db_grid = nan\n"),
                             ("fig2_sumrate_d1", "snr_db_grid = inf\n"),
                             ("fig2_sumrate_d1", "snr_db_grid = 1e308\n"),
                             ("fig3_eligible_users", "snr_db_grid = 0,-4000\n")):
        cfg.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["run", experiment, "--config", str(cfg), "--out", out]) == 2
        assert "error:" in capsys.readouterr().err, text
    assert main(["run", "fig2_sumrate_d1", "--seed", "-1", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def test_output_path_naming_no_file_exits_2_before_the_run(tmp_path, capsys):
    # one ending in a separator, "." or "..": the rename into place refused
    # it only after every trial had run
    outdir = tmp_path / "outdir"
    for end in (os.sep, os.sep + ".", os.sep + ".."):
        assert main(["run", "fig3_eligible_users", "--trials", "3",
                     "--out", str(outdir) + end]) == 2
        err = capsys.readouterr().err
        assert "names no file" in err and "task" not in err
    assert not outdir.exists()


def test_output_path_holding_a_nul_byte_exits_2_before_the_run(tmp_path, capsys):
    # the rename into place raised a traceback after every trial had run
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"output_path = " + bytes(tmp_path / "a") + b"\0b.csv\n")
    assert main(["run", "fig3_eligible_users", "--trials", "3",
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "holds a NUL byte" in err and "task" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_config_file_not_in_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"trials = 3\nseed = \xff\n")
    assert main(["run", "fig3_eligible_users", "--config", str(cfg),
                 "--out", str(tmp_path / "never.csv")]) == 2
    assert f"error: cannot read config file {cfg}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_runtime_errors_exit_3(tmp_path, capsys):
    assert main(["threshold", "--method", "lambert", "--d", "2",
                 "--K", "2"]) == 3
    assert "error:" in capsys.readouterr().err
    # d^3 K past the largest double is designed, or refused as too few
    # users where the Lambert argument underflows; never a traceback
    assert main(["threshold", "--method", "lambert", "--d", "18",
                 "--K", str(2 ** 1012)]) == 0
    assert capsys.readouterr().out == "0.877937093\n"
    assert main(["threshold", "--method", "lambert", "--d", "2",
                 "--K", str(2 ** 1022)]) == 3
    assert "error: Lambert argument" in capsys.readouterr().err
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not dir", encoding="utf-8")
    rc = main(["run", "fig7_complexity_table",
               "--out", str(blocker / "x.csv")])
    assert rc == 3
