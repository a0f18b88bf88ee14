import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hardylab.operators
import hardylab.verify
from hardylab.cli import CONFIG_SCHEMA, dumps_17g, load_config, main
from hardylab.verify import ExperimentConfig, run_context

BASE_CONFIG = """
[operator]
symbol = sigma1_bilinear
cutoff = none

[indices]
p = 1, 1
n_moments = 2

[grid]
n = 1
L = 8
M = 512

[ensemble]
trials = 4
max_atoms = 2
seed = 31
ell = 0.5
center_span = 0.2

[checks]
boundedness = true
"""


def test_lemmas_run_loads_neither_numpy_ma_nor_statistics(tmp_path):
    # The medians and the decay fit need neither module (np.median's NaN
    # check imports numpy.ma, about 1 MB at the run's peak).
    root = Path(hardylab.operators.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, hardylab.cli\n"
        f"code = hardylab.cli.main(['run', {str(root / 'configs' / 'lemmas.ini')!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--jobs', '1'])\n"
        "print(code, sorted(m for m in ('numpy.ma', 'statistics') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "0 []"


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return path


class TestJsonWriter:
    def test_seventeen_digits_round_trip(self):
        vals = [0.1, 1.0 / 3.0, 1e-300, 123456.789, float("inf")]
        text = dumps_17g({"v": vals})
        parsed = json.loads(text)
        assert parsed["v"] == vals

    def test_nested_structures(self):
        obj = {"a": [1, 2.5, "x", None, True], "b": {"c": 0.25}}
        assert json.loads(dumps_17g(obj)) == obj


class TestConfigParsing:
    def test_load(self, config_file):
        config, checks = load_config(str(config_file))
        assert config.symbol == "sigma1_bilinear"
        assert config.exponents == (1.0, 1.0)
        assert config.M == 512
        assert checks["boundedness"]
        assert checks.keys() == CONFIG_SCHEMA["checks"].keys()

    def test_infinite_exponent(self, tmp_path):
        path = tmp_path / "inf.ini"
        path.write_text(BASE_CONFIG.replace("p = 1, 1", "p = inf, inf"))
        config, _ = load_config(str(path))
        assert config.exponents == (float("inf"), float("inf"))

    def test_omitted_keys_take_the_library_defaults(self, tmp_path):
        # A command-line run and a library run of the same config agree on
        # every key the file leaves out.
        path = tmp_path / "minimal.ini"
        path.write_text("[operator]\nsymbol = sigma4\n\n[indices]\np = 2, 2, 2\n")
        config, _ = load_config(str(path))
        assert config == ExperimentConfig("sigma4", (2.0, 2.0, 2.0))

    @pytest.mark.parametrize(
        "old, new, name",
        [
            pytest.param("cutoff = none", "cutof = default", "cutof", id="operator"),
            pytest.param("n_moments = 2", "n_moment = 2", "n_moment", id="indices"),
            pytest.param("M = 512", "Mm = 4096", "mm", id="grid"),
            pytest.param("trials = 4", "trial = 3", "trial", id="ensemble"),
            pytest.param("half_steps = false", "half_step = true", "half_step", id="ladder"),
            pytest.param("boundedness = true", "nosuch = true", "nosuch", id="checks"),
            pytest.param(
                "half_steps = false",
                "half_steps = false\n\n[tolerances]\ncancellation = 1e30",
                "unknown config section [tolerances]",
                id="tolerances",
            ),
            pytest.param("[ensemble]", "[ensembel]", "ensembel", id="section"),
            pytest.param("trials = 4", "trials = abc", "[ensemble] trials", id="bad-value"),
            pytest.param(
                "symbol = sigma1_bilinear\ncutoff = none\n\n[indices]\np = 1, 1",
                "symbol = constant_one\ncutoff = none\n\n[indices]\np = 2, , 2",
                "[indices] p",
                id="empty-item",
            ),
        ],
    )
    def test_unknown_name_is_config_error(self, tmp_path, capsys, old, new, name):
        # Every section and key comes from the schema: a misspelt one is not
        # dropped, it stops the run before anything is written.  A value its
        # parser rejects names its section and key; an empty item in a list
        # is rejected, not dropped (constant_one takes its arity from p).  No
        # config sets a check's pass threshold: [tolerances] is unknown.
        text = BASE_CONFIG + "\n[ladder]\nhalf_steps = false\n"
        assert old in text
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(old, new))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("trials", -3), ("max_atoms", 0), ("max_atoms", -1)])
    def test_out_of_range_ensemble_key_is_config_error(self, tmp_path, capsys, key, value):
        # A negative trial count used to run as no trials, and max_atoms = 0
        # aborted every trial inside numpy.  Both now stop a run, and the
        # replay of a report that holds them, naming the key.
        text = re.sub(rf"^{key} = \d+$", f"{key} = {value}", BASE_CONFIG, flags=re.M)
        assert text != BASE_CONFIG
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"config": {key: value}, "trials": []}))
        assert main(["replay", str(report), "0"]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            pytest.param("ell = 0.5", "ell = 0", "ell", id="ell-zero"),
            pytest.param("ell = 0.5", "ell = 0.5, inf", "ell", id="ell-inf"),
            pytest.param("n_moments = 2", "n_moments = -1", "n_moments", id="n_moments"),
            pytest.param("center_span = 0.2", "center_span = nan", "center_span", id="span-nan"),
            pytest.param("center_span = 0.2", "center_span = -0.1", "center_span", id="span-neg"),
            pytest.param("seed = 31", "seed = 31\nbudget = 0", "budget", id="budget"),
            pytest.param("seed = 31", "seed = -1", "seed", id="seed"),
            pytest.param("L = 8", "L = inf", "half-width L", id="L-inf"),
        ],
    )
    def test_out_of_range_key_is_config_error(self, tmp_path, capsys, old, new, key):
        # Each of these values used to load and then abort every trial of
        # the run.  Now it stops the run before anything is written, and
        # the message names the key.
        assert old in BASE_CONFIG
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_option_is_config_error(self, config_file, tmp_path, capsys):
        # --seed replaces the config's seed before anything is written, so
        # it is checked as the config key is.
        out = tmp_path / "o"
        assert main(["run", str(config_file), "--out", str(out), "--seed", "-3"]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials_loads(self, tmp_path):
        # A run of the non-ensemble checks alone sets trials = 0.
        path = tmp_path / "checks.ini"
        path.write_text(BASE_CONFIG.replace("trials = 4", "trials = 0"))
        config, _ = load_config(str(path))
        assert config.trials == 0

    def test_readme_config_table_matches_schema(self):
        # The README's config table lists one key per row; it must name the
        # same sections and keys the loader accepts.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config format")[1].split("###")[0]
        documented: dict[str, set[str]] = {}
        for section, key in re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", table, re.M):
            documented.setdefault(section, set()).add(key.lower())
        assert documented == {sec: set(keys) for sec, keys in CONFIG_SCHEMA.items()}


class TestVerifySymbolCommand:
    def test_sigma1_passes(self, capsys):
        assert main(["verify-symbol", "sigma1", "--orders", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_unknown_symbol(self, capsys):
        assert main(["verify-symbol", "nosuch"]) == 2

    def test_constant_fails_plane_requirement(self, capsys):
        code = main(["verify-symbol", "constant_one", "--require-plane-vanishing", "--orders", "0"])
        assert code == 1

    @pytest.mark.parametrize(
        "option, value", [("--orders", "3"), ("--orders", "-1"), ("--shells", "-1")]
    )
    def test_out_of_range_argument_is_usage_error(self, capsys, option, value):
        # --orders 3 went past the derivative cap, --orders -1 checked no
        # derivative and passed, --shells -1 left no shell to sample.
        with pytest.raises(SystemExit) as exc:
            main(["verify-symbol", "sigma1", option, value])
        assert exc.value.code == 2
        assert f"argument {option}: expected an integer" in capsys.readouterr().err


class TestJobsOption:
    def test_bad_value_is_a_usage_error_of_run(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(config_file), "--out", str(out), "--jobs", "abc"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_below_one_is_a_usage_error_of_run(self, config_file, tmp_path, capsys, value):
        # --jobs 0 used to run serially and record "jobs": 0.
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(config_file), "--out", str(out), "--jobs", value])
        assert exc.value.code == 2
        assert "argument --jobs: expected an integer from 1" in capsys.readouterr().err
        assert not out.exists()


class TestBudgetIsAConfigError:
    def test_over_budget_stops_run_and_replay(self, config_file, tmp_path, capsys):
        # sigma1_bilinear at M = 512 has 512^2 = 262144 frequency tuples.
        # Over the budget, a boundedness-only run used to abort every trial
        # and exit 1, and a run with a check that applies T exited 2.  Both
        # now stop before anything is written, as the replay of such a
        # report does.
        message = "over the cost budget 262143"
        for checks in ("", "cancellation = true\n"):
            path = tmp_path / "over.ini"
            path.write_text(BASE_CONFIG.replace("seed = 31", "seed = 31\nbudget = 262143") + checks)
            out = tmp_path / "o"
            assert main(["run", str(path), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
        good = tmp_path / "good"
        assert main(["run", str(config_file), "--out", str(good)]) == 0
        report = json.loads((good / "report.json").read_text())
        report["config"]["budget"] = 262143
        (good / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["replay", str(good / "report.json"), "0"]) == 2
        assert "error: a 2-slot group on 512 grid points has S^m = 262144" in capsys.readouterr().err


class TestNarrowEllIsAConfigError:
    def test_huge_box_stops_the_run(self, tmp_path, capsys):
        # A finite L so large that no ell spans 16 grid cells used to write
        # a summary of aborted trials and exit 1.
        path = tmp_path / "wide.ini"
        path.write_text(BASE_CONFIG.replace("L = 8", "L = 1e308"))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "no [ensemble] ell can hold an atom" in capsys.readouterr().err
        assert not out.exists()


class TestJobsEnvironment:
    # --jobs is the one knob: no command reads a HARDYLAB_JOBS left in the
    # environment, good or bad.
    def test_bad_value_does_not_touch_verify_symbol(self, monkeypatch):
        monkeypatch.setenv("HARDYLAB_JOBS", "abc")
        assert main(["verify-symbol", "sigma1", "--orders", "1"]) == 0

    def test_bad_value_does_not_touch_run(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("HARDYLAB_JOBS", "abc")
        out = tmp_path / "o"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["jobs"] == 1

    def test_good_value_is_not_the_default(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("HARDYLAB_JOBS", "2")
        out = tmp_path / "o"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["jobs"] == 1


class TestRunCommand:
    def test_outputs_and_exit_code(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        for name in ("manifest.json", "report.json", "summary.csv", "ratio_hist.dat"):
            assert (out / name).exists()
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "trial_id,seed,lhs,rhs,ratio,flags"
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"manifest", "config", "trials", "summary", "pass"}
        assert report["pass"] is True
        assert len(report["trials"]) == 4

    def test_rerun_byte_identical_summary(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config_file), "--out", str(out1)]) == 0
        assert main(["run", str(config_file), "--out", str(out2)]) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_jobs_do_not_change_results(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config_file), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["run", str(config_file), "--out", str(out2), "--jobs", "2"]) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_product_with_infinite_exponents_is_config_error(self, tmp_path, capsys):
        # One infinite exponent among finite ones: only the product rule
        # (every slot is its own group) rejects it.
        path = tmp_path / "bad.ini"
        path.write_text(
            BASE_CONFIG.replace("p = 1, 1", "p = 2, inf, 2").replace(
                "symbol = sigma1_bilinear", "symbol = sigma3"
            )
        )
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "product" in capsys.readouterr().err

    # One symbol of each operator class, named in the id.
    @pytest.mark.parametrize(
        "symbol",
        ["sigma1", "sigma3", "sigma4"],
        ids=["general-sigma1", "product-sigma3", "mixed-sigma4"],
    )
    def test_arity_mismatch_is_config_error(self, tmp_path, capsys, symbol):
        path = tmp_path / "bad.ini"
        path.write_text(
            BASE_CONFIG.replace("p = 1, 1", "p = 2, 2").replace(
                "symbol = sigma1_bilinear", f"symbol = {symbol}"
            )
        )
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "arity" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_constant_one_takes_its_arity_from_p(self, tmp_path):
        path = tmp_path / "one.ini"
        path.write_text(
            BASE_CONFIG.replace("symbol = sigma1_bilinear", "symbol = constant_one").replace(
                "trials = 4", "trials = 2"
            )
        )
        config, _ = load_config(str(path))
        op = run_context(config).op
        assert (op.m, op.symbol.kind) == (2, "product")
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) in (0, 1)
        assert len(json.loads((out / "report.json").read_text())["trials"]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["run", str(tmp_path / "none.ini"), "--out", str(tmp_path / "o")]) == 2

    def test_report_independent_of_output_directory(self, config_file, tmp_path):
        reports = []
        for name in ("a", "nested/b"):
            out = tmp_path / name
            assert main(["run", str(config_file), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            del report["manifest"]["created_unix"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_manifest_written_before_results(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["symbol"] == "sigma1_bilinear"
        assert manifest["version"]


FULL_CONFIG = """
[operator]
symbol = sigma1_bilinear
cutoff = none

[indices]
p = 2, 2
n_moments = 2

[grid]
n = 1
L = 8
M = 4096

[ensemble]
trials = 3
max_atoms = 2
seed = 47
ell = 0.5
center_span = 0.15
dilatable = true

[checks]
boundedness = true
scale_invariance = true
cancellation = true
decay = true
local_estimate = true
pointwise_majorant = true
fs_inequality = true
"""


class TestAllChecksThroughCli:
    def test_every_check_wired(self, tmp_path):
        cfg = tmp_path / "full.ini"
        cfg.write_text(FULL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        checks = report["summary"]["checks"]
        expected = {
            "boundedness",
            "scale_invariance",
            "cancellation",
            "decay",
            "local_estimate",
            "pointwise_majorant",
            "fs_inequality",
        }
        assert set(checks) == expected
        assert all(entry["pass"] for entry in checks.values())
        assert (out / "decay_fit.dat").exists()
        assert report["manifest"]["config_sha256"]


MIXED_CONFIG = """
[operator]
symbol = sigma4
cutoff = default

[indices]
p = 2, 2, 2

[grid]
n = 1
L = 8
M = 256

[ensemble]
trials = 2
max_atoms = 2
seed = 5
ell = 1
center_span = 0.25

[checks]
boundedness = true
cancellation = true
pointwise_majorant = true
"""


class TestOneApplicationPerAtomSet:
    @pytest.mark.parametrize(
        "config, checks, trials, expected, expected_linear, expected_passes",
        [
            # Each ensemble trial and each dilated scale-invariance trial
            # applies T once; the checks apply it once to the full-order
            # atoms and once to the decay atoms.  The base trials of scale
            # invariance are the ensemble's own records.  The engine takes
            # each stage's atom sets in one pass: the ensemble, the dilated
            # trials and the two check sets.
            (
                FULL_CONFIG.replace("M = 4096", "M = 512"),
                7,
                3,
                lambda trials: trials + min(trials, 20) + 2,
                lambda trials: 0,
                3,
            ),
            # sigma4 has three partition groups over its two terms, each
            # applied once per trial and once to the check atoms: the
            # bilinear group through the general engine, the trilinear one
            # on its tensor train (the cost rule's pick at M=256), the
            # one-slot group as a 1-linear multiplier.  The majorant reads
            # those group outputs instead of applying them.  Both trials fit
            # one pass of the bilinear group, and so does the check set.
            (
                MIXED_CONFIG,
                3,
                2,
                lambda trials: trials + 1,
                lambda trials: trials + 1,
                2,
            ),
            # sigma3's six rank-one terms name 18 one-slot factors, of which
            # 12 are distinct (slot, symbol) pairs; each is applied once, all
            # 12 of a set in one apply_linear call.
            (
                MIXED_CONFIG.replace("sigma4", "sigma3"),
                3,
                2,
                lambda trials: 0,
                lambda trials: trials + 1,
                0,
            ),
        ],
        ids=["general", "mixed", "product"],
    )
    def test_apply_general_call_count(
        self, tmp_path, monkeypatch, config, checks, trials, expected, expected_linear,
        expected_passes,
    ):
        # Counts input sets through the engine and its passes: each call
        # ``apply_general(op, sets)`` is one pass over its sets, and each
        # ``apply_linear`` call takes every one-slot group of one set.
        calls = {"apply_general": [], "apply_linear": []}
        passes = []
        general = hardylab.operators.apply_general
        linear = hardylab.operators.apply_linear

        def counting_general(op, sets):
            calls["apply_general"].extend(sets)
            passes.append(1)
            return general(op, sets)

        def counting_linear(*args, **kwargs):
            calls["apply_linear"].append(1)
            return linear(*args, **kwargs)

        monkeypatch.setattr(hardylab.operators, "apply_general", counting_general)
        monkeypatch.setattr(hardylab.operators, "apply_linear", counting_linear)
        cfg = tmp_path / "run.ini"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--jobs", "1"]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        assert len(report["summary"]["checks"]) == checks
        assert len(report["trials"]) == trials
        assert len(calls["apply_general"]) == expected(trials)
        assert len(calls["apply_linear"]) == expected_linear(trials)
        assert len(passes) == expected_passes


class TestLadderReachesTheChecks:
    def test_half_steps_change_local_estimate_and_majorant(self, tmp_path):
        # The config's ladder is the one the checks use: refining it by
        # half steps moves the maximal-function ratios.
        base = FULL_CONFIG.replace("M = 4096", "M = 512").split("[checks]")[0]
        results = {}
        for half in ("true", "false"):
            cfg = tmp_path / f"half_{half}.ini"
            cfg.write_text(
                base
                + "[checks]\nboundedness = false\nlocal_estimate = true\n"
                + "pointwise_majorant = true\n\n[ladder]\nhalf_steps = "
                + half
                + "\n"
            )
            out = tmp_path / half
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            results[half] = json.loads((out / "report.json").read_text())["summary"]["checks"]
        on, off = results["true"], results["false"]
        assert on["local_estimate"]["ratio_maximal"] != off["local_estimate"]["ratio_maximal"]
        assert on["pointwise_majorant"]["ratio_sup"] != off["pointwise_majorant"]["ratio_sup"]


class TestReplayCommand:
    def test_replay_fresh_report(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for trial in report["trials"]:
            assert main(["replay", str(out / "report.json"), str(trial["trial_id"])]) == 0

    def test_tampered_value_detected(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report["trials"][1]["lhs"] = report["trials"][1]["lhs"] * 1.0000001
        tampered = out / "tampered.json"
        tampered.write_text(json.dumps(report))
        assert main(["replay", str(tampered), "1"]) == 1

    def test_missing_trial(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        assert main(["replay", str(out / "report.json"), "99"]) == 2

    def test_bad_report_path(self, tmp_path):
        assert main(["replay", str(tmp_path / "missing.json"), "0"]) == 2

    @pytest.mark.parametrize(
        "record, missing",
        [({"seed": 0}, "trial_id"), ({"trial_id": 0}, "inputs")],
        ids=["no-trial_id", "no-inputs"],
    )
    def test_malformed_trial_record_is_read_error(self, tmp_path, capsys, record, missing):
        # A record without its id or its entries is an unreadable report
        # (exit 2), not a replay mismatch (exit 1).
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"config": {}, "trials": [record]}))
        assert main(["replay", str(report), "0"]) == 2
        assert f"error reading report: '{missing}'" in capsys.readouterr().err

    def test_unknown_config_key_is_read_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report["config"]["extra_key"] = 1
        edited = out / "edited.json"
        edited.write_text(json.dumps(report))
        assert main(["replay", str(edited), "0"]) == 2
        assert "error reading report" in capsys.readouterr().err


class TestLegacyKind:
    # Configs and reports written while the operator class was a config field
    # restate it as ``kind``: accepted when it matches the symbol, never stored.
    def test_matching_kind_loads(self, config_file, tmp_path):
        path = tmp_path / "kind.ini"
        path.write_text(BASE_CONFIG.replace("[operator]\n", "[operator]\nkind = general\n"))
        assert load_config(str(path)) == load_config(str(config_file))

    def test_mismatching_kind_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "kind.ini"
        path.write_text(BASE_CONFIG.replace("[operator]\n", "[operator]\nkind = product\n"))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "kind" in capsys.readouterr().err
        assert not out.exists()

    def test_general_constant_one_is_config_error(self, tmp_path, capsys):
        # constant_one is a product of one-slot constants, so a config that
        # restates it as general no longer matches it.
        path = tmp_path / "kind.ini"
        path.write_text(
            BASE_CONFIG.replace("symbol = sigma1_bilinear", "kind = general\nsymbol = constant_one")
        )
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "of kind product, config says general" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, code", [("general", 0), ("mixed", 2)])
    def test_replay_report_with_kind(self, config_file, tmp_path, kind, code):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report["config"]["kind"] = kind
        edited = out / "edited.json"
        edited.write_text(json.dumps(report))
        for trial in report["trials"]:
            assert main(["replay", str(edited), str(trial["trial_id"])]) == code


def test_decay_points_file_equals_the_per_point_loop(tmp_path):
    # decay_fit.dat takes one np.log10 per column; the file is byte for byte
    # what the per-point loop below writes, on distances and magnitudes over
    # the whole double range, powers of ten and a zero included.
    import numpy as np

    from hardylab.cli import _format_float, _write_decay_points
    from hardylab.verify import DecayReport

    rng = np.random.default_rng(12)
    distance = np.concatenate([10.0 ** rng.uniform(-300, 300, 4000), [1.0, 10.0, 0.1, 1e-5, 5e-324]])
    magnitude = np.concatenate([rng.random(4000) * 10.0 ** rng.integers(-30, 30, 4000), [1e300, 1.0, 3.0, 0.0, 2.0]])
    rep = DecayReport(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, distance, magnitude)
    with np.errstate(divide="ignore"):
        _write_decay_points(tmp_path / "decay_fit.dat", rep)
        lines = ["# log10_distance log10_magnitude"]
        for d, v in zip(rep.point_distance, rep.point_magnitude):
            lines.append(f"{_format_float(float(np.log10(d)))} {_format_float(float(np.log10(v)))}")
    want = ("\n".join(lines) + "\n").encode()
    assert (tmp_path / "decay_fit.dat").read_bytes() == want
