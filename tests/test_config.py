import warnings

import pytest

from varieties.config import PipelineConfig, load_config, parse_config_text
from varieties.errors import ConfigError


class TestParse:
    def test_basic_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "corpus_n = data/n.jsonl\n"
            "seed = 7\n"
            "svm_c = 2.5  # inline comment\n"
            'out = "my out dir"\n'
            'corpus_t = "runs/#1/t.jsonl"  # a quoted value keeps its #\n'
        )
        config = load_config(cfg, env={})
        assert config.corpus_n == "data/n.jsonl"
        assert config.seed == 7
        assert config.svm_c == 2.5
        assert config.out == "my out dir"
        assert config.corpus_t == "runs/#1/t.jsonl"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    @pytest.mark.parametrize("key", ["svm_tol", "sample_tokens"])
    def test_fixed_values_are_not_keys(self, key):
        # the SMO tolerance and the bootstrap sample size are constants
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(f"{key} = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("seed = lots\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            load_config(tmp_path / "absent.cfg", env={})

    def test_not_utf8_names_file_and_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\nout = caf\xe9\n")
        with pytest.raises(ConfigError) as error:
            load_config(cfg, env={})
        assert str(error.value) == f"{cfg}:2: not UTF-8 text"


class TestPrecedence:
    def test_env_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        config = load_config(cfg, env={"VARIETIES_SEED": "99"})
        assert config.seed == 99

    def test_cli_overrides_env(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        config = load_config(
            cfg, overrides={"seed": 5}, env={"VARIETIES_SEED": "99"}
        )
        assert config.seed == 5

    def test_none_overrides_are_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        config = load_config(cfg, overrides={"seed": None, "out": None}, env={})
        assert config.seed == 3


class TestUnknownEnvironment:
    def test_unknown_variables_named_in_one_warning(self):
        env = {"VARIETIES_SVM_TOL": "1e-6", "VARIETIES_SEEED": "3", "VARIETIES_SEED": "4"}
        with pytest.warns(UserWarning) as record:
            config = load_config(env=env)
        assert len(record) == 1
        message = str(record[0].message)
        assert "VARIETIES_SEEED, VARIETIES_SVM_TOL" in message
        assert "VARIETIES_SEED," not in message
        assert config.seed == 4

    @pytest.mark.parametrize(
        "env",
        [
            {"VARIETIES_EUROPARL_DIR": "/data/europarl"},
            {"VARIETIES_SEED": "7", "VARIETIES_OUT": "runs/x"},
            {"OTHER_SVM_TOL": "1e-6", "varieties_seed": "1"},
        ],
    )
    def test_keys_and_the_corpus_gate_are_quiet(self, env):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_config(env=env)


class TestValidation:
    def test_defaults_are_valid(self):
        config = PipelineConfig()
        assert config.chunk_target == 2000
        assert config.cv_folds == 10
        assert config.bootstrap_iterations == 1000
        assert config.lm_order == 5

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            PipelineConfig(chunk_target=0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_svm_c_must_be_positive_and_finite(self, value):
        # nan fails every comparison, so `<= 0` alone cannot reject it
        with pytest.raises(ConfigError, match="svm_c must be positive and finite"):
            load_config(env={"VARIETIES_SVM_C": value})

    @pytest.mark.parametrize("folds", [1, 0, -3])
    def test_cv_folds_below_two_rejected(self, folds):
        with pytest.raises(ConfigError, match=f"cv_folds must be at least 2, got {folds}"):
            PipelineConfig(cv_folds=folds)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence, which metrics and cluster seed from, takes
        # non-negative integers only
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            PipelineConfig(seed=-1)
        assert PipelineConfig(seed=0).seed == 0

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            PipelineConfig(format="xml")

    def test_missing_corpus_named(self, tmp_path):
        config = PipelineConfig()
        with pytest.raises(ConfigError, match="corpus_nn"):
            config.corpus_path("NN")

    def test_nonexistent_corpus_path(self, tmp_path):
        config = PipelineConfig(corpus_n=str(tmp_path / "gone.jsonl"))
        with pytest.raises(ConfigError, match="no such file"):
            config.corpus_path("N")

    def test_directory_corpus_path(self, tmp_path):
        config = PipelineConfig(corpus_n=str(tmp_path))
        with pytest.raises(ConfigError) as error:
            config.corpus_path("N")
        assert str(error.value) == f"corpus_n: not a regular file: {tmp_path}"
