import pytest

from lexner.autodiff import ConfigError
from lexner.cli import build_parser
from lexner.config import OPTIONS, RunConfig, _coerce, load_config
from lexner.model import ModelConfig, TrainSettings

# every run option and its default; a change here changes the CLI, config
# files and the run config echoed into checkpoints
DEFAULTS = {
    # paths and input/output
    "train": "", "dev": "", "test": "", "lexicon": "", "char_embeddings": "",
    "lex_embeddings": "", "checkpoint": "model.ckpt", "log": "epochs.csv",
    "output": "predictions.tsv", "corpus_format": "column-bmes",
    "max_sentence_len": 256,
    # model structure
    "d_char": 50, "d_seg": 25, "d_pos": 25, "d_lex": 50, "d_mod": 20,
    "k_cut": 2, "bucket_cap": 8, "max_entity_len": 10, "char_encoder": "birnn",
    "fragment_encoder": "fofe", "char_hidden": 128, "char_layers": 2,
    "frag_hidden": 128, "head_hidden": 256, "head_layers": 2,
    "fofe_alpha": 0.5, "gamma": 2.0, "learn_alpha": True,
    # training and decoding
    "lr": 1e-3, "weight_decay": 1e-7, "dropout": 0.3, "batch_size": 16,
    "clip_norm": 5.0, "epochs": 30, "freeze_lex": True, "use_lexicon": True,
    "early_stop_f1": -1.0, "eval_train": False, "seed": 1, "rho": 0.25,
    "nested": False,
}


class TestSchema:
    def test_options_and_defaults_pinned(self):
        assert len(DEFAULTS) == 42
        cfg = RunConfig()
        assert {name: getattr(cfg, name) for name in OPTIONS} == DEFAULTS
        for name, value in DEFAULTS.items():
            assert type(getattr(cfg, name)) is type(value), name

    def test_every_option_is_a_flag_of_every_command(self):
        parser = build_parser()
        argv = [a for name in DEFAULTS for a in (f"--{name.replace('_', '-')}", "1")]
        for command in ("train", "eval", "predict", "sweep"):
            extra = ["--checkpoints", "x"] if command == "sweep" else []
            args = parser.parse_args([command] + argv + extra)
            assert {name: getattr(args, name) for name in DEFAULTS} == \
                dict.fromkeys(DEFAULTS, "1"), command

    def test_vocabulary_sizes_are_not_options(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n_types = 3\n")
        with pytest.raises(ConfigError, match="unknown option 'n_types'"):
            load_config(str(conf), {})
        with pytest.raises(ConfigError):
            load_config(None, {"n_chars": 7})

    def test_byte_order_mark_dropped(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"\xef\xbb\xbf" + b"epochs = 4\n")
        cfg, explicit = load_config(str(conf), {})
        assert cfg.epochs == 4 and explicit == {"epochs"}

    def test_sub_configs_carry_the_values(self):
        cfg, explicit = load_config(None, {"d_char": 7, "lr": 0.5,
                                           "early_stop_f1": 0.9})
        assert explicit == {"d_char", "lr", "early_stop_f1"}
        assert cfg.model_config() == ModelConfig(d_char=7)
        assert cfg.train_settings() == TrainSettings(lr=0.5, early_stop_f1=0.9)
        assert RunConfig().train_settings() == TrainSettings()

    def test_coerce_reads_declared_types(self):
        assert _coerce("epochs", "4") == 4
        assert _coerce("fofe_alpha", "0.25") == 0.25
        assert _coerce("early_stop_f1", "-1") == -1.0
        assert _coerce("nested", "yes") is True
        assert _coerce("char_encoder", "baseline") == "baseline"
        for name, raw in (("epochs", "4.5"), ("rho", "abc"), ("nested", "maybe")):
            with pytest.raises(ConfigError, match=name):
                _coerce(name, raw)


class TestValidation:
    @pytest.mark.parametrize("over", [dict(dropout=1.0), dict(rho=1.5),
                                      dict(batch_size=0), dict(epochs=-1),
                                      dict(lr=0.0), dict(clip_norm=-3.0),
                                      dict(clip_norm=float("nan")),
                                      dict(lr=float("nan")), dict(lr=float("inf")),
                                      dict(weight_decay=-1.0),
                                      dict(weight_decay=float("nan")),
                                      dict(weight_decay=float("inf"))])
    def test_train_settings_rules(self, over):
        with pytest.raises(ConfigError):
            TrainSettings(**over).validate()

    @pytest.mark.parametrize("over", [dict(dropout=1.0), dict(lr=0.0),
                                      dict(fofe_alpha=1.0), dict(k_cut=-1),
                                      dict(corpus_format="conll"),
                                      dict(max_sentence_len=0),
                                      dict(max_sentence_len=-1),
                                      dict(clip_norm=-0.5), dict(lr=float("nan")),
                                      dict(lr=float("inf")), dict(weight_decay=-1.0),
                                      dict(weight_decay=float("nan")),
                                      dict(weight_decay=float("inf")),
                                      dict(gamma=float("nan")), dict(d_char=-3),
                                      dict(d_lex=0, d_mod=0)])
    def test_run_config_checks_every_owner(self, over):
        with pytest.raises(ConfigError):
            load_config(None, over)

    def test_zero_clip_norm_disables_clipping(self):
        TrainSettings(clip_norm=0.0).validate()

    def test_zero_weight_decay_allowed(self):
        TrainSettings(weight_decay=0.0).validate()
