import os

import numpy as np
import pytest

from lexner import checkpoint
from lexner.cli import main
from lexner.corpus import read_corpus, write_corpus
from lexner.lexicon import Lexicon
from lexner.synth import make_corpus

import span_reference as ref

# small recipe that reliably learns the synthetic corpus on CPU
FAST = ["--d-char", "16", "--d-seg", "8", "--d-pos", "8", "--d-lex", "24",
        "--d-mod", "8", "--char-encoder", "baseline",
        "--fragment-encoder", "bow", "--head-hidden", "32",
        "--head-layers", "1", "--max-entity-len", "5",
        "--lr", "1e-2", "--dropout", "0.0", "--freeze-lex", "false"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    train, dev, lex_words = make_corpus(0, n_train=200, n_dev=30)
    write_corpus(str(d / "train.txt"), train)
    write_corpus(str(d / "dev.txt"), dev)
    write_corpus(str(d / "tiny.txt"), train[:30])
    with open(d / "lex.txt", "w", encoding="utf-8") as fh:
        for i, w in enumerate(lex_words):
            fh.write(f"{w} {i % 7 + 1}\n")
    with open(d / "raw.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(dev[0].chars) + "\n\n" + "".join(dev[1].chars) + "\n")
    return d


def train_args(d, train="train.txt", ckpt="m.ckpt", log="log.csv", seed="1",
               epochs="18"):
    return (["train", "--train", str(d / train),
             "--dev", str(d / "dev.txt"), "--lexicon", str(d / "lex.txt"),
             "--checkpoint", str(d / ckpt), "--log", str(d / log),
             "--epochs", epochs, "--seed", seed] + FAST)


@pytest.fixture(scope="module")
def trained(workdir):
    assert main(train_args(workdir)) == 0
    return workdir


class TestTrain:
    def test_missing_lexicon_exits_2(self, workdir, capsys):
        args = train_args(workdir, ckpt="x.ckpt", log="x.csv")
        i = args.index("--lexicon")
        args[i + 1] = str(workdir / "no_such_file.txt")
        assert main(args) == 2
        assert "lexicon" in capsys.readouterr().err

    def test_bad_bucket_cap_exits_2(self, workdir, capsys):
        args = train_args(workdir, ckpt="x.ckpt", log="x.csv") + ["--bucket-cap", "0"]
        assert main(args) == 2
        assert "bucket_cap" in capsys.readouterr().err
        assert not (workdir / "x.ckpt").exists()

    def test_multichar_token_exits_2(self, workdir, capsys):
        lines = (workdir / "tiny.txt").read_text(encoding="utf-8").splitlines()
        lines[4] = "ab" + lines[4][1:]
        (workdir / "multichar.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = train_args(workdir, train="multichar.txt", ckpt="x.ckpt", log="x.csv")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "multichar.txt:5" in err and "'ab'" in err
        assert not (workdir / "x.ckpt").exists()

    def test_non_numeric_lexicon_frequency_exits_2(self, workdir, capsys):
        lines = (workdir / "lex.txt").read_text(encoding="utf-8").splitlines()
        lines[2] = "word abc"
        (workdir / "badlex.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = train_args(workdir, train="tiny.txt", ckpt="x.ckpt", log="x.csv")
        args[args.index("--lexicon") + 1] = str(workdir / "badlex.txt")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "badlex.txt:3" in err and "'abc'" in err
        assert not (workdir / "x.ckpt").exists()

    def test_non_numeric_char_embedding_exits_2(self, workdir, capsys):
        char = (workdir / "tiny.txt").read_text(encoding="utf-8")[0]
        values = ["0.1"] * 16
        rows = [f"{char} {' '.join(values)}", f"{char} abc {' '.join(values[1:])}"]
        (workdir / "bademb.txt").write_text("\n".join(rows) + "\n", encoding="utf-8")
        args = train_args(workdir, train="tiny.txt", ckpt="x.ckpt", log="x.csv")
        assert main(args + ["--char-embeddings", str(workdir / "bademb.txt")]) == 2
        assert "bademb.txt:2" in capsys.readouterr().err
        assert not (workdir / "x.ckpt").exists()

    def test_corpus_not_utf8_exits_2(self, workdir, capsys):
        lines = (workdir / "tiny.txt").read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        (workdir / "latin.txt").write_bytes(b"\n".join(lines))
        args = train_args(workdir, train="latin.txt", ckpt="x.ckpt", log="x.csv")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "latin.txt:3" in err and "UTF-8" in err
        assert not (workdir / "x.ckpt").exists()

    def test_artifacts_written(self, trained):
        assert (trained / "m.ckpt").exists()
        header, *rows = (trained / "log.csv").read_text().splitlines()
        assert header == "epoch,split,P,R,F1,loss"
        assert len(rows) == 18

    def test_training_learned_something(self, trained):
        rows = (trained / "log.csv").read_text().splitlines()[1:]
        f1s = [float(r.split(",")[4]) for r in rows]
        assert max(f1s) > 0.5

    def test_same_seed_bit_identical(self, workdir):
        # identical command (including paths) run twice; files are compared
        # between the runs since the second one overwrites them
        args = train_args(workdir, train="tiny.txt", ckpt="d.ckpt",
                          log="d.csv", epochs="3")
        assert main(args) == 0
        ckpt1 = (workdir / "d.ckpt").read_bytes()
        log1 = (workdir / "d.csv").read_text()
        assert main(args) == 0
        assert (workdir / "d.ckpt").read_bytes() == ckpt1
        assert (workdir / "d.csv").read_text() == log1


class TestEval:
    def test_eval_runs(self, trained, capsys):
        code = main(["eval", "--checkpoint", str(trained / "m.ckpt"),
                     "--dev", str(trained / "dev.txt"), "--split", "dev"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("micro P=")
        assert "PER:" in out

    def test_structure_mismatch_rejected(self, trained, capsys):
        code = main(["eval", "--checkpoint", str(trained / "m.ckpt"),
                     "--dev", str(trained / "dev.txt"), "--split", "dev",
                     "--d-char", "99"])
        assert code == 2
        assert "d_char" in capsys.readouterr().err

    def test_missing_checkpoint(self, workdir, capsys):
        code = main(["eval", "--checkpoint", str(workdir / "nope.ckpt"),
                     "--dev", str(workdir / "dev.txt"), "--split", "dev"])
        assert code == 2

    def test_malformed_checkpoint_header(self, workdir, capsys):
        from lexner.checkpoint import MAGIC
        path = workdir / "bad.ckpt"
        path.write_bytes(MAGIC + b'{"config": \n')
        for cmd in (["eval", "--dev", str(workdir / "dev.txt"), "--split", "dev"],
                    ["predict", "--input", str(workdir / "dev.txt"),
                     "--output-file", str(workdir / "bad.tsv")]):
            assert main(cmd + ["--checkpoint", str(path)]) == 2
            assert "malformed checkpoint header" in capsys.readouterr().err


class TestPredict:
    def test_annotated_input_metrics_line(self, trained):
        out = trained / "pred.txt"
        code = main(["predict", "--checkpoint", str(trained / "m.ckpt"),
                     "--input", str(trained / "dev.txt"),
                     "--output-file", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("# micro ")
        body = [ln for ln in lines if not ln.startswith("#")]
        for ln in body:
            sid, start, end, etype, prob = ln.split("\t")
            assert 0.0 <= float(prob) <= 1.0
            assert int(start) <= int(end)

    def test_raw_input(self, trained):
        out = trained / "pred_raw.txt"
        code = main(["predict", "--checkpoint", str(trained / "m.ckpt"),
                     "--input", str(trained / "raw.txt"), "--raw",
                     "--output-file", str(out)])
        assert code == 0
        for ln in out.read_text().splitlines():
            assert not ln.startswith("# micro")   # no gold, no metrics

    def test_raw_input_truncated(self, trained, caplog):
        raw = trained / "long_raw.txt"
        raw.write_text("".join((trained / "raw.txt").read_text(encoding="utf-8")
                               .split()) * 20 + "\n", encoding="utf-8")
        out = trained / "pred_long_raw.txt"
        code = main(["predict", "--checkpoint", str(trained / "m.ckpt"),
                     "--input", str(raw), "--raw", "--max-sentence-len", "50",
                     "--rho", "0", "--output-file", str(out)])
        assert code == 0
        assert "to 50 characters" in caplog.text
        for ln in out.read_text().splitlines():
            assert int(ln.split("\t")[2]) < 50

    def test_attention_rows_sum_to_one(self, trained):
        out = trained / "pred_attn.txt"
        code = main(["predict", "--checkpoint", str(trained / "m.ckpt"),
                     "--input", str(trained / "dev.txt"), "--dump-attention",
                     "--output-file", str(out)])
        assert code == 0
        attn = [ln for ln in out.read_text().splitlines()
                if ln.startswith("#attn\t")]
        assert attn, "expected at least one attention row"
        for ln in attn:
            _, sid, start, end, ws, labels = ln.split("\t")
            weights = np.array([float(x) for x in ws.split()])
            assert np.isclose(weights.sum(), 1.0)
            assert len(labels.split("|")) == len(weights)

    def test_attention_labels_match_reference(self, trained):
        # each dumped span lists its real rows by bucket, then its null rows
        # by bucket, as the per-span reference lays them out
        out = trained / "pred_attn_labels.txt"
        assert main(["predict", "--checkpoint", str(trained / "m.ckpt"),
                     "--input", str(trained / "dev.txt"), "--dump-attention",
                     "--output-file", str(out)]) == 0
        model, _ = checkpoint.load(str(trained / "m.ckpt"))
        lex = Lexicon.from_file(str(trained / "lex.txt"))
        cfg, table = model.config, model.vocab.lex
        unk = table.id("<unk>")
        sents = read_corpus(str(trained / "dev.txt"))
        mixed = 0
        for ln in out.read_text().splitlines():
            if not ln.startswith("#attn\t"):
                continue
            _, sid, start, end, _, labels = ln.split("\t")
            span = (int(start), int(end))
            [want] = ref.memory_layouts(lex, sents[int(sid)].text, [span], cfg.k_cut,
                                        cfg.bucket_cap, lambda w: table.id(w, unk))
            assert labels.split("|") == want.row_labels(cfg.k_cut)
            mixed += 0 < len(want.lex_ids) and len(want.null_buckets) > 0
        assert mixed, "expected a span with both filled and null buckets"


class TestSweep:
    def test_grid_csv(self, trained):
        out = trained / "sweep.csv"
        code = main(["sweep", "--checkpoints", str(trained / "m.ckpt"),
                     "--dev", str(trained / "dev.txt"),
                     "--rhos", "0.0,0.3,0.6", "--output-file", str(out)])
        assert code == 0
        header, *rows = out.read_text().splitlines()
        assert header == "gamma,rho,F1"
        assert len(rows) == 3
        for r in rows:
            gamma, rho, f1 = r.split(",")
            assert 0.0 <= float(f1) <= 1.0

    def test_single_cell(self, trained, capsys):
        code = main(["sweep", "--checkpoints", str(trained / "m.ckpt"),
                     "--dev", str(trained / "dev.txt"), "--rhos", "0.25"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 2


    @pytest.mark.parametrize("rhos", ["0.2,1.5", "0.2,abc"])
    def test_bad_rhos_exit_2(self, trained, capsys, rhos):
        code = main(["sweep", "--checkpoints", str(trained / "m.ckpt"),
                     "--dev", str(trained / "dev.txt"), "--rhos", rhos])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rho")
        assert rhos.split(",")[1] in err


class TestSharedPath:
    def test_structure_mismatch_rejected(self, trained, capsys):
        for cmd in (["predict", "--checkpoint", str(trained / "m.ckpt"),
                     "--input", str(trained / "dev.txt"),
                     "--output-file", str(trained / "never.tsv")],
                    ["sweep", "--checkpoints", str(trained / "m.ckpt"),
                     "--dev", str(trained / "dev.txt")]):
            assert main(cmd + ["--d-char", "99"]) == 2
            assert "d_char" in capsys.readouterr().err
        assert not (trained / "never.tsv").exists()

    def test_eval_predict_sweep_agree(self, trained, capsys):
        common = ["--dev", str(trained / "dev.txt"), "--rho", "0.3"]
        assert main(["eval", "--checkpoint", str(trained / "m.ckpt"),
                     "--split", "dev"] + common) == 0
        eval_f1 = capsys.readouterr().out.splitlines()[0].split("F1=")[1]
        out = trained / "pred_agree.txt"
        assert main(["predict", "--checkpoint", str(trained / "m.ckpt"),
                     "--input", str(trained / "dev.txt"),
                     "--output-file", str(out)] + common) == 0
        predict_f1 = out.read_text().splitlines()[-1].split("F1=")[1]
        assert main(["sweep", "--checkpoints", str(trained / "m.ckpt"),
                     "--rhos", "0.3"] + common) == 0
        sweep_f1 = float(capsys.readouterr().out.splitlines()[-1].split(",")[2])
        assert predict_f1 == eval_f1
        assert float(eval_f1) > 50
        assert abs(100 * sweep_f1 - float(eval_f1)) <= 0.005 + 1e-9


class TestConfigFile:
    def test_config_file_plus_override(self, trained, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"checkpoint = {trained / 'm.ckpt'}\n"
            f"dev = {trained / 'dev.txt'}\n"
            "rho = 0.25\n"
            "# a comment line\n")
        code = main(["eval", "--config", str(conf), "--split", "dev"])
        assert code == 0

    def test_unknown_key_rejected(self, trained, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("no_such_option = 3\n")
        code = main(["eval", "--config", str(conf), "--split", "dev"])
        assert code == 2


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["train", "--bogus"]) == 2
