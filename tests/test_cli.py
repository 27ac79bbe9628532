import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import dfcm_topics
from dfcm_topics import autoencoder as ae
from dfcm_topics import coherence, textprep, topics
from dfcm_topics.autoencoder import TrainConfig
from dfcm_topics.cli import main
from dfcm_topics.errors import ConfigError
from dfcm_topics.errors import MalformedLineError
from dfcm_topics.fcm import FcmConfig
from dfcm_topics.seeding import stage_seed
from dfcm_topics.topics import PipelineConfig
import dfcm_topics.cli as cli

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    MATRIX_HEADER_CASES, MATRIX_HEADER_IDS, planted_corpus, write_planted_embeddings,
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    sets, docs, _ = planted_corpus(0)
    corpus = root / "corpus.jsonl"
    with open(corpus, "w") as fh:
        for i, toks in enumerate(docs):
            fh.write(json.dumps({"id": f"doc{i}", "text": " ".join(toks)}) + "\n")
    embeddings = root / "embeddings.txt"
    write_planted_embeddings(embeddings, sets)
    return root


@pytest.fixture(scope="module")
def artifacts(corpus_dir):
    out = corpus_dir / "vec"
    rc = main([
        "vectorize",
        "--corpus", str(corpus_dir / "corpus.jsonl"),
        "--out-dir", str(out),
    ])
    assert rc == 0
    return out


def _write_config(path, artifacts, out_dir, **overrides):
    cfg = {
        "method": "efcm",
        "dim": 5,
        "clusters": 3,
        "fcm": {"fuzzifier": 1.1, "max_iter": 1000, "eps": 0.005},
        "train": {"epochs": 3, "batch_size": 256},
        "paths": {
            "vocabulary": str(artifacts / "vocabulary.json"),
            "matrix": str(artifacts / "matrix.txt"),
            "out_dir": str(out_dir),
        },
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


class TestVectorize:
    def test_outputs_exist(self, artifacts):
        assert (artifacts / "vocabulary.json").exists()
        assert (artifacts / "matrix.txt").exists()
        vocab = json.loads((artifacts / "vocabulary.json").read_text())
        assert len(vocab["terms"]) == 60
        assert vocab["threshold"] == 10

    def test_rerun_byte_identical(self, corpus_dir, artifacts, tmp_path):
        out2 = tmp_path / "vec2"
        rc = main([
            "vectorize",
            "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--out-dir", str(out2),
        ])
        assert rc == 0
        assert (out2 / "matrix.txt").read_bytes() == (
            artifacts / "matrix.txt"
        ).read_bytes()
        assert (out2 / "vocabulary.json").read_bytes() == (
            artifacts / "vocabulary.json"
        ).read_bytes()

    def test_empty_corpus_fails_with_data_error(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        rc = main([
            "vectorize", "--corpus", str(corpus), "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == cli.EXIT_DATA


class TestDetect:
    def test_efcm_outputs(self, artifacts, tmp_path):
        out = tmp_path / "run"
        cfg = _write_config(tmp_path / "cfg.json", artifacts, out)
        rc = main(["detect", "--config", str(cfg), "--seed", "7"])
        assert rc == 0
        topics = json.loads((out / "topics.json").read_text())
        assert len(topics["topics"]) == 3
        assert (out / "memberships.txt").exists()
        assert (out / "objective_trace.json").exists()
        assert not (out / "model.bin").exists()  # efcm has no checkpoint

    def test_dfcm_writes_checkpoint(self, artifacts, tmp_path):
        out = tmp_path / "run"
        cfg = _write_config(tmp_path / "cfg.json", artifacts, out, method="dfcm")
        rc = main(["detect", "--config", str(cfg), "--seed", "7"])
        assert rc == 0
        assert (out / "model.bin").exists()
        assert (out / "model.bin.json").exists()

    def test_records_the_seeds_the_run_used(self, artifacts, tmp_path):
        out = tmp_path / "run"
        cfg = _write_config(tmp_path / "cfg.json", artifacts, out, method="dfcm")
        assert main(["detect", "--config", str(cfg), "--seed", "7", "--epochs", "1"]) == 0
        recorded = json.loads((out / "topics.json").read_text())["config"]
        sidecar = json.loads((out / "model.bin.json").read_text())
        assert recorded["fcm"]["seed"] == stage_seed(7, "fcm-init")
        assert recorded["train"]["seed"] == stage_seed(7, "train")
        assert sidecar["train_config"] == recorded["train"]

    def test_flag_overrides_config(self, artifacts, tmp_path):
        out = tmp_path / "run"
        cfg = _write_config(tmp_path / "cfg.json", artifacts, out)
        rc = main([
            "detect", "--config", str(cfg), "--seed", "7", "--clusters", "2",
        ])
        assert rc == 0
        topics = json.loads((out / "topics.json").read_text())
        assert len(topics["topics"]) == 2

    def test_unknown_config_key_rejected(self, artifacts, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metod": "efcm"}))
        rc = main(["detect", "--config", str(cfg), "--seed", "1"])
        assert rc == cli.EXIT_CONFIG

    def test_invalid_method_named_in_error(self, artifacts, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "lda"}))
        with pytest.raises(ConfigError, match="method"):
            cli.load_run_config(cfg)
        rc = main(["detect", "--config", str(cfg), "--seed", "1"])
        assert rc == cli.EXIT_CONFIG

    def test_seed_required(self, artifacts, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", artifacts, tmp_path / "o")
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--config", str(cfg)])
        assert exc.value.code == cli.EXIT_CONFIG


_CLI = "import sys; from dfcm_topics.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_cli(argv, **env):
    """The CLI in a child process that imports this checkout's package."""
    src = str(Path(dfcm_topics.__file__).parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", _CLI, *argv], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("method", ["efcm", "dfcm"])
def test_topic_words_same_at_one_and_two_blas_threads(artifacts, tmp_path, method):
    words = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        cfg = _write_config(tmp_path / f"cfg{threads}.json", artifacts, out, method=method,
                            train={"epochs": 2})
        _run_cli(["detect", "--config", str(cfg), "--seed", "7"], OPENBLAS_NUM_THREADS=threads,
                 OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads).check_returncode()
        topic_set = json.loads((out / "topics.json").read_text())["topics"]
        words.append([[w["term"] for w in t["words"]] for t in topic_set])
    assert words[0] == words[1] and all(words[0])


class TestEvaluate:
    def test_report(self, corpus_dir, artifacts, tmp_path):
        out = tmp_path / "run"
        cfg = _write_config(tmp_path / "cfg.json", artifacts, out)
        assert main(["detect", "--config", str(cfg), "--seed", "3"]) == 0
        report_path = tmp_path / "report.json"
        rc = main([
            "evaluate",
            "--topics", str(out / "topics.json"),
            "--embeddings", str(corpus_dir / "embeddings.txt"),
            "--out", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert len(report["per_topic"]) == 3
        assert report["mean_score"] >= 0.8  # planted embeddings


class TestCompare:
    def test_sweep_table(self, corpus_dir, artifacts, tmp_path):
        out = tmp_path / "sweep"
        cfg = _write_config(
            tmp_path / "cfg.json",
            artifacts,
            out,
            compare={"methods": ["dfcm", "efcm"], "clusters": [2, 3], "epochs": [2]},
            paths={
                "vocabulary": str(artifacts / "vocabulary.json"),
                "matrix": str(artifacts / "matrix.txt"),
                "embeddings": str(corpus_dir / "embeddings.txt"),
                "out_dir": str(out),
            },
        )
        rc = main(["compare", "--config", str(cfg), "--seed", "11"])
        assert rc == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2 methods x 2 cluster counts
        assert lines[0].startswith("method,p,c,epochs,mean_score")

    @staticmethod
    def _counting(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    @staticmethod
    def _sweep_config(path, corpus_dir, artifacts, out_dir, compare, **overrides):
        # The criterion-10 run configuration with the given compare section.
        cfg = {
            "method": "dfcm",
            "dim": 5,
            "clusters": 3,
            "train": {"epochs": 3, "batch_size": 256},
            "paths": {
                "vocabulary": str(artifacts / "vocabulary.json"),
                "matrix": str(artifacts / "matrix.txt"),
                "embeddings": str(corpus_dir / "embeddings.txt"),
                "out_dir": str(out_dir),
            },
            "compare": compare,
            **overrides,
        }
        path.write_text(json.dumps(cfg))
        return path

    def test_each_cell_is_a_detect_run_with_its_group_seed(
        self, corpus_dir, artifacts, tmp_path, monkeypatch
    ):
        fine_tunes = self._counting(monkeypatch, ae, "fine_tune")
        out = tmp_path / "sweep"
        compare = {"methods": ["dfcm", "efcm"], "clusters": [2, 3], "epochs": [2]}
        cfg = self._sweep_config(tmp_path / "cfg.json", corpus_dir, artifacts, out, compare)
        assert main(["compare", "--config", str(cfg), "--seed", "13"]) == 0
        assert len(fine_tunes) == 1  # one DFCM group, trained once for both c
        for method in ("dfcm", "efcm"):
            group_seed = stage_seed(13, method, 2)
            for c in (2, 3):
                ref = tmp_path / f"detect_{method}_{c}"
                assert main([
                    "detect", "--config", str(cfg), "--seed", str(group_seed),
                    "--method", method, "--clusters", str(c), "--epochs", "2",
                    "--out-dir", str(ref),
                ]) == 0
                cell = out / f"{method}_c{c}_e2"
                names = ["topics.json", "memberships.txt", "objective_trace.json"]
                if method == "dfcm":
                    names += ["model.bin", "model.bin.json"]
                assert sorted(f.name for f in cell.iterdir()) == sorted(names)
                for name in names:
                    assert (cell / name).read_bytes() == (ref / name).read_bytes(), name

    def test_rows_run_method_then_epochs_then_clusters(
        self, corpus_dir, artifacts, tmp_path, monkeypatch
    ):
        fine_tunes = self._counting(monkeypatch, ae, "fine_tune")
        out = tmp_path / "sweep"
        compare = {"methods": ["efcm", "dfcm"], "clusters": [3, 2], "epochs": [1, 2]}
        cfg = self._sweep_config(tmp_path / "cfg.json", corpus_dir, artifacts, out, compare)
        assert main(["compare", "--config", str(cfg), "--seed", "5"]) == 0
        assert len(fine_tunes) == 2  # one per DFCM epochs value
        with open(out / "compare.csv", newline="") as fh:
            rows = [(r["method"], r["epochs"], r["c"], r["status"]) for r in csv.DictReader(fh)]
        assert rows == [
            ("efcm", "", "3", "ok"), ("efcm", "", "2", "ok"),
            ("dfcm", "1", "3", "ok"), ("dfcm", "1", "2", "ok"),
            ("dfcm", "2", "3", "ok"), ("dfcm", "2", "2", "ok"),
        ]
        assert (out / "efcm_c3_e1").is_dir() and not (out / "efcm_c3_e2").exists()

    def test_failed_representation_is_computed_once_per_group(
        self, corpus_dir, artifacts, tmp_path, monkeypatch
    ):
        represents = self._counting(monkeypatch, topics, "represent")
        out = tmp_path / "sweep"
        compare = {"methods": ["efcm"], "clusters": [2, 3, 4]}
        cfg = self._sweep_config(tmp_path / "cfg.json", corpus_dir, artifacts, out, compare,
                                 dim=100)  # above the 60-term vocabulary's rank
        assert main(["compare", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_OK
        assert len(represents) == 1
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["c"] for r in rows] == ["2", "3", "4"]
        assert {r["status"] for r in rows} == {"error: rank 100 exceeds min((300, 60))"}
        assert all(r["mean_score"] == "" for r in rows)
        assert not any(out.glob("efcm_c*"))


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("overrides, named", [
    ({"clusters": "3"}, "clusters"),
    ({"dim": True}, "dim"),
    ({"fcm": []}, "config.fcm"),
    ({"train": {"epochs": 1.5}}, "train.epochs"),
    ({"fcm": {"max_iter": 2.5}}, "fcm.max_iter"),
    ({"train": {"optimizer": "adaptive_moments"}}, "optimizer"),  # removed, even at its default
    ({"fcm": {"fuzzifier": 1.0}}, "fuzzification"),
    ({"fcm": {"init_runs": 0}}, "init_runs"),
    ({"train": {"dropout_rate": 1.0}}, "dropout_rate"),  # an EFCM run checks train too
    ({"train": {"beta1": 0.9}}, "beta1"),
    ({"train": {"beta2": 0.999}}, "beta2"),
    ({"train": {"stabilizer": 1e-8}}, "stabilizer"),
    ({"train": {"momentum": 0.9}}, "momentum"),
])
def test_malformed_config_value_is_a_config_error(artifacts, tmp_path, caplog, overrides, named):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out, **overrides)
    # main returns instead of raising: no traceback reaches the user.
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_CONFIG
    assert named in caplog.text
    assert not out.exists()


def test_int_for_float_field_kept_in_snapshot(artifacts, tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out, fcm={"fuzzifier": 2})
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == 0
    snapshot = json.loads((out / "topics.json").read_text())["config"]
    assert type(snapshot["fcm"]["f"]) is int and snapshot["fcm"]["f"] == 2


def test_seed_in_config_rejected_in_favour_of_flag(artifacts, tmp_path, caplog):
    cfg = _write_config(tmp_path / "cfg.json", artifacts, tmp_path / "run", seed=5)
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_CONFIG
    assert "--seed" in caplog.text


def test_json_only_train_fields_have_flags(artifacts, tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out, method="dfcm")
    rc = main([
        "detect", "--config", str(cfg), "--seed", "1", "--epochs", "1",
        "--batch-size", "128", "--learning-rate", "0.002", "--dropout", "0.1",
    ])
    assert rc == 0
    train = json.loads((out / "topics.json").read_text())["config"]["train"]
    assert train == {"epochs": 1, "batch_size": 128, "learning_rate": 0.002,
                     "dropout_rate": 0.1, "seed": stage_seed(1, "train")}


def test_removed_optimizer_flags_are_rejected(capsys):
    for flag in ("--optimizer", "--beta1", "--beta2", "--stabilizer", "--momentum"):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--config", "run.json", "--seed", "1", flag, "0.5"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("compare", [
    {"methods": "efcm"},
    {"methods": ["lda"]},
    {"methods": []},
    {"clusters": [0]},
    {"clusters": [True]},
    {"epochs": [1.5]},
])
def test_compare_section_checked_before_inputs_are_read(tmp_path, compare):
    # The input paths do not exist: reading them first would be a data error.
    out = tmp_path / "sweep"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "method": "efcm",
        "compare": compare,
        "paths": {
            "vocabulary": str(tmp_path / "missing.json"),
            "matrix": str(tmp_path / "missing.txt"),
            "embeddings": str(tmp_path / "missing.vec"),
            "out_dir": str(out),
        },
    }))
    assert main(["compare", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_CONFIG
    assert not (out / "compare.csv").exists()


@pytest.mark.parametrize("command", ["detect", "compare"])
@pytest.mark.parametrize("key", ["vocabulary", "out_dir"])
@pytest.mark.parametrize("value", [1, True, [], {}, "", "x\ud800", "x\0"],
                         ids=["int", "true", "list", "object", "empty", "lone-surrogate", "nul"])
def test_paths_must_be_non_empty_strings(artifacts, tmp_path, caplog, command, key, value):
    # 1 as a path would open, then close, the process's stdout.
    out = tmp_path / "run"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out, paths={key: value})
    assert main([command, "--config", str(cfg), "--seed", "1"]) == cli.EXIT_CONFIG
    assert f"config.paths.{key} must be a non-empty string" in caplog.text
    assert not out.exists()


def test_surrogate_escaped_path_byte_is_accepted(artifacts, tmp_path):
    # "\udcff" is how Python spells the file-name byte 0xff it cannot decode.
    out = f"{tmp_path / 'run'}\udcff"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out)
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_OK
    assert os.path.isfile(os.fsencode(out) + b"/topics.json")


@pytest.mark.parametrize("command, missing", [
    ("detect", "vocabulary"),
    ("detect", "out_dir"),
    ("compare", "out_dir"),
    ("compare", "embeddings"),
])
def test_required_paths_resolved_before_inputs_are_read(tmp_path, monkeypatch, caplog,
                                                        command, missing):
    loaders = [(textprep, "load_vocabulary"), (textprep, "load_matrix"),
               (coherence, "load_word_vectors")]
    for module, name in loaders:
        monkeypatch.setattr(module, name, mock.Mock(side_effect=AssertionError(name)))
    paths = {key: str(tmp_path / key) for key in ("vocabulary", "matrix", "embeddings", "out_dir")}
    del paths[missing]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "efcm", "paths": paths}))
    assert main([command, "--config", str(cfg), "--seed", "1"]) == cli.EXIT_CONFIG
    assert f"config.paths.{missing} is required" in caplog.text
    assert not any(getattr(module, name).called for module, name in loaders)


@pytest.mark.parametrize("method", ["dfcm", "efcm"])
@pytest.mark.parametrize("column, value, named", [
    (2, "nan", "weight"),
    (2, "-0.5", "weight"),
    (1, "{n_terms}", "column"),
    (0, "x1", "x1"),
])
def test_malformed_matrix_line_is_a_data_error(artifacts, tmp_path, method, column, value, named):
    lines = (artifacts / "matrix.txt").read_text().splitlines()
    parts = lines[4].split()
    parts[column] = value.format(n_terms=lines[0].split()[1])
    lines[4] = " ".join(parts)
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedLineError, match=named) as err:
        textprep.load_matrix(matrix)
    assert err.value.line_number == 5
    assert str(matrix) in str(err.value)
    cfg = _write_config(
        tmp_path / "cfg.json", artifacts, tmp_path / "run", method=method,
        paths={"matrix": str(matrix)},
    )
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_DATA


@pytest.mark.parametrize("method", ["dfcm", "efcm"])
@pytest.mark.parametrize("case, named", [
    ("duplicate", "duplicate entry"),
    ("trailing line", "past the header's nnz"),
], ids=["duplicate", "trailing-line"])
def test_matrix_entries_must_match_header_nnz(artifacts, tmp_path, method, case, named):
    lines = (artifacts / "matrix.txt").read_text().splitlines()
    if case == "duplicate":  # line 6 repeats line 5's (row, col)
        row, col, _ = lines[4].split()
        lines[5], bad_line = f"{row} {col} 2.0", 6
    else:
        lines.append(lines[-1])
        bad_line = len(lines)
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedLineError, match=named) as err:
        textprep.load_matrix(matrix)
    assert err.value.line_number == bad_line
    assert str(matrix) in str(err.value)
    cfg = _write_config(
        tmp_path / "cfg.json", artifacts, tmp_path / "run", method=method,
        paths={"matrix": str(matrix)},
    )
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_DATA


@pytest.mark.parametrize("text, named", MATRIX_HEADER_CASES, ids=MATRIX_HEADER_IDS)
def test_malformed_matrix_header_is_a_data_error(artifacts, tmp_path, caplog, text, named):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(text)
    cfg = _write_config(tmp_path / "cfg.json", artifacts, tmp_path / "run",
                        paths={"matrix": str(matrix)})
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_DATA
    assert re.search(f"{re.escape(str(matrix))}: line 1: {named}", caplog.text)


@pytest.mark.parametrize("method", ["dfcm", "efcm"])
def test_too_many_clusters_fail_before_the_representation(artifacts, tmp_path, monkeypatch,
                                                          caplog, method):
    with open(artifacts / "matrix.txt") as fh:
        n_docs = int(fh.readline().split()[0])
    represent = mock.Mock(side_effect=AssertionError("represent"))
    monkeypatch.setattr(topics, "represent", represent)
    cfg = _write_config(tmp_path / "cfg.json", artifacts, tmp_path / "run", method=method,
                        clusters=n_docs + 1)
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_DATA
    assert f"{n_docs} points < {n_docs + 1} clusters" in caplog.text
    assert not represent.called


def test_overflowing_training_loss_exits_3_without_a_numpy_warning(artifacts, tmp_path):
    """A weight of 2e19 squares past float32's range: detect reports only NonFiniteLossError."""
    lines = (artifacts / "matrix.txt").read_text().splitlines()
    row, col, _ = lines[4].split()
    lines[4] = f"{row} {col} 2e19"
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("\n".join(lines) + "\n")
    cfg = _write_config(tmp_path / "cfg.json", artifacts, tmp_path / "run", method="dfcm",
                        paths={"matrix": str(matrix)})
    proc = _run_cli(["detect", "--config", str(cfg), "--seed", "1"])
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert "training loss became inf" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def _truncate(text):
    return text[: len(text) // 2]


@pytest.mark.parametrize("edit, named", [
    (lambda text: text.replace('"doc_freq"', '"doc_freqs"'), "'doc_freq'"),
    (_truncate, "invalid JSON"),
], ids=["missing-key", "invalid-json"])
def test_malformed_vocabulary_is_a_data_error(artifacts, tmp_path, caplog, edit, named):
    vocab = tmp_path / "vocabulary.json"
    vocab.write_text(edit((artifacts / "vocabulary.json").read_text()))
    cfg = _write_config(
        tmp_path / "cfg.json", artifacts, tmp_path / "run", method="dfcm",
        paths={"vocabulary": str(vocab)},
    )
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_DATA
    assert str(vocab) in caplog.text and named in caplog.text


@pytest.mark.parametrize("edit, named", [
    (lambda text: text.replace('"words"', '"terms"'), "'words'"),
    (_truncate, "invalid JSON"),
], ids=["missing-key", "invalid-json"])
def test_malformed_topics_is_a_data_error(corpus_dir, tmp_path, caplog, edit, named):
    path = tmp_path / "topics.json"
    path.write_text(edit(_topics_text()))
    rc = main(["evaluate", "--topics", str(path),
               "--embeddings", str(corpus_dir / "embeddings.txt")])
    assert rc == cli.EXIT_DATA
    assert str(path) in caplog.text and named in caplog.text


@pytest.mark.parametrize("bad, payload", [
    ("vocabulary", {"terms": "abc"}),
    ("vocabulary", {"terms": [1, 2]}),
    ("vocabulary", {"terms": ["a", "a"]}),
    ("vocabulary", {"terms": ["b", "a"]}),
    ("topics", {"term": 5, "weight": 1.0}),
    ("topics", {"term": "a", "weight": "x"}),
    ("topics", {"term": "a", "weight": True}),
], ids=["terms-string", "terms-ints", "terms-duplicate", "terms-unsorted",
        "topic-term-int", "topic-weight-string", "topic-weight-bool"])
def test_wrongly_typed_json_content_is_a_data_error(corpus_dir, artifacts, tmp_path, caplog,
                                                    bad, payload):
    path = tmp_path / f"{bad}.json"
    if bad == "vocabulary":
        path.write_text(json.dumps({**payload, "doc_freq": {}, "threshold": 10}))
        cfg = _write_config(tmp_path / "cfg.json", artifacts, tmp_path / "run",
                            paths={"vocabulary": str(path)})
        load, argv = textprep.load_vocabulary, ["detect", "--config", cfg, "--seed", "1"]
    else:
        path.write_text(json.dumps({"method": "efcm", "config": {}, "warnings": [],
                                    "topics": [{"index": 0, "words": [payload]}]}))
        load = topics.load_topic_set
        argv = ["evaluate", "--topics", path, "--embeddings", corpus_dir / "embeddings.txt"]
    with pytest.raises(MalformedLineError, match=f"^{re.escape(str(path))}: "):
        load(path)
    assert main([str(arg) for arg in argv]) == cli.EXIT_DATA
    assert f"{path}: " in caplog.text


@pytest.mark.parametrize("bad", ["stopwords", "out_dir"])
def test_vectorize_fails_before_reading_the_corpus(corpus_dir, tmp_path, monkeypatch, bad):
    read = mock.Mock(side_effect=AssertionError("the corpus was read"))
    monkeypatch.setattr(textprep, "read_corpus_jsonl", read)
    blocker = tmp_path / "file"
    blocker.write_text("")
    stopwords = tmp_path / "missing.txt" if bad == "stopwords" else "en"
    out = blocker / "vec" if bad == "out_dir" else tmp_path / "vec"
    rc = main(["vectorize", "--corpus", str(corpus_dir / "corpus.jsonl"),
               "--stopwords", str(stopwords), "--out-dir", str(out)])
    assert rc == cli.EXIT_DATA
    assert not read.called


@pytest.mark.parametrize("command", ["detect", "compare"])
def test_out_dir_created_before_any_input_is_read(artifacts, tmp_path, monkeypatch, command):
    work = [(textprep, "load_vocabulary"), (textprep, "load_matrix"),
            (coherence, "load_word_vectors"), (topics, "detect"), (topics, "represent")]
    for module, name in work:
        monkeypatch.setattr(module, name, mock.Mock(side_effect=AssertionError(name)))
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _write_config(tmp_path / "cfg.json", artifacts, blocker / "run",
                        paths={"embeddings": str(tmp_path / "embeddings.txt")})
    assert main([command, "--config", str(cfg), "--seed", "1"]) == cli.EXIT_DATA
    assert not any(getattr(module, name).called for module, name in work)


@pytest.mark.parametrize("key", ["corpus", "stopwords"])
def test_paths_no_command_reads_are_rejected(artifacts, tmp_path, caplog, key):
    cfg = _write_config(tmp_path / "cfg.json", artifacts, tmp_path / "run",
                        paths={key: str(tmp_path / key)})
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_CONFIG
    assert f"unknown key(s) in config.paths: ['{key}']" in caplog.text


def _topics_text():
    words = [{"term": f"topic0word{j:02d}", "weight": 1.0} for j in range(3)]
    return json.dumps({"method": "efcm", "config": {}, "warnings": [],
                       "topics": [{"index": 0, "words": words}]})


def _evaluate(corpus_dir, tmp_path, out):
    path = tmp_path / "topics.json"
    path.write_text(_topics_text())
    return main(["evaluate", "--topics", str(path),
                 "--embeddings", str(corpus_dir / "embeddings.txt"), "--out", str(out)])


def test_evaluate_fails_on_its_output_before_reading_input(corpus_dir, tmp_path, monkeypatch):
    work = [(topics, "load_topic_set"), (coherence, "load_word_vectors")]
    for module, name in work:
        monkeypatch.setattr(module, name, mock.Mock(side_effect=AssertionError(name)))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _evaluate(corpus_dir, tmp_path, blocker / "report" / "coherence.json") == cli.EXIT_DATA
    assert not any(getattr(module, name).called for module, name in work)


def test_evaluate_creates_its_output_directory(corpus_dir, tmp_path):
    out = tmp_path / "missing" / "report.json"
    assert _evaluate(corpus_dir, tmp_path, out) == cli.EXIT_OK
    assert len(json.loads(out.read_text())["per_topic"]) == 1


@pytest.mark.parametrize(
    "bad", ["corpus", "stopwords", "vocabulary", "matrix", "topics", "embeddings", "config"]
)
def test_invalid_utf8_names_the_file(corpus_dir, artifacts, tmp_path, caplog, bad):
    files = {
        "corpus": corpus_dir / "corpus.jsonl",
        "stopwords": tmp_path / "stopwords.txt",
        "vocabulary": artifacts / "vocabulary.json",
        "matrix": artifacts / "matrix.txt",
        "topics": tmp_path / "topics.json",
        "embeddings": corpus_dir / "embeddings.txt",
    }
    files["stopwords"].write_text("the\nand\nof\n")
    files["topics"].write_text(_topics_text())
    files["config"] = tmp_path / "cfg.json"

    def corrupt(key):  # a 0xff byte, never valid in UTF-8, halfway into the file
        data = files[key].read_bytes()
        files[key] = tmp_path / f"bad-{files[key].name}"
        files[key].write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])

    if bad != "config":
        corrupt(bad)
    _write_config(files["config"], artifacts, tmp_path / "run", paths={
        "vocabulary": str(files["vocabulary"]), "matrix": str(files["matrix"])})
    if bad == "config":
        corrupt(bad)
    argv = {
        "vectorize": ["--corpus", files["corpus"], "--stopwords", files["stopwords"],
                      "--out-dir", tmp_path / "vec"],
        "detect": ["--config", files["config"], "--seed", "1"],
        "evaluate": ["--topics", files["topics"], "--embeddings", files["embeddings"],
                     "--out", tmp_path / "coherence.json"],
    }
    command = {"corpus": "vectorize", "stopwords": "vectorize", "topics": "evaluate",
               "embeddings": "evaluate"}.get(bad, "detect")
    rc = main([command, *map(str, argv[command])])
    if bad == "config":
        assert rc == cli.EXIT_CONFIG and f"cannot read config {files[bad]}: " in caplog.text
    else:
        assert rc == cli.EXIT_DATA and f"{files[bad]}: not UTF-8 text" in caplog.text


HUGE_INT = "1" * 5000  # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize("bad, text", [
    ("embeddings", "2 \u00b3\nw0 1\nw1 2\n"),  # a superscript passes isdigit(), not int()
    ("embeddings", f"2 {HUGE_INT}\nw0 1\nw1 2\n"),
    ("corpus", f'{{"id": {HUGE_INT}, "text": "x"}}\n'),
    ("vocabulary", f'{{"terms": [], "doc_freq": {{}}, "threshold": {HUGE_INT}}}'),
    ("topics", f'{{"method": "efcm", "config": {{}}, "warnings": [], "topics": {HUGE_INT}}}'),
    ("config", f'{{"clusters": {HUGE_INT}}}'),
], ids=["embedding-superscript-dim", "embedding-huge-dim", "corpus-huge-id",
        "vocabulary-huge-int", "topics-huge-int", "config-huge-int"])
def test_unparseable_number_names_the_file(corpus_dir, artifacts, tmp_path, caplog, bad, text):
    path = tmp_path / f"bad-{bad}"
    path.write_text(text)
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, artifacts, tmp_path / "run", paths={"vocabulary": str(path)})
    topics = tmp_path / "topics.json"
    topics.write_text(_topics_text())
    argv = {
        "embeddings": ["evaluate", "--topics", topics, "--embeddings", path],
        "corpus": ["vectorize", "--corpus", path, "--out-dir", tmp_path / "vec"],
        "vocabulary": ["detect", "--config", cfg, "--seed", "1"],
        "topics": ["evaluate", "--topics", path, "--embeddings", corpus_dir / "embeddings.txt"],
        "config": ["detect", "--config", path, "--seed", "1"],
    }[bad]
    rc = main([str(arg) for arg in argv])
    if bad == "config":
        assert rc == cli.EXIT_CONFIG and f"cannot read config {path}: " in caplog.text
    else:
        assert rc == cli.EXIT_DATA and f"{path}: " in caplog.text


@pytest.mark.parametrize("text, line", [
    ("topic0word00\ntopic0word01\n", 1),
    ("2 0\ntopic0word00\ntopic0word01\n", 1),
    ("\ntopic0word00\n", 2),
], ids=["bare-terms", "zero-dim-header", "blank-then-bare-term"])
def test_zero_dimensional_embeddings_are_a_data_error(tmp_path, caplog, text, line):
    path = tmp_path / "embeddings.txt"
    path.write_text(text)
    topics = tmp_path / "topics.json"
    topics.write_text(_topics_text())
    rc = main(["evaluate", "--topics", str(topics), "--embeddings", str(path)])
    assert rc == cli.EXIT_DATA
    assert f"{path}: line {line}: embedding dimension is 0" in caplog.text


DEEP_JSON = "[" * 100_000


@pytest.mark.parametrize("bad", ["corpus", "vocabulary", "topics", "config"])
def test_deeply_nested_json_names_the_file(corpus_dir, artifacts, tmp_path, caplog, bad):
    path = tmp_path / f"bad-{bad}"
    path.write_text(DEEP_JSON + "\n" if bad == "corpus" else DEEP_JSON)
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, artifacts, tmp_path / "run", paths={"vocabulary": str(path)})
    topics = tmp_path / "topics.json"
    topics.write_text(_topics_text())
    argv = {
        "corpus": ["vectorize", "--corpus", path, "--out-dir", tmp_path / "vec"],
        "vocabulary": ["detect", "--config", cfg, "--seed", "1"],
        "topics": ["evaluate", "--topics", path, "--embeddings", corpus_dir / "embeddings.txt"],
        "config": ["detect", "--config", path, "--seed", "1"],
    }[bad]
    rc = main([str(arg) for arg in argv])
    if bad == "config":
        assert rc == cli.EXIT_CONFIG and f"cannot read config {path}: " in caplog.text
    else:
        where = f"{path}: line 1: " if bad == "corpus" else f"{path}: invalid JSON"
        assert rc == cli.EXIT_DATA and where in caplog.text


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("section, key, value", [
    ("fcm", "fuzzifier", NAN), ("fcm", "eps", INF), ("fcm", "eps", -INF),
    ("train", "learning_rate", NAN),
], ids=["fuzzifier-nan", "eps-infinity", "eps-minus-infinity", "learning-rate-nan"])
def test_non_finite_config_number_is_a_config_error(artifacts, tmp_path, caplog,
                                                    section, key, value):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out, **{section: {key: value}})
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_CONFIG
    constant = json.dumps(value)
    assert f"cannot read config {cfg}: non-finite number {constant}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--fuzzifier", "nan", "fuzzification"), ("--eps", "inf", "eps"),
    ("--learning-rate", "-1.0", "learning_rate"), ("--learning-rate", "nan", "learning_rate"),
    ("--dropout", "1.0", "dropout_rate"), ("--dropout", "nan", "dropout_rate"),
])
def test_config_value_outside_its_domain_is_a_config_error(artifacts, tmp_path, caplog,
                                                           flag, value, named):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out)  # an EFCM run
    assert main(["detect", "--config", str(cfg), "--seed", "1", flag, value]) == cli.EXIT_CONFIG
    assert f"invalid config: {named}" in caplog.text


@pytest.mark.parametrize("how", ["config", "flag"])
def test_infinite_fuzzifier_is_a_config_error_before_any_input_is_read(artifacts, tmp_path,
                                                                       caplog, how):
    # JSON reads the overflowing literal 1e999 as inf without calling parse_constant.
    out, matrix = tmp_path / "run", tmp_path / "matrix.txt"
    matrix.write_text("not a matrix\n")  # reading it would exit 2
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out, paths={"matrix": str(matrix)})
    argv = ["detect", "--config", str(cfg), "--seed", "1"]
    if how == "config":
        cfg.write_text(cfg.read_text().replace('"fuzzifier": 1.1', '"fuzzifier": 1e999'))
        assert "1e999" in cfg.read_text()
    else:
        argv += ["--fuzzifier", "inf"]
    assert main(argv) == cli.EXIT_CONFIG
    assert "invalid config: fuzzification constant must be finite and > 1" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("bad", ["vocabulary", "topics"])
def test_non_finite_json_number_is_a_data_error(corpus_dir, artifacts, tmp_path, caplog, bad):
    path = tmp_path / f"bad-{bad}"
    if bad == "vocabulary":
        vocab = json.loads((artifacts / "vocabulary.json").read_text())
        vocab["doc_freq"][vocab["terms"][0]] = NAN
        path.write_text(json.dumps(vocab))
    else:
        payload = json.loads(_topics_text())
        payload["topics"][0]["words"][0]["weight"] = -INF
        path.write_text(json.dumps(payload))
    cfg = _write_config(tmp_path / "cfg.json", artifacts, tmp_path / "run",
                        paths={"vocabulary": str(path)})
    argv = {
        "vocabulary": ["detect", "--config", cfg, "--seed", "1"],
        "topics": ["evaluate", "--topics", path, "--embeddings", corpus_dir / "embeddings.txt"],
    }[bad]
    assert main([str(arg) for arg in argv]) == cli.EXIT_DATA
    constant = "-Infinity" if bad == "topics" else "NaN"
    assert f"{path}: invalid JSON (non-finite number {constant})" in caplog.text


def test_lone_surrogate_in_corpus_text_is_a_data_error(tmp_path, caplog):
    # json.dumps writes the lone surrogate as the JSON escape \ud800, which json.loads reads back.
    corpus = tmp_path / "corpus.jsonl"
    lines = [json.dumps({"id": i, "text": "word \ud800"}) + "\n" for i in range(12)]
    corpus.write_text("".join(lines))
    out = tmp_path / "vec"
    assert main(["vectorize", "--corpus", str(corpus), "--out-dir", str(out)]) == cli.EXIT_DATA
    assert f"{corpus}: line 1: text has a lone surrogate" in caplog.text
    assert not (out / "vocabulary.json").exists()


def test_lone_surrogate_vocabulary_term_is_a_data_error(artifacts, tmp_path, caplog):
    vocab = json.loads((artifacts / "vocabulary.json").read_text())
    vocab["terms"][-1] = "\ud800"  # sorts after every ASCII term
    path = tmp_path / "vocabulary.json"
    path.write_text(json.dumps(vocab))
    out = tmp_path / "run"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out, paths={"vocabulary": str(path)})
    assert main(["detect", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_DATA
    assert f"{path}: malformed content (a term has a lone surrogate" in caplog.text
    assert not (out / "topics.json").exists()


@pytest.mark.parametrize("bad, fields", [
    ("vocabulary", {"doc_freq": None}),
    ("vocabulary", {"doc_freq": {"zz": -3}}),
    ("vocabulary", {"doc_freq": {"zz": True}}),
    ("vocabulary", {"threshold": "x"}),
    ("vocabulary", {"threshold": -1}),
    ("topics", {"method": 5}),
    ("topics", {"method": "kmeans"}),
    ("topics", {"config": []}),
    ("topics", {"warnings": 7}),
    ("topics", {"warnings": [7]}),
], ids=["doc-freq-null", "doc-freq-negative", "doc-freq-bool", "threshold-string",
        "threshold-negative", "method-int", "method-unknown", "config-list", "warnings-int",
        "warnings-ints"])
def test_loaded_fields_outside_their_domain_are_data_errors(corpus_dir, artifacts, tmp_path,
                                                           bad, fields):
    path = tmp_path / f"{bad}.json"
    if bad == "vocabulary":
        payload = json.loads((artifacts / "vocabulary.json").read_text())
        cfg = _write_config(tmp_path / "cfg.json", artifacts, tmp_path / "run",
                            paths={"vocabulary": str(path)})
        load, argv = textprep.load_vocabulary, ["detect", "--config", cfg, "--seed", "1"]
    else:
        payload = json.loads(_topics_text())
        load = topics.load_topic_set
        argv = ["evaluate", "--topics", path, "--embeddings", corpus_dir / "embeddings.txt"]
    path.write_text(json.dumps({**payload, **fields}))
    with pytest.raises(MalformedLineError, match=f"^{re.escape(str(path))}: malformed content"):
        load(path)
    assert main([str(arg) for arg in argv]) == cli.EXIT_DATA


def test_compare_keeps_vectors_of_vocabulary_terms_only(corpus_dir, artifacts, tmp_path,
                                                        monkeypatch):
    calls = TestCompare._counting(monkeypatch, coherence, "load_word_vectors")
    out = tmp_path / "sweep"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out, compare={"clusters": [2, 3]},
                        paths={"embeddings": str(corpus_dir / "embeddings.txt")})
    assert main(["compare", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_OK
    vocab = textprep.load_vocabulary(artifacts / "vocabulary.json")
    assert [words for _, words in calls] == [vocab.terms]


def test_evaluate_keeps_vectors_of_topic_words_only(corpus_dir, tmp_path, monkeypatch):
    calls = TestCompare._counting(monkeypatch, coherence, "load_word_vectors")
    assert _evaluate(corpus_dir, tmp_path, tmp_path / "coherence.json") == cli.EXIT_OK
    assert [words for _, words in calls] == [{f"topic0word{j:02d}" for j in range(3)}]


def test_compare_rejects_a_bad_unscored_embedding_line_before_any_cell(
    corpus_dir, artifacts, tmp_path, caplog
):
    # Past the first chunk of 64 lines, on a term no vocabulary holds.
    lines = (corpus_dir / "embeddings.txt").read_text().splitlines()
    dim = int(lines[0].split()[1])
    lines += [f"unscored{i} {' '.join(['0'] * dim)}" for i in range(100)]
    lines.append(f"unscored {' '.join(['x'] * dim)}")
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sweep"
    cfg = _write_config(tmp_path / "cfg.json", artifacts, out, compare={"clusters": [2, 3]},
                        paths={"embeddings": str(embeddings)})
    assert main(["compare", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_DATA
    assert f"{embeddings}: line {len(lines)}: non-numeric value" in caplog.text
    assert list(out.iterdir()) == []


def test_readme_config_example_loads(tmp_path):
    examples = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(examples) == 1
    path = tmp_path / "run.json"
    path.write_text(examples[0])
    cli.load_run_config(path)


def test_detect_help_lists_one_flag_per_config_field(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) - {"--help"}
    settable = [
        f
        for cls, skip in (
            (PipelineConfig, {"fcm", "train"}), (FcmConfig, {"c"}), (TrainConfig, set())
        )
        for f in dataclasses.fields(cls)
        if f.name not in {"seed", *skip}
    ]
    assert len(settable) == 12
    other = {"--config", "--seed", "--matrix", "--vocabulary", "--out-dir"}
    assert other <= flags
    assert len(flags - other) == len(settable)
    readme = README.read_text()
    flag_list = re.search(r"derived from the dataclass fields:\n\n(.*?)\n\n", readme, re.S)[1]
    listed = set(re.findall(r"`(--[a-z0-9-]+)`", flag_list))
    overrides = flags - {"--config", "--seed"}
    assert sorted(overrides - listed) == []  # every override flag is in README's list
    assert sorted(listed - overrides) == []  # and README lists no flag the parser lacks


_CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 50) | st.integers() | st.floats()
    | st.sampled_from(["dfcm", "efcm", "x", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)


def _config_section(keys):
    """A JSON object over the section's keys (and "seed"), or any JSON value."""
    return st.dictionaries(st.sampled_from(sorted({*keys, "seed"})), _CONFIG_VALUES,
                           max_size=4) | _CONFIG_VALUES


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.fixed_dictionaries({}, optional={
    key: _config_section(cli._KEYS[key]) if key in cli._KEYS else _CONFIG_VALUES
    for key in sorted(cli._KEYS[""])
}) | _CONFIG_VALUES)
def test_run_config_loader_returns_or_raises_config_error(tmp_path, config):
    path = tmp_path / "cfg.json"
    # json.dumps spells infinity Infinity, which parse_constant rejects; 1e999 is the
    # literal that JSON reads as infinity without it. No sampled string holds "Infinity".
    path.write_text(json.dumps(config).replace("Infinity", "1e999"))
    try:
        cfg = cli.load_run_config(path)
    except ConfigError:
        return
    floats = [key for key, (_, f) in cli._FIELDS.items() if f.type is float]
    assert sorted(floats) == ["dropout_rate", "eps", "fuzzifier", "learning_rate"]
    assert all(math.isfinite(cfg[key]) for key in floats)
    assert 1 < cfg["fuzzifier"] < math.inf and cfg["eps"] > 0 and cfg["learning_rate"] > 0
    assert 0 <= cfg["dropout_rate"] < 1
