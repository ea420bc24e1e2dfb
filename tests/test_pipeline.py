import contextlib
import csv
import dataclasses
import datetime
import errno
import gc
import json
import os
import random
import re
import shutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covbias import bias, extraction, inference, ingestion, pipeline, reporting
from covbias.cli import build_parser, load_config
from covbias.cli import main as cli_main
from covbias.errors import ConfigError, InputError, StageError
from covbias.model import Category, CountTable, Gender, PersonalizationRecord, SourceType
from covbias.pipeline import (
    PipelineConfig,
    ingest_check,
    run_pipeline,
    stage_analyze,
    stage_extract,
    stage_report,
    write_artifacts,
)
import corpusgen
from conftest import data_path, record_rows, sentiment_record, table_from_events, write_config
from oracles import weighted_quantile_scan

EXPECTED_OUTPUTS = [
    "records.jsonl",
    "counts.csv",
    "count_table.json",
    "descriptives.json",
    "diagnostics.json",
    "bias_profile.json",
    "summary_stats.json",
    "agreement.json",
    "sentiment_fractions.csv",
    "chi_square.json",
    "quantiles.csv",
    "quantile_coefficients.json",
    "temporal_moral_behavioral.json",
    "temporal_physical.json",
    "temporal_socio_economic.json",
    "manifest.json",
    "table1.csv",
    "ccdf_neighbors_coverage.csv",
    "ccdf_neighbors_personalization.csv",
    "ccdf_sentences_coverage.csv",
    "ccdf_sentences_personalization.csv",
]


def read_bundle_bytes(out_dir):
    """The bytes of every file in `out_dir`, by name; directories are skipped."""
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if not os.path.isdir(path):
            with open(path, "rb") as fh:
                blobs[name] = fh.read()
    return blobs


def bad_head_conllu(tmp_path):
    """A copy of the tiny corpus whose line 3 has HEAD 99, out of range."""
    with open(data_path("tiny.conllu"), encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[2] = lines[2].replace("\t2\tdet\t", "\t99\tdet\t")
    path = tmp_path / "bad_head.conllu"
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyrun")
    out = root / "out"
    cfg_path = write_config(root / "cfg.ini", out)
    cfg = PipelineConfig.from_ini(str(cfg_path))
    run_pipeline(cfg)
    return cfg, out


class TestPipelineOutputs:
    def test_all_sections_present(self, tiny_run):
        _, out = tiny_run
        for name in EXPECTED_OUTPUTS:
            assert (out / name).exists(), name
        for cat in ("moral_behavioral", "physical", "socio_economic"):
            for gender in ("F", "M"):
                assert (out / f"distinctive_{cat}_{gender}.csv").exists()
                assert (out / f"distinctive_{cat}_{gender}_negative.csv").exists()

    def test_manifest_counts_match_fixture(self, tiny_run):
        _, out = tiny_run
        manifest = json.loads((out / "manifest.json").read_text())
        cov = manifest["counts"]["coverage"]
        assert cov["F"]["words"] == 8 and cov["M"]["words"] == 3
        assert cov["F"]["politicians"] == 2 and cov["M"]["politicians"] == 2
        pers = manifest["counts"]["personalization"]
        assert pers["F"]["words"] == 5 and pers["M"]["words"] == 3
        assert manifest["modes"]["rates_mode"] == "ratio"
        assert manifest["modes"]["radius"] == 2
        assert manifest.keys() == {"config", "modes", "counts", "diagnostics"}

    def test_table1_matches_counts_csv_totals(self, tiny_run):
        _, out = tiny_run
        with open(out / "counts.csv") as fh:
            rows = list(csv.DictReader(fh))
        totals = {"F": 0, "M": 0}
        for row in rows:
            totals[row["gender"]] += int(row["count"])
        with open(out / "table1.csv") as fh:
            table1 = {r["measure"]: r for r in csv.DictReader(fh)}
        assert int(table1["words"]["coverage_F"]) == totals["F"]
        assert int(table1["words"]["coverage_M"]) == totals["M"]

    def test_table1_matches_manifest_counts(self, tiny_run):
        _, out = tiny_run
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        with open(out / "table1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["measure"] for r in rows] == [
            "politicians",
            "contents",
            "sentences",
            "words",
            "distinct_words",
        ]
        for row in rows:
            for dataset in ("coverage", "personalization"):
                for gender in ("F", "M"):
                    assert int(row[f"{dataset}_{gender}"]) == counts[dataset][gender][row["measure"]]

    def test_unweighted_summaries_follow_the_rank_rule(self, tiny_run):
        cfg, out = tiny_run
        table = CountTable.from_json_dict(json.loads((out / "count_table.json").read_text()))
        profile = bias.bias_profile(table, mode=cfg.rates_mode)
        summaries = json.loads((out / "summary_stats.json").read_text())
        for category in Category:
            values = [w.index for w in profile.select(category)]
            assert values, category
            expected = [
                float(weighted_quantile_scan(values, [1] * len(values), Fraction(p)))
                for p in ("1/4", "1/2", "3/4", "9/10")
            ]
            unweighted = summaries[category.value]["unweighted"]
            assert [unweighted[key] for key in ("Q1", "D5", "Q3", "D9")] == expected
            assert unweighted["IQR"] == expected[2] - expected[0]

    def test_records_jsonl_schema(self, tiny_run):
        _, out = tiny_run
        lines = (out / "records.jsonl").read_text().strip().split("\n")
        assert len(lines) == 8
        rec = json.loads(lines[0])
        assert set(rec) == {
            "pid",
            "gender",
            "doc_id",
            "date",
            "source_type",
            "lemma",
            "upos",
            "category",
            "aggregate_sentiment",
            "sentence_ref",
        }

    def test_sentiment_fraction_rows_sum_to_one(self, tiny_run):
        _, out = tiny_run
        with open(out / "sentiment_fractions.csv") as fh:
            for row in csv.DictReader(fh):
                total = sum(
                    float(row[c])
                    for c in (
                        "strong_negative",
                        "weakly_negative",
                        "neutral",
                        "weakly_positive",
                        "strong_positive",
                    )
                )
                assert total == pytest.approx(1.0)

    def test_chi_square_sections(self, tiny_run):
        _, out = tiny_run
        chi = json.loads((out / "chi_square.json").read_text())
        assert {"coverage", "personalization"} <= set(chi)
        obs = chi["coverage"]["observed"]
        assert obs == [[6.0, 2.0], [2.0, 1.0]]

    def test_agreement_sections(self, tiny_run):
        _, out = tiny_run
        agreement = json.loads((out / "agreement.json").read_text())
        assert "overall" in agreement
        assert agreement["overall"]["alpha"] <= 1.0
        assert "D_o" in agreement["overall"] and "D_e" in agreement["overall"]

    def test_rerun_is_byte_identical(self, tiny_run):
        cfg, out = tiny_run
        before = read_bundle_bytes(out)
        run_pipeline(cfg)
        after = read_bundle_bytes(out)
        assert before == after

    def test_consistency_table1_vs_count_table(self, tiny_run):
        _, out = tiny_run
        desc = json.loads((out / "descriptives.json").read_text())
        # personalization words equal the record count
        n_records = len((out / "records.jsonl").read_text().strip().split("\n"))
        assert (
            desc["personalization"]["F"]["words"]
            + desc["personalization"]["M"]["words"]
            == n_records
        )


class TestConfig:
    def test_missing_lexicon_fails_before_processing(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        text = (tmp_path / "cfg.ini").read_text().replace(
            data_path("lexicon.csv"), str(tmp_path / "missing.csv")
        )
        (tmp_path / "cfg.ini").write_text(text)
        cfg = PipelineConfig.from_ini(str(tmp_path / "cfg.ini"))
        with pytest.raises(ConfigError, match="lexicon"):
            cfg.validate()
        assert not (tmp_path / "out").exists()

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[covbias]\nconllu = x.conllu\n")
        message = "missing required keys: metadata, registry, lexicon, out$"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_ini(str(path))

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[other]\nx = 1\n")
        with pytest.raises(ConfigError, match="covbias"):
            PipelineConfig.from_ini(str(path))

    def test_overrides_win(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        cfg = PipelineConfig.from_ini(cfg_path, radius=5, rates_mode="literal")
        assert cfg.radius == 5
        assert cfg.rates_mode == "literal"

    def test_bad_rates_mode(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out", rates_mode="weird")
        with pytest.raises(ConfigError, match="rates_mode"):
            PipelineConfig.from_ini(cfg_path).validate()

    def test_analyze_without_extract_artifacts_fails(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        cfg_path = write_config(tmp_path / "cfg.ini", out)
        cfg = PipelineConfig.from_ini(cfg_path)
        with pytest.raises(StageError, match="stage 'analyze' failed: .*count_table.json") as err:
            stage_analyze(cfg)
        assert isinstance(err.value.cause, FileNotFoundError)

    def test_run_pipeline_validates_before_any_stage(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        text = (tmp_path / "cfg.ini").read_text().replace(
            data_path("lexicon.csv"), str(tmp_path / "nope.csv")
        )
        (tmp_path / "cfg.ini").write_text(text)
        cfg = PipelineConfig.from_ini(str(tmp_path / "cfg.ini"))
        with pytest.raises(ConfigError):
            run_pipeline(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"bootstrap": 50}, "bootstrap"),
            ({"bins": 0}, "bins"),
            ({"window_start": "2018-01-01"}, "window_start"),
            ({"window_end": "2018-12-31"}, "window_end"),
            ({"window_start": "2020-01-01", "window_end": "2017-01-01"}, "window_start"),
            ({"seed": -1}, "seed"),
            ({"jitter": "nan"}, "jitter"),
            ({"jitter": "inf"}, "jitter"),
            ({"conllu": os.path.dirname(data_path("tiny.conllu"))}, "conllu is a directory"),
            ({"lexicon": os.path.dirname(data_path("lexicon.csv"))}, "lexicon is a directory"),
        ],
    )
    def test_bad_setting_fails_before_any_stage(self, tmp_path, capsys, extra, message):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out", **extra)
        cfg = PipelineConfig.from_ini(cfg_path)
        with pytest.raises(ConfigError, match=message):
            run_pipeline(cfg)
        for command in ("ingest-check", "extract", "analyze", "run"):
            assert cli_main(["--config", cfg_path, command]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
            assert all(path in err[0] for path in extra.values() if os.path.isdir(str(path)))
            assert not (tmp_path / "out").exists()

    def test_fifo_input_passes_validation(self, tmp_path):
        # process substitution hands over a pipe, such as /dev/fd/63
        fifo = tmp_path / "stopwords.fifo"
        os.mkfifo(fifo)
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out", stopwords=str(fifo))
        PipelineConfig.from_ini(cfg_path).validate()

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("bootstrap", "lots"), ("jitter", "wide"), ("window_start", "2018-13-01"),
            ("window_start", "20180101"), ("window_end", "2018-W01-1"),
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, key, raw):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out", **{key: raw})
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_ini(cfg_path)
        assert str(err.value).startswith(f"{cfg_path}: {key} = {raw!r} is not ")

    @pytest.mark.parametrize("key, raw", [("radus", "1"), ("workers", "2")])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, key, raw):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out, **{key: raw})
        with pytest.raises(ConfigError, match=f"unknown keys in \\[covbias\\]: {key}$"):
            PipelineConfig.from_ini(cfg_path)
        assert cli_main(["--config", str(cfg_path), "run"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and key in err[0]
        assert not out.exists()

    def test_default_section_keys_serve_interpolation(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out", radius="%(r)s")
        text = (tmp_path / "cfg.ini").read_text()
        (tmp_path / "cfg.ini").write_text("[DEFAULT]\nr = 3\n" + text)
        assert PipelineConfig.from_ini(cfg_path).radius == 3

    @pytest.mark.parametrize("defect", ["missing_metadata", "head_out_of_range"])
    def test_input_error_reads_the_same_under_run_and_extract(self, tmp_path, capsys, defect):
        if defect == "missing_metadata":
            # metadata that lacks the corpus documents
            side = tmp_path / "meta.jsonl"
            side.write_text(
                '{"doc_id": "zz", "date": "2018-01-01", "source_id": "x", "source_type": "online"}\n'
            )
            key, fragment = "metadata", "'d1'"
        else:
            side = bad_head_conllu(tmp_path)
            key, fragment = "conllu", f"{side}: line 3: "
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out, **{key: str(side)})
        errors = {}
        for command in ("run", "extract"):
            capsys.readouterr()
            assert cli_main(["--config", cfg_path, command]) == 1
            errors[command] = capsys.readouterr().err.splitlines()
        assert errors["run"] == errors["extract"]
        assert len(errors["run"]) == 1 and errors["run"][0].startswith("error: ")
        assert "stage" not in errors["run"][0] and fragment in errors["run"][0]
        assert not out.exists()

    def test_literal_rates_mode_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out, rates_mode="literal")
        cfg = PipelineConfig.from_ini(cfg_path)
        run_pipeline(cfg)
        profile = json.loads((out / "bias_profile.json").read_text())
        assert profile["rates_mode"] == "literal"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["modes"]["rates_mode"] == "literal"

    def test_children_direction_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out, direction="children")
        run_pipeline(PipelineConfig.from_ini(cfg_path))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["modes"]["direction"] == "children"
        # the tiny fixture's lexicon words all hang off heads above the
        # mention spans, so the children-only walk yields 0 records (8
        # under undirected); the children walk itself is checked in
        # test_extraction.py
        n_records = len((out / "records.jsonl").read_text().strip().splitlines())
        assert n_records < 8


class TestIngestCheck:
    def test_summary(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        summary = ingest_check(PipelineConfig.from_ini(cfg_path))
        assert summary["documents_parsed"] == 3
        assert summary["sentences"] == 6
        assert summary["politicians"] == 6
        assert summary["lexicon_entries"] == 13
        assert summary["rejected_sentences"] == 0


class TestCli:
    def test_run_and_stage_commands(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out)
        assert cli_main(["--config", str(cfg_path), "run"]) == 0
        assert (out / "manifest.json").exists()
        assert cli_main(["--config", str(cfg_path), "ingest-check"]) == 0
        printed = capsys.readouterr().out
        assert '"documents_parsed": 3' in printed

    def test_stagewise_equals_run(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path / "a.ini", out_a)
        cfg_b = write_config(tmp_path / "b.ini", out_b)
        assert cli_main(["--config", str(cfg_a), "run"]) == 0
        for stage in ("extract", "analyze", "report"):
            assert cli_main(["--config", str(cfg_b), stage]) == 0
        a = read_bundle_bytes(out_a)
        b = read_bundle_bytes(out_b)
        # the manifests embed the config, and may differ only in its out path
        manifests = [json.loads(bundle.pop("manifest.json")) for bundle in (a, b)]
        assert [m["config"].pop("out") for m in manifests] == ["a", "b"]
        assert manifests[0] == manifests[1]
        assert a == b

    def test_bundle_does_not_depend_on_where_the_files_live(self, tmp_path):
        """The manifest names every path by its basename, so a run on copies
        of the inputs, into an out/ of the same name elsewhere, writes the
        same bytes."""
        names = ("tiny.conllu", "metadata.jsonl", "registry.csv", "lexicon.csv",
                 "stopwords.txt", "lemma_map.tsv")
        moved = tmp_path / "elsewhere" / "inputs"
        moved.mkdir(parents=True)
        for name in names:
            shutil.copyfile(data_path(name), moved / name)
        keys = ("conllu", "metadata", "registry", "lexicon", "stopwords", "lemma_map")
        cfg_a = write_config(tmp_path / "a.ini", tmp_path / "out")
        cfg_b = write_config(
            tmp_path / "b.ini",
            tmp_path / "elsewhere" / "out",
            **{key: moved / name for key, name in zip(keys, names)},
        )
        for cfg in (cfg_a, cfg_b):
            assert cli_main(["--config", cfg, "run"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["conllu"] == ["tiny.conllu"]
        assert manifest["config"]["out"] == "out"
        assert read_bundle_bytes(tmp_path / "out") == read_bundle_bytes(moved.parent / "out")

    def test_extract_under_a_regular_file_is_one_stage_error_line(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        cfg_path = str(write_config(tmp_path / "cfg.ini", blocker / "out"))
        assert cli_main(["--config", cfg_path, "extract"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: stage 'extract' failed: ")
        assert "Not a directory" in err[0]
        assert blocker.read_text(encoding="utf-8") == ""

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[covbias]\nconllu = x\n")
        assert cli_main(["--config", str(path), "run"]) == 1
        assert "error" in capsys.readouterr().err

    def test_cli_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out)
        assert (
            cli_main(["--config", str(cfg_path), "--radius", "1", "run"]) == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["modes"]["radius"] == 1

    @pytest.mark.parametrize(
        "flag, value, field, expected",
        [
            ("--out", "elsewhere", "out", "elsewhere"),
            ("--seed", "7", "seed", 7),
            ("--radius", "3", "radius", 3),
            ("--rates-mode", "literal", "rates_mode", "literal"),
            ("--window", "30", "ma_window", 30),
            ("--jitter", "0.25", "jitter", 0.25),
            ("--bootstrap", "150", "bootstrap", 150),
        ],
    )
    def test_each_flag_lands_on_its_field(self, tmp_path, flag, value, field, expected):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        plain = PipelineConfig.from_ini(cfg_path)
        args = build_parser().parse_args(["--config", cfg_path, flag, value, "run"])
        assert load_config(args) == dataclasses.replace(plain, **{field: expected})
        assert getattr(plain, field) != expected

    @pytest.mark.parametrize(
        "row, message",
        [("p9;Anna;;F;;;", "empty surname"), (";Anna;Bianchi;F;;;", "empty pid")],
        ids=["empty-surname", "empty-pid"],
    )
    def test_registry_row_with_empty_key_is_one_error_line(self, tmp_path, capsys, row, message):
        with open(data_path("registry.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        registry = tmp_path / "registry.csv"
        registry.write_text("\n".join(lines + [row]) + "\n", encoding="utf-8")
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out", registry=str(registry))
        assert cli_main(["--config", str(cfg_path), "ingest-check"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {registry}: line {len(lines) + 1}: {message}"]

    def test_parse_error_names_the_broken_conllu_file(self, tmp_path, capsys):
        # the fixture split in two at "# newdoc id = d3"; the second part
        # gets a HEAD out of range on its first token row, line 3
        with open(data_path("tiny.conllu"), encoding="utf-8") as fh:
            text = fh.read()
        cut = text.index("# newdoc id = d3")
        good, broken = tmp_path / "a.conllu", tmp_path / "b.conllu"
        good.write_text(text[:cut], encoding="utf-8")
        row = "1\tVirginia\tVirginia\tPROPN\t_\t_\t"
        broken.write_text(text[cut:].replace(row + "3", row + "99"), encoding="utf-8")
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out, conllu=f"{good}, {broken}")
        assert cli_main(["--config", str(cfg_path), "extract"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {broken}: line 3: "
            "head 99 of token 1 out of range in sentence 'd3.s1'"
        ]
        assert re.match(r"^error: .*line [0-9]", err[0])
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "expected a JSON object"),
            (
                '{"doc_id": "d9", "date": 20180101, "source_id": "x", "source_type": "online"}',
                "date 20180101 is not a string",
            ),
            (
                '{"doc_id": "d9", "date": "2018-01-01", "source_id": "x", "source_type": 1}',
                "source_type 1 is not a string",
            ),
            (
                '{"doc_id": ["d9"], "date": "2018-01-01", "source_id": "x", "source_type": "online"}',
                "doc_id ['d9'] is not a string",
            ),
        ],
        ids=["array", "integer-date", "integer-source-type", "list-doc-id"],
    )
    def test_metadata_line_of_wrong_type_is_one_error_line(self, tmp_path, capsys, line, message):
        with open(data_path("metadata.jsonl"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        metadata = tmp_path / "metadata.jsonl"
        metadata.write_text("\n".join(lines + [line]) + "\n", encoding="utf-8")
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out", metadata=str(metadata))
        assert cli_main(["--config", str(cfg_path), "ingest-check"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {metadata}: line {len(lines) + 1}: {message}"]

    @pytest.mark.parametrize("command", ["ingest-check", "extract"])
    @pytest.mark.parametrize(
        "key, text",
        [
            ("lemma_map", "sceriffa\tsceriffo\n\tfoo\n"),
            ("lemma_map", "sceriffa\tsceriffo\nfoo\t \n"),
            ("gazetteer", "sindaco = sindaca\n= foo\n"),
        ],
        ids=["lemma-map-empty-surface", "lemma-map-empty-lemma", "gazetteer-empty-canonical"],
    )
    def test_side_file_empty_key_is_one_error_line(self, tmp_path, capsys, key, text, command):
        side = tmp_path / "side.txt"
        side.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out, **{key: str(side)})
        assert cli_main(["--config", str(cfg_path), command]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {side}: line 2: empty")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest-check", "extract"])
    @pytest.mark.parametrize(
        "name, extra, line, message",
        [
            ("registry.csv", "p_app;Chiara;Appendino;F;sindaco:Torino;;2016-06-30..2021-10-27", 8,
             "duplicate politician id 'p_app' (first on line 2)"),
            ("registry.csv", "p99;Ada;Rossi;F;sindaco:Torino;;2017-01-01..2018-01-01", 8,
             "politicians p_app and p99 both hold (sindaco, torino) with overlapping tenure "
             "(p_app is on line 2)"),
            ("registry.csv", "p99;Ada;Rossi;F;sindaco:-;;", 8,
             "p99: jurisdiction '-' normalizes to nothing"),
            ("registry.csv", "p99;Ada;--;F;;;", 8, "p99: surname normalizes to nothing"),
            ("registry.csv", "p99;Ada;Rossi;F;;;;extra", 8,
             "8 fields, expected at most 7 (pid;given_name;surname;gender;roles;aliases;tenure)"),
            ("metadata.jsonl", None, 1, "document 'd1' has no metadata entry"),
            ("metadata.jsonl",
             '{"doc_id": "d1", "date": "2018-07-15", "source_id": "x", "source_type": "online"}', 4,
             "duplicate doc_id 'd1'"),
            ("metadata.jsonl",
             '{"doc_id": "d9", "date": "20180101", "source_id": "x", "source_type": "online"}', 4,
             "doc 'd9': bad date '20180101'"),
            # a quoted cell holding a newline, then the first entry again
            ("lexicon.csv", '"bel\nlo",ADJ,physical,1,1,1,1,1\nbello,ADJ,physical,1,1,0,1,1', 16,
             "duplicate entry ('bello', 'ADJ')"),
            ("lemma_map.tsv", "--\tfoo", 2, "surface '--' has no lexical token"),
        ],
        ids=[
            "repeated-pid", "overlapping-tenure", "jurisdiction", "surname", "eighth-field",
            "no-metadata", "repeated-metadata", "compact-date", "duplicate-after-quoted-newline",
            "lemma-map-no-lexical-surface",
        ],
    )
    def test_input_error_is_one_line_naming_file_and_line(
        self, tmp_path, capsys, name, extra, line, message, command
    ):
        """The fixture file `name` with the row `extra` added, or without
        its first row (the metadata of d1) when `extra` is None."""
        with open(data_path(name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        side = tmp_path / name
        side.write_text("\n".join(lines + [extra] if extra else lines[1:]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out, **{name.split(".")[0]: str(side)})
        assert cli_main(["--config", str(cfg_path), command]) == 1
        named = side if extra else data_path("tiny.conllu")
        assert capsys.readouterr().err.splitlines() == [f"error: {named}: line {line}: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda text: text.split("\n", 1)[1], "no section headers"),
            (lambda text: text + "radius = 1\nradius = 2\n", "option 'radius'"),
            (lambda text: re.sub("^out = .*$", "out = %(nope)s", text, flags=re.M), "key 'nope'"),
            (lambda text: text + "; caf\xe9\n", "can't decode byte 0xe9"),
        ],
        ids=["no-section-header", "duplicate-key", "missing-interpolation-key", "latin-1"],
    )
    def test_unreadable_ini_is_one_error_line(self, tmp_path, capsys, edit, fragment):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        with open(cfg_path, encoding="utf-8") as fh:
            text = fh.read()
        with open(cfg_path, "w", encoding="latin-1") as fh:
            fh.write(edit(text))
        assert cli_main(["--config", cfg_path, "ingest-check"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {cfg_path}: ") and fragment in err[0]
        assert os.listdir(tmp_path) == ["cfg.ini"]

    @pytest.mark.parametrize(
        "key, fixture",
        [
            ("conllu", "tiny.conllu"),
            ("metadata", "metadata.jsonl"),
            ("registry", "registry.csv"),
            ("lexicon", "lexicon.csv"),
            ("stopwords", "stopwords.txt"),
            ("lemma_map", "lemma_map.tsv"),
            ("gazetteer", None),
        ],
    )
    def test_input_not_utf8_is_one_error_line(self, tmp_path, capsys, key, fixture):
        text = b"sindaco = sindaca\n"
        if fixture is not None:
            with open(data_path(fixture), "rb") as fh:
                text = fh.read()
        side = tmp_path / f"latin1_{key}"
        side.write_bytes(text + "caff\xe8\n".encode("latin-1"))
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out, **{key: str(side)})
        assert cli_main(["--config", str(cfg_path), "ingest-check"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {side}: not UTF-8: cannot decode byte 0xe8"]
        assert not out.exists()


# In an edit of a JSON artifact, the value that deletes the key.
DELETE = object()


class TestBrokenArtifacts:
    """A stage resumed on a missing or broken artifact fails in one line."""

    @pytest.mark.parametrize(
        "command, edit, fragment",
        [
            ("analyze", None, "count_table.json"),
            ("report", None, "descriptives.json"),
            ("report", "count_table.json", "count_table.json: Expecting"),
            ("report", "descriptives.json", "descriptives.json: coverage/F/words_per_sentence is"),
            ("analyze", ("count_table.json", ("cells", 0, -1), -1), "count_table.json: cell count -1 is not"),
            ("report", ("count_table.json", ("cells", 0, -1), 1.5), "count_table.json: cell count 1.5 is not"),
            ("analyze", ("count_table.json", ("cells", 0, -1), True), "count_table.json: cell count True is not"),
            ("analyze", ("count_table.json", ("cells", 0, 0), 5), "count_table.json: cell word (5, "),
            ("analyze", ("count_table.json", ("cells", 0, 5), 7), "count_table.json: cell pid 7 is not a string"),
            ("analyze", ("count_table.json", ("cells", 0, 2), "X"), "count_table.json: 'X' is not a valid Gender"),
            (
                "analyze",
                ("count_table.json", ("cells", 0, 4), "print"),
                "count_table.json: 'print' is not a valid SourceType",
            ),
            (
                "analyze",
                ("count_table.json", ("cells", 0), lambda cell: cell[:6]),
                "count_table.json: not enough values to unpack (expected 7, got 6)",
            ),
            (
                "analyze",
                ("count_table.json", ("cells", 0, 3), "fisico"),
                "count_table.json: 'fisico' is not a valid Category",
            ),
            (
                "analyze",
                ("count_table.json", ("cells", 0, 3), None),
                'count_table.json: days hold 2 words of slot ["F", null, "traditional"], cells 3',
            ),
            *(
                (command, ("count_table.json", ("record_rows",), {"physical": [[2, 1, 0]]}),
                 "count_table.json: has record_rows: written by an older extract; rerun extract")
                for command in ("analyze", "report")
            ),
            (
                "analyze",
                ("count_table.json", ("politicians",), []),
                "count_table.json: has politicians: written by an older extract; rerun extract",
            ),
            (
                "report",
                ("diagnostics.json", (), [1, 2]),
                "diagnostics.json: the top level is not an object with the keys ingest and matching",
            ),
            (
                "report",
                ("diagnostics.json", ("ingest", "rejected_sentences"), [["d1", "d1.s0"]]),
                "diagnostics.json: ingest/rejected_sentences/0 ['d1', 'd1.s0'] is not",
            ),
            (
                "report",
                ("diagnostics.json", ("matching", "ambiguous_mentions"), {"Rossi": True}),
                "diagnostics.json: matching/ambiguous_mentions/Rossi True is not a count",
            ),
            *(
                (command, ("count_table.json", ("days",), DELETE),
                 "count_table.json: no days: written by an older extract; rerun extract")
                for command in ("analyze", "report")
            ),
            *(
                (command, ("count_table.json", ("cells", 0, 5), None),
                 "count_table.json: cell pid is null: written by an older extract; rerun extract")
                for command in ("analyze", "report")
            ),
            *(
                (command, ("count_table.json", ("days", 0, -1), count),
                 f"count_table.json: day count {count!r} is not a non-negative integer")
                for command, count in (("analyze", True), ("report", -1), ("analyze", 1.5))
            ),
            *(
                (command, ("count_table.json", ("days", 0, 3), day),
                 f"count_table.json: Invalid isoformat string: '{day}'")
                for command, day in (("analyze", "20180101"), ("report", "2018-W01-1"))
            ),
            *(
                (command, ("count_table.json", ("days", 0, -1), lambda n: n + 1),
                 "count_table.json: days hold 3 words of slot "
                 '["F", "moral_behavioral", "traditional"], cells 2')
                for command in ("analyze", "report")
            ),
            (
                "analyze",
                ("lexicon.csv", lambda lines: [x for x in lines if not x.startswith("amare,")]),
                "count_table.json: cell word ('amare', 'VERB') of category moral_behavioral "
                "is not in the lexicon",
            ),
            (
                "analyze",
                ("lexicon.csv", lambda lines: [x.replace("moral_behavioral", "physical") for x in lines]),
                "count_table.json: cell word ('amare', 'VERB') of category moral_behavioral "
                "is physical in the lexicon",
            ),
            (
                "analyze",
                ("lexicon.csv", lambda lines: lines + ["avere,VERB,physical,1,1,1,1,1"]),
                "count_table.json: cell word ('avere', 'VERB') of no category is physical in the lexicon",
            ),
            (
                "analyze",
                ("count_table.json", (), [1, 2]),
                "count_table.json: the top level is not a JSON object",
            ),
            (
                "report",
                ("descriptives.json", (), [1, 2]),
                "descriptives.json: the top level is not a JSON object",
            ),
        ],
        ids=[
            "analyze-before-extract",
            "report-before-extract",
            "truncated-count-table",
            "descriptives-wrong-shape",
            "count-negative",
            "count-float",
            "count-boolean",
            "lemma-not-a-string",
            "politician-id-not-a-string",
            "unknown-gender",
            "unknown-source-type",
            "truncated-record",
            "unknown-category",
            "missing-category",
            "record-rows-from-older-extract",
            "record-rows-from-older-extract-report",
            "politicians-from-older-extract",
            "diagnostics-not-an-object",
            "diagnostics-rejected-row-of-two",
            "diagnostics-count-boolean",
            "no-days",
            "no-days-report",
            "cell-with-day",
            "cell-with-day-report",
            "day-count-boolean",
            "day-count-negative-report",
            "day-count-float",
            "day-compact-date",
            "day-week-date-report",
            "days-disagree-with-cells",
            "days-disagree-with-cells-report",
            "lexicon-lacks-a-counted-word",
            "lexicon-reclasses-a-counted-word",
            "lexicon-classes-a-word-counted-outside-it",
            "count-table-not-an-object",
            "descriptives-not-an-object",
        ],
    )
    def test_one_error_line_naming_the_file(self, tmp_path, capsys, command, edit, fragment):
        out = tmp_path / "out"
        cfg_path = str(write_config(tmp_path / "cfg.ini", out))
        if edit is not None:
            assert cli_main(["--config", cfg_path, "extract"]) == 0
            if edit == "count_table.json":
                (out / edit).write_text('{"cells": [', encoding="utf-8")
            elif edit == "descriptives.json":
                desc = json.loads((out / edit).read_text(encoding="utf-8"))
                desc["coverage"]["F"]["words_per_sentence"] = "many"
                (out / edit).write_text(json.dumps(desc), encoding="utf-8")
            elif edit[0] == "lexicon.csv":
                # (name, edit): the stage reads a lexicon that is not the
                # one extract read, its lines edited, and names it
                name, lines = edit
                with open(data_path(name), encoding="utf-8") as fh:
                    side = tmp_path / name
                    side.write_text("\n".join(lines(fh.read().splitlines())) + "\n", encoding="utf-8")
                write_config(tmp_path / "cfg.ini", out, lexicon=str(side))
                fragment += f" {side}: extracted with another lexicon; rerun extract"
            else:
                # (name, path, value): set the value at that path of the
                # JSON artifact `name`, a callable value to its result on the
                # old one; the empty path replaces the document
                name, path, value = edit
                doc = json.loads((out / name).read_text(encoding="utf-8"))
                if path:
                    *parents, last = path
                    node = doc
                    for key in parents:
                        node = node[key]
                    if value is DELETE:
                        del node[last]
                    else:
                        node[last] = value(node[last]) if callable(value) else value
                else:
                    doc = value
                (out / name).write_text(json.dumps(doc), encoding="utf-8")
            capsys.readouterr()
        before = read_bundle_bytes(out) if out.exists() else None
        assert cli_main(["--config", cfg_path, command]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: stage '{command}' failed: ")
        assert fragment in err[0]
        if before is None:
            assert not out.exists()
        else:
            assert read_bundle_bytes(out) == before


@pytest.fixture(scope="module")
def generated_run(tmp_path_factory):
    """The input paths and the out/ of `covbias run` on a 200-document corpusgen corpus."""
    root = tmp_path_factory.mktemp("generated")
    paths = corpusgen.generate(str(root / "in"), n_docs=200, seed=3)
    cfg_path = corpusgen.write_config(paths, str(root / "out"), str(root / "cfg.ini"))
    assert cli_main(["--config", cfg_path, "run"]) == 0
    return paths, root / "out"


class TestHandoffFormat:
    """Extract's machine artifacts are compact; their layout does not matter to
    later stages, nor the corpus's line endings, ranges and empty nodes to extract."""

    MACHINE = {"count_table.json", "descriptives.json", "diagnostics.json"}

    def test_machine_artifacts_compact_report_files_indented(self, tiny_run):
        _, out = tiny_run
        assert pipeline.MACHINE_ARTIFACTS == self.MACHINE
        names = sorted(p.name for p in out.glob("*.json"))
        assert self.MACHINE < set(names)
        for name in names:
            text = (out / name).read_text(encoding="utf-8")
            obj = json.loads(text)
            if name in self.MACHINE:
                expected = json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
            else:
                expected = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)
            assert text == expected + "\n", name

    def test_indented_machine_artifacts_give_the_same_bundle(self, tmp_path):
        # as an older bundle has them: the later stages read values, not layout
        out = tmp_path / "out"
        cfg = PipelineConfig.from_ini(write_config(tmp_path / "cfg.ini", out))
        run_pipeline(cfg)
        compact = read_bundle_bytes(out)
        for name in self.MACHINE:
            reporting.write_json(out / name, json.loads(compact[name]))
            assert (out / name).read_bytes() != compact[name]
        stage_analyze(cfg)
        stage_report(cfg)
        indented = read_bundle_bytes(out)
        assert indented.keys() == compact.keys()
        for name in compact:
            if name not in self.MACHINE:
                assert indented[name] == compact[name], name

    def test_cells_summed_by_gender_are_the_coverage_word_totals(self, generated_run):
        # the benchmark's check reads count_table.json this way: count at
        # index 6 of each `cells` row, gender at index 2
        _, out = generated_run
        table = json.loads((out / "count_table.json").read_text(encoding="utf-8"))
        desc = json.loads((out / "descriptives.json").read_text(encoding="utf-8"))
        from_cells = {g.value: 0 for g in Gender}
        for cell in table["cells"]:
            from_cells[cell[2]] += cell[6]
        # every generated document is dated, so the day rows hold each word too
        from_days = {g.value: 0 for g in Gender}
        for row in table["days"]:
            from_days[row[0]] += row[4]
        expected = {g.value: desc["coverage"][g.value]["words"] for g in Gender}
        assert all(expected.values())
        assert from_cells == from_days == expected

    @pytest.mark.parametrize("variant", ["crlf", "ranges-and-empty-nodes"])
    def test_line_endings_ranges_and_empty_nodes_extract_the_same_files(
        self, tmp_path, generated_run, variant
    ):
        paths, out = generated_run
        with open(paths["conllu"], encoding="utf-8", newline="") as fh:
            text = fh.read()
        sentences = text.count("# sent_id")
        if variant == "crlf":
            text = text.replace("\n", "\r\n")
            assert text.count("\r\n") == text.count("\n")
        else:
            # a multiword range before and an empty node after each sentence's first token
            lines, in_sentence = [], False
            for line in text.split("\n"):
                token = line.count("\t") == 9
                if token and not in_sentence:
                    lines += ["1-2\tdel" + "\t_" * 8, line, "1.1\tesso" + "\t_" * 8]
                else:
                    lines.append(line)
                in_sentence = token
            text = "\n".join(lines)
            assert text.count("\n1-2\t") == text.count("\n1.1\t") == sentences
        conllu = tmp_path / "corpus.conllu"
        conllu.write_bytes(text.encode("utf-8"))
        cfg_path = corpusgen.write_config(
            {**paths, "conllu": str(conllu)}, str(tmp_path / "out"), str(tmp_path / "cfg.ini")
        )
        assert cli_main(["--config", cfg_path, "extract"]) == 0
        for name in ("records.jsonl", "count_table.json", "descriptives.json"):
            assert (tmp_path / "out" / name).read_bytes() == (out / name).read_bytes(), name

    def test_analyze_and_report_read_no_records_jsonl(self, tmp_path):
        out = tmp_path / "out"
        cfg = PipelineConfig.from_ini(write_config(tmp_path / "cfg.ini", out))
        run_pipeline(cfg)
        whole = read_bundle_bytes(out)
        shutil.rmtree(out)
        stage_extract(cfg)
        os.remove(out / "records.jsonl")
        stage_analyze(cfg)
        stage_report(cfg)
        assert read_bundle_bytes(out) == {k: v for k, v in whole.items() if k != "records.jsonl"}


def newdoc_blocks(text):
    """The documents of CoNLL-U text, each from its `# newdoc` line to one
    blank line after its last sentence."""
    head, *blocks = text.split("# newdoc")
    assert not head.strip()
    return ["# newdoc" + block.rstrip("\n") + "\n\n" for block in blocks]


def bundle_of_documents(root, blocks, config):
    """The bundle of `covbias run` on the documents ``blocks``, in that
    order, written to ``root``/corpus.conllu; ``config(conllu, out,
    cfg_path)`` writes the config file and returns its path. Every run's
    corpus and out/ have the same basenames, so the manifests can agree."""
    os.makedirs(root)
    conllu = os.path.join(root, "corpus.conllu")
    with open(conllu, "w", encoding="utf-8") as fh:
        fh.write("".join(blocks))
    out = os.path.join(root, "out")
    assert cli_main(["--config", config(conllu, out, os.path.join(root, "cfg.ini")), "run"]) == 0
    return read_bundle_bytes(out)


# Two sentences the reader rejects, one in each of two documents of the tiny
# fixture: a rootless pair of tokens and a token headed by itself.
BROKEN_SENTENCES = {
    "d1": "# sent_id = d1.bad\n1\tEsso\tesso\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
          "2\tgira\tgirare\tVERB\t_\t_\t1\tdep\t_\t_\n\n",
    "d3": "# sent_id = d3.bad\n1\tCasa\tcasa\tNOUN\t_\t_\t0\troot\t_\t_\n"
          "2\tnuova\tnuovo\tADJ\t_\t_\t2\tamod\t_\t_\n\n",
}


class TestDocumentOrder:
    """The bundle is a function of the documents, not of their order.

    records.jsonl lists each record where extract found it, so it alone may
    differ; every other file, count_table.json and the jittered,
    resampled quantile regressions among them, is byte-identical.
    """

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_generated_corpus_documents_reordered(self, tmp_path, order):
        paths = corpusgen.generate(str(tmp_path / "in"), n_docs=400, seed=3)
        with open(paths["conllu"], encoding="utf-8") as fh:
            blocks = newdoc_blocks(fh.read())
        assert len(blocks) == 400
        moved = blocks[::-1] if order == "reversed" else random.Random(3).sample(blocks, len(blocks))

        def config(conllu, out, cfg_path):
            return corpusgen.write_config({**paths, "conllu": conllu}, out, cfg_path)

        given = bundle_of_documents(str(tmp_path / "given"), blocks, config)
        reordered = bundle_of_documents(str(tmp_path / order), moved, config)
        assert given.keys() == reordered.keys()
        assert given["records.jsonl"] != reordered["records.jsonl"]
        differ = [name for name in given if name != "records.jsonl" and given[name] != reordered[name]]
        assert differ == []

    def test_rejected_sentences_in_either_order(self, tmp_path):
        with open(data_path("tiny.conllu"), encoding="utf-8") as fh:
            blocks = newdoc_blocks(fh.read())
        blocks = [
            block + BROKEN_SENTENCES.get(block.split("\n", 1)[0].split(" = ")[1], "")
            for block in blocks
        ]

        def config(conllu, out, cfg_path):
            return write_config(cfg_path, out, conllu=conllu)

        given = bundle_of_documents(str(tmp_path / "given"), blocks, config)
        reordered = bundle_of_documents(str(tmp_path / "reversed"), blocks[::-1], config)
        rejected = json.loads(given["diagnostics.json"])["ingest"]["rejected_sentences"]
        assert rejected == [
            ["d1", "d1.bad", "no root token (no head = 0)"],
            ["d3", "d3.bad", "cyclic head chain through token 2"],
        ]
        differ = [name for name in given if name != "records.jsonl" and given[name] != reordered[name]]
        assert differ == []


class TestInputReads:
    """A stage reads each side file once, whichever module calls the reader."""

    @pytest.mark.parametrize(
        "stage, reader",
        [
            (stage_extract, "read_stopwords"),
            (stage_extract, "read_lemma_map"),
            (stage_extract, "read_metadata"),
            (ingest_check, "read_stopwords"),
            (ingest_check, "read_lemma_map"),
            (ingest_check, "read_metadata"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_each_side_file_is_read_once(self, tmp_path, monkeypatch, stage, reader):
        original = getattr(ingestion, reader)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (pipeline, ingestion):
            monkeypatch.setattr(module, reader, counting)
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        stage(PipelineConfig.from_ini(cfg_path))
        assert len(calls) == 1


class TestWorkers:
    """Extract has one serial path; `from_ini` still accepts workers=1."""

    def test_from_ini_workers_one_is_no_override(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        assert PipelineConfig.from_ini(cfg_path, workers=1) == PipelineConfig.from_ini(cfg_path)

    def test_from_ini_rejects_other_worker_counts(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        with pytest.raises(ConfigError, match="workers"):
            PipelineConfig.from_ini(cfg_path, workers=2)

    def test_cli_has_no_workers_flag(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(cfg_path), "--workers", "2", "run"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: covbias")
        assert not (tmp_path / "out").exists()


class TestSmallLexicon:
    def test_single_entry_lexicon_skips_overall_agreement(self, tmp_path):
        with open(data_path("lexicon.csv"), encoding="utf-8") as fh:
            first = fh.readline()
        lexicon = tmp_path / "lexicon.csv"
        lexicon.write_text(first, encoding="utf-8")
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.ini", out, lexicon=str(lexicon))
        run_pipeline(PipelineConfig.from_ini(cfg_path))
        agreement = json.loads((out / "agreement.json").read_text())
        assert agreement == {"overall": {"skipped": agreement["overall"]["skipped"]}}
        assert "at least 2 units" in agreement["overall"]["skipped"]
        for name in EXPECTED_OUTPUTS:
            assert (out / name).exists(), name


@pytest.fixture
def finished_run(tmp_path):
    out = tmp_path / "out"
    cfg = PipelineConfig.from_ini(write_config(tmp_path / "cfg.ini", out))
    run_pipeline(cfg)
    return cfg, out


class TestTemporalAnalysis:
    def test_missing_days_zero_filled(self, tiny_run):
        # one grid for both genders: day 1 has coverage but no personalized
        # word, day 2 no coverage at all; both enter the average as 0
        cfg, _ = tiny_run
        table = table_from_events(
            ("volto", "NOUN", gender, category, None,
             datetime.date(2019, 1, 1) + datetime.timedelta(days=i), "p", 2)
            for gender in Gender
            for i, category in [(0, Category.PHYSICAL), (1, None), (3, Category.PHYSICAL),
                                (4, Category.PHYSICAL)]
        )
        slices = {category: table.slice(category=category) for category in Category}
        artifacts = pipeline.temporal_analysis(
            dataclasses.replace(cfg, ma_window=3), table, slices
        )
        for gender in Gender:
            _, rows = artifacts[f"trend_physical_{gender.value}.csv"]
            assert [d for d, _ in rows] == ["2019-01-03", "2019-01-04", "2019-01-05"]
            assert [v for _, v in rows] == [
                pytest.approx(1 / 3),
                pytest.approx(1 / 3),
                pytest.approx(2 / 3),
            ]
        assert artifacts["temporal_physical.json"]["tie_share"] == 1.0
        assert artifacts["temporal_moral_behavioral.json"]["A"] == 0.0


class TestQuantileAnalysis:
    @pytest.mark.parametrize(
        "one_sided",
        [
            [(Gender.F, SourceType.TRADITIONAL), (Gender.F, SourceType.ONLINE)],
            [(Gender.M, SourceType.ONLINE), (Gender.F, SourceType.ONLINE)],
        ],
        ids=["all_women", "all_online"],
    )
    def test_category_without_reference_cell_is_skipped(self, tiny_run, one_sided):
        cfg = dataclasses.replace(tiny_run[0], bootstrap=inference.MIN_REPLICATES)
        full = [(gender, source) for gender in Gender for source in SourceType]
        fifths = [-3, -1, 0, 2, 4]
        records = [
            sentiment_record(category, gender, source, k)
            for category, cells in (
                (Category.MORAL_BEHAVIORAL, full),
                (Category.PHYSICAL, one_sided),
            )
            for gender, source in cells
            for k in fifths * 2
        ]
        out = pipeline.quantile_analysis(cfg, record_rows(records))
        coefficients = out["quantile_coefficients.json"]
        assert coefficients["physical"] == {
            "skipped": "reference cell gender=0, source=0 is empty"
        }
        assert coefficients["socio_economic"] == {"skipped": "no records"}
        assert set(coefficients["moral_behavioral"]["models"]) == {
            str(tau) for tau in inference.DEFAULT_TAUS
        }
        header, rows = out["quantiles.csv"]
        assert header[:3] == ["category", "gender", "source_type"]
        assert [row[0] for row in rows] == ["moral_behavioral"] * 4


class TestDeriveSeed:
    @given(
        st.integers(0, 2**64),
        st.lists(st.one_of(st.integers(0, 2**64), st.sampled_from([0, 2**32 - 1, 2**32])), max_size=3),
    )
    @example(0, [])
    @example(0, [0, 0, 0])
    @example(2**32, [1, 2**32 + 5])
    @settings(max_examples=300, deadline=None)
    def test_is_numpys_seed_sequence(self, seed, indices):
        expected = np.random.SeedSequence([seed, *indices]).generate_state(1)[0]
        assert pipeline.derive_seed(seed, *indices) == int(expected)

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pipeline.derive_seed(3, -1)


class TestAllOrNothing:
    """A stage that fails leaves every file in out/ as it was."""

    def test_failing_extract_keeps_bundle(self, finished_run, monkeypatch):
        cfg, out = finished_run
        before = read_bundle_bytes(out)
        calls = []

        def fail_on_third(rec):
            calls.append(rec)
            if len(calls) == 3:
                raise RuntimeError("boom")
            return original(rec)

        original = PersonalizationRecord.json_line
        monkeypatch.setattr(PersonalizationRecord, "json_line", fail_on_third)
        # radius 1 attributes fewer words, so every extract file would change
        with pytest.raises(RuntimeError, match="boom"):
            stage_extract(dataclasses.replace(cfg, radius=1))
        assert len(calls) == 3  # two lines written, the third failed mid-write
        assert read_bundle_bytes(out) == before

    def test_failing_analyze_keeps_bundle(self, finished_run, monkeypatch):
        cfg, out = finished_run
        before = read_bundle_bytes(out)

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(inference, "bootstrap_significance", boom)
        # literal rates change bias_profile.json, which is computed first
        with pytest.raises(RuntimeError, match="boom"):
            stage_analyze(dataclasses.replace(cfg, rates_mode="literal"))
        assert read_bundle_bytes(out) == before

    @pytest.mark.parametrize(
        "failure, command",
        [
            ("write", "analyze"),
            ("bootstrap", "analyze"),
            ("write", "run"),
            ("bootstrap", "run"),
        ],
        ids=["write", "bootstrap", "write-run", "bootstrap-run"],
    )
    def test_failing_analyze_command_is_one_stage_error_line(
        self, tmp_path, finished_run, monkeypatch, capsys, failure, command
    ):
        cfg, out = finished_run
        before = read_bundle_bytes(out)
        if failure == "write":
            write_csv = reporting.write_csv

            def full_disk(path, header, rows):
                if os.path.basename(path) == ".quantiles.csv.tmp":
                    raise OSError(errno.ENOSPC, "No space left on device", path)
                write_csv(path, header, rows)

            monkeypatch.setattr(reporting, "write_csv", full_disk)
            fragment = "No space left on device"
        else:

            def boom(*args, **kwargs):
                raise RuntimeError("boom")

            monkeypatch.setattr(inference, "bootstrap_significance", boom)
            fragment = "boom"
        capsys.readouterr()
        # literal rates change bias_profile.json, so a partial write would show
        argv = ["--config", str(tmp_path / "cfg.ini"), "--rates-mode", "literal", command]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: stage 'analyze' failed: ")
        assert fragment in err[0]
        assert read_bundle_bytes(out) == before

    @pytest.mark.parametrize("defect", ["word_total", "ccdf_input", "no_coverage"])
    def test_failing_report_keeps_bundle(self, finished_run, defect):
        cfg, out = finished_run
        desc = json.loads((out / "descriptives.json").read_text())
        if defect == "word_total":
            desc["coverage"]["F"]["words"] += 1
        elif defect == "ccdf_input":
            # table1.csv would change; the reader rejects the CCDF input first
            desc["coverage"]["F"]["contents"] += 1
            desc["coverage"]["F"]["words_per_sentence"].append("many")
        else:
            del desc["coverage"]
        reporting.write_json(out / "descriptives.json", desc)
        before = read_bundle_bytes(out)
        with pytest.raises(StageError) as info:
            stage_report(cfg)
        assert "descriptives.json: " in str(info.value)
        if defect == "word_total":
            assert "count_table.json" in str(info.value)
        assert read_bundle_bytes(out) == before

    def test_directory_in_the_way_fails_extract_with_nothing_renamed(
        self, tmp_path, finished_run, capsys
    ):
        _, out = finished_run
        os.remove(out / "counts.csv")
        (out / "counts.csv").mkdir()
        names = sorted(os.listdir(out))
        before = read_bundle_bytes(out)
        capsys.readouterr()
        # radius 1 attributes fewer words, so every extract file would change
        argv = ["--config", str(tmp_path / "cfg.ini"), "--radius", "1", "extract"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: stage 'extract' failed: ")
        assert f"Is a directory: '{out / 'counts.csv'}'" in err[0]
        assert sorted(os.listdir(out)) == names
        assert read_bundle_bytes(out) == before

    def test_failed_rename_at_any_call_leaves_the_directory_as_it_was(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        cfg = PipelineConfig.from_ini(write_config(tmp_path / "cfg.ini", out))
        write_artifacts(cfg, {"a.json": {"v": 1}, "b.json": {"v": 1}, "c.csv": (["x"], [[1]])})
        before = read_bundle_bytes(out)
        # three old files to move aside and four new ones to rename in;
        # d.json is new and renamed first, so a later failure must remove it
        new = {"d.json": {}, "a.json": {"v": 2}, "b.json": {"v": 2}, "c.csv": (["x"], [[2]])}
        replace = os.replace
        calls = []

        def fail_at(k):
            def counted(src, dst):
                calls.append((src, dst))
                if len(calls) == k:
                    raise OSError(errno.EIO, "Input/output error", dst)
                replace(src, dst)

            return counted

        for k in range(1, 8):
            calls.clear()
            monkeypatch.setattr(pipeline.os, "replace", fail_at(k))
            with pytest.raises(OSError, match="Input/output error"):
                write_artifacts(cfg, new)
            assert sorted(os.listdir(out)) == ["a.json", "b.json", "c.csv"], k
            assert read_bundle_bytes(out) == before, k
        calls.clear()
        monkeypatch.setattr(pipeline.os, "replace", fail_at(0))
        write_artifacts(cfg, new)
        assert len(calls) == 7
        assert sorted(os.listdir(out)) == ["a.json", "b.json", "c.csv", "d.json"]
        assert json.loads((out / "b.json").read_text()) == {"v": 2}

    def test_writer_removes_temporaries_when_a_payload_fails(self, tmp_path):
        out = tmp_path / "out"
        cfg = PipelineConfig.from_ini(write_config(tmp_path / "cfg.ini", out))
        write_artifacts(cfg, {"a.json": {"v": 1}, "b.csv": (["x"], [[1]])})
        before = read_bundle_bytes(out)

        def rows():
            yield [2]
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            write_artifacts(cfg, {"a.json": {"v": 2}, "b.csv": (["x"], rows())})
        assert read_bundle_bytes(out) == before
        with pytest.raises(ValueError, match="no writer"):
            write_artifacts(cfg, {"a.json": {"v": 2}, "c.txt": "text"})
        assert read_bundle_bytes(out) == before

    def test_malformed_row_past_the_first_block_fails_extract_at_its_line(self, tmp_path):
        """Extract reads the corpus a block of sentences at a time; a bad row
        in sentence BLOCK_SENTENCES + 3 still stops it with the reader's
        error for that row, before anything is written."""
        block = extraction.BLOCK_SENTENCES
        paths = corpusgen.generate(str(tmp_path / "in"), n_docs=220, seed=3)
        out = tmp_path / "out"
        cfg = PipelineConfig.from_ini(
            corpusgen.write_config(paths, str(out), str(tmp_path / "run.ini"), seed=3)
        )
        run_pipeline(cfg)
        before = read_bundle_bytes(out)
        with open(paths["conllu"], encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        starts = [i for i, line in enumerate(lines) if line.startswith("# sent_id")]
        assert len(starts) > block + 2
        row = starts[block + 2] + 2  # the second token row of sentence block + 3
        lines[row] = lines[row].rsplit("\t", 1)[0]  # nine columns
        with open(paths["conllu"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        with pytest.raises(InputError) as checked:
            ingest_check(cfg)  # the reader drained one sentence at a time
        with pytest.raises(InputError) as info:
            stage_extract(cfg)
        assert (info.value.path, info.value.line) == (paths["conllu"], row + 1)
        assert str(info.value).endswith("expected 10 tab-separated columns, got 9")
        assert str(info.value) == str(checked.value)
        assert read_bundle_bytes(out) == before


@contextlib.contextmanager
def collector(enabled):
    """The cyclic garbage collector switched on or off, its state restored after."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestCollectorPaused:
    """Each stage runs with the cyclic garbage collector off and leaves its
    state as it found it; reference counting frees what a stage builds."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "stage",
        [ingest_check, stage_extract, stage_analyze, stage_report, run_pipeline],
        ids=lambda stage: stage.__name__,
    )
    def test_off_inside_and_restored_after_success(self, finished_run, monkeypatch, stage, enabled):
        cfg, _ = finished_run
        inside = []
        validate = PipelineConfig.validate

        def spy(self):
            inside.append(gc.isenabled())
            validate(self)

        monkeypatch.setattr(PipelineConfig, "validate", spy)
        with collector(enabled):
            stage(cfg)
            assert gc.isenabled() is enabled
        assert inside and not any(inside)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "stage, error",
        [
            (ingest_check, InputError),
            (stage_extract, InputError),
            (run_pipeline, InputError),
            (stage_analyze, StageError),
            (stage_report, StageError),
        ],
        ids=["ingest_check", "stage_extract", "run_pipeline", "stage_analyze", "stage_report"],
    )
    def test_restored_after_failure(self, tmp_path, stage, error, enabled):
        # a bad HEAD stops the corpus readers; analyze and report find no artifacts
        cfg_path = write_config(
            tmp_path / "cfg.ini", tmp_path / "out", conllu=str(bad_head_conllu(tmp_path))
        )
        cfg = PipelineConfig.from_ini(cfg_path)
        with collector(enabled):
            with pytest.raises(error):
                stage(cfg)
            assert gc.isenabled() is enabled

    def test_pausing_leaves_no_garbage_that_grows_with_the_input(self, tmp_path):
        # only the indented JSON encoder leaves cycles: a fixed set per file written
        found = {}
        for n_docs in (200, 800):
            paths = corpusgen.generate(str(tmp_path / f"in{n_docs}"), n_docs=n_docs, seed=1)
            cfg_path = corpusgen.write_config(
                paths, str(tmp_path / f"out{n_docs}"), str(tmp_path / f"run{n_docs}.ini"), seed=1
            )
            cfg = PipelineConfig.from_ini(cfg_path)
            with collector(False):
                for stage in (ingest_check, stage_extract, stage_analyze, stage_report):
                    gc.collect()
                    stage(cfg)
                    found[n_docs, stage.__name__] = gc.collect()
        for name in ("ingest_check", "stage_extract"):
            assert found[200, name] == found[800, name] == 0, name
        for name in ("stage_analyze", "stage_report"):
            assert found[200, name] == found[800, name], name
