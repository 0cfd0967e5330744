"""Instance and result I/O: parsing, generation, optima tables, run logs."""

import dataclasses
import io
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsils import (
    Budget,
    ParseError,
    RunLogRecord,
    SearchConfig,
    UbqpInstance,
    attach_excess,
    excess,
    gen_random_instance,
    ils,
    load_optima,
    mean_abs,
    parse_orlib,
    read_runlog_csv,
    runlog_filename,
    serialize_orlib,
    write_runlog_csv,
)
from lsils.bench_io import RUNLOG_HEADER, split_runlog_filename, summarize

import oracles
from test_qubo import make_instance


class TestParseOrlib:
    def test_small_example(self):
        instances = parse_orlib("1\n2 2\n1 1 5\n1 2 -3\n")
        assert len(instances) == 1
        inst = instances[0]
        assert inst.n == 2
        assert inst.q.tolist() == [[5, -3], [-3, 0]]
        assert inst.density == pytest.approx(3 / 4)

    def test_index_out_of_range_names_the_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_orlib("1\n2 1\n1 3 4\n")

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1])
    def test_entry_outside_int64_names_the_line(self, value):
        with pytest.raises(ParseError, match=f"line 4: entry {value} is outside the int64"):
            parse_orlib(f"1\n2 2\n1 1 5\n1 2 {value}\n")

    def test_duplicate_triple_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_orlib("1\n3 2\n1 2 4\n2 1 7\n")

    def test_truncated_stream_rejected(self):
        with pytest.raises(ParseError):
            parse_orlib("1\n2 2\n1 1 5\n")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_orlib("1\n2 1\n1 1 5\n99\n")

    def test_zero_instance_count_rejected(self):
        with pytest.raises(ParseError, match="count"):
            parse_orlib("0\n")

    def test_multiple_instances(self):
        text = "2\n1 1\n1 1 7\n2 1\n1 2 -4\n"
        a, b = parse_orlib(text)
        assert a.q.tolist() == [[7]]
        assert b.q.tolist() == [[0, -4], [-4, 0]]

    def test_accepts_file_objects_and_paths(self, tmp_path):
        text = "1\n2 2\n1 1 5\n1 2 -3\n"
        from_stream = parse_orlib(io.StringIO(text))
        path = tmp_path / "inst.txt"
        path.write_text(text)
        from_path = parse_orlib(path)
        assert np.array_equal(from_stream[0].q, from_path[0].q)

    def test_long_one_line_text_is_parsed_not_opened(self):
        n = 40
        text = f"1 {n} {n} " + " ".join(f"{i} {i} {i}" for i in range(1, n + 1))
        assert "\n" not in text and len(text) > 255
        inst = parse_orlib(text)[0]
        assert inst.q.diagonal().tolist() == list(range(1, n + 1))


class TestSerializeRoundTrip:
    @given(st.integers(1, 10), st.integers(0, 10**6))
    def test_parse_of_serialize_is_identity(self, n, seed):
        inst = make_instance(n, seed=seed)
        back = parse_orlib(serialize_orlib(inst))
        assert len(back) == 1
        assert np.array_equal(back[0].q, inst.q)

    def test_sparse_entries_survive(self):
        q = np.zeros((4, 4), dtype=np.int64)
        q[0, 2] = q[2, 0] = -9
        q[3, 3] = 4
        inst = UbqpInstance.from_matrix(q)
        back = parse_orlib(serialize_orlib([inst]))[0]
        assert np.array_equal(back.q, q)

    def test_text_lists_only_upper_triangle_nonzeros(self):
        q = np.array([[1, 0], [0, -2]], dtype=np.int64)
        text = serialize_orlib(UbqpInstance.from_matrix(q))
        lines = text.strip().splitlines()
        assert lines[0] == "1"
        assert lines[1].split() == ["2", "2"]
        assert len(lines) == 4


class TestGenRandomInstance:
    def test_same_seed_identical(self):
        a = gen_random_instance(20, 0.5, (-10, 10), seed=3)
        b = gen_random_instance(20, 0.5, (-10, 10), seed=3)
        assert np.array_equal(a.q, b.q)

    def test_different_seed_differs(self):
        a = gen_random_instance(20, 1.0, (-10, 10), seed=3)
        b = gen_random_instance(20, 1.0, (-10, 10), seed=4)
        assert not np.array_equal(a.q, b.q)

    def test_symmetric_and_in_range(self):
        inst = gen_random_instance(30, 1.0, (-100, 100), seed=5)
        assert np.array_equal(inst.q, inst.q.T)
        assert inst.q.min() >= -100 and inst.q.max() <= 100

    def test_sparse_mode_skips_zero(self):
        inst = gen_random_instance(40, 0.3, (-5, 5), seed=6)
        nz = inst.q[inst.q != 0]
        assert nz.size > 0
        assert (nz != 0).all()
        assert nz.min() >= -5 and nz.max() <= 5

    def test_full_density_fills_most_cells(self):
        inst = gen_random_instance(18, 1.0, (-100, 100), seed=7)
        # Uniform over 201 values: expect only a handful of exact zeros.
        assert (inst.q == 0).sum() < 18

    def test_low_density_mean_abs_scale(self):
        # Density 0.1 with |values| averaging about 50 puts the mean
        # absolute cell near 5.
        inst = gen_random_instance(2500, 0.1, (-100, 100), seed=8)
        assert float(mean_abs(inst)) == pytest.approx(5.0, abs=0.5)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            gen_random_instance(5, 0.0, (-1, 1), seed=0)
        with pytest.raises(ValueError):
            gen_random_instance(5, 1.2, (-1, 1), seed=0)
        with pytest.raises(ValueError):
            gen_random_instance(5, 0.5, (3, -3), seed=0)


class TestOptimaTable:
    def test_parse_names_and_values(self):
        table = load_optima("bqp2500.1 1515944\n# comment\nbqp2500.2 1471392\n")
        assert table == {"bqp2500.1": 1515944, "bqp2500.2": 1471392}

    def test_duplicate_name_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_optima("a 1\na 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ParseError):
            load_optima("a\n")

    def test_blank_lines_and_inline_comments(self):
        table = load_optima("\na 5  # known\n\n")
        assert table == {"a": 5}

    def test_long_one_line_text_is_parsed_not_opened(self):
        name = "bqp." + "x" * 290
        text = f"{name} 1515944"
        assert len(text) > 255
        assert load_optima(text) == {name: 1515944}


class TestExcess:
    def test_examples(self):
        assert excess(1000, 1000) == 0.0
        assert excess(990, 1000) == pytest.approx(-0.01)
        assert excess(0, 1000) == pytest.approx(-1.0)

    def test_zero_optimum_rejected(self):
        with pytest.raises(ValueError):
            excess(5, 0)


def sample_records():
    return [
        RunLogRecord(elapsed=2000000, evaluations=2000123, best_f=10, lam=0.0,
                     excess=None),
        RunLogRecord(elapsed=4000000, evaluations=4000777, best_f=25,
                     lam=0.001, excess=None),
    ]


class TestRunLogs:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        write_runlog_csv(sample_records(), path)
        records, reference = read_runlog_csv(path)
        assert records == sample_records()
        assert reference is None

    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "log.csv"
        write_runlog_csv([], path)
        assert path.read_text() == RUNLOG_HEADER + "\n"

    def test_reference_comment_round_trips(self, tmp_path):
        path = tmp_path / "log.csv"
        write_runlog_csv(sample_records(), path, reference="best-found 99")
        text = path.read_text()
        assert text.startswith("# reference=best-found 99\n")
        _, reference = read_runlog_csv(path)
        assert reference == "best-found 99"

    def test_fixed_decimal_formatting(self, tmp_path):
        path = tmp_path / "log.csv"
        records = attach_excess(sample_records(), opt_f=40)
        write_runlog_csv(records, path)
        rows = path.read_text().splitlines()[1:]
        assert rows[0].endswith(",0.000000,-0.75000000")
        assert rows[1].endswith(",0.001000,-0.37500000")

    def test_float_elapsed_survives(self, tmp_path):
        path = tmp_path / "log.csv"
        records = [RunLogRecord(elapsed=9.5, evaluations=3, best_f=1, lam=0.5,
                                excess=None)]
        write_runlog_csv(records, path)
        back, _ = read_runlog_csv(path)
        assert back[0].elapsed == pytest.approx(9.5)

    def test_every_row_excess_is_recomputable(self, tmp_path):
        path = tmp_path / "log.csv"
        write_runlog_csv(attach_excess(sample_records(), opt_f=50), path)
        records, _ = read_runlog_csv(path)
        for r in records:
            assert r.excess == pytest.approx(excess(r.best_f, 50))

    def test_attach_excess_leaves_input_alone(self):
        records = sample_records()
        attach_excess(records, opt_f=100)
        assert records[0].excess is None

    def test_records_are_slotted_and_still_replaceable(self):
        record = sample_records()[0]
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.best_f = 1
        moved = dataclasses.replace(record, lam=0.25)
        assert (moved.lam, moved.best_f) == (0.25, record.best_f)
        scored = attach_excess([record], opt_f=40)[0]
        assert scored.excess == excess(record.best_f, 40)
        assert pickle.loads(pickle.dumps(scored)) == scored

    @given(st.lists(st.tuples(st.sampled_from([7, np.int64(7), 7.25, 0.0005, 12345.6789]),
                              st.integers(0, 2**62), st.integers(0, 4), st.integers(0, 3),
                              st.integers(0, 4)), max_size=30),
           st.sampled_from([-5, 5, 40, -40, 3]))
    def test_rows_are_the_per_record_rows(self, points, opt_f):
        # Records that share field objects, as a run's steps do, with values
        # that print alike but for a zero's sign: a shared best_f with lambdas
        # -0.0 and 0.0, and excess -0.0 (excess(-5, -5)), 0.0, None or signed.
        best_values = [-5, 5, 40, -5, 0]
        lams = [0.0, -0.0, 0.001, 0.0]
        excesses = [None, -0.0, 0.0, -0.375, 2.5]
        records = [RunLogRecord(elapsed, evaluations, best_values[b], lams[lam], excesses[e])
                   for elapsed, evaluations, b, lam, e in points]
        for rows in (records, attach_excess(records, opt_f)):
            text = io.StringIO()
            write_runlog_csv(rows, text)
            assert text.getvalue().splitlines() == [RUNLOG_HEADER, *oracles.runlog_rows(rows)]

    def test_built_records_are_dataclass_records(self):
        result = ils(make_instance(30, seed=5), SearchConfig(
            budget=Budget("evals", 20000), log_interval=700, pivot_rule="first"))
        for built in (result.records, attach_excess(result.records, result.best_value)):
            for record in built:
                fields = dataclasses.astuple(record)
                reference = RunLogRecord(*fields)
                assert type(record) is RunLogRecord
                assert record == reference and hash(record) == hash(reference)
                assert repr(record) == repr(reference)
                assert pickle.loads(pickle.dumps(record)) == reference
                assert dataclasses.astuple(pickle.loads(pickle.dumps(record))) == fields
                with pytest.raises(dataclasses.FrozenInstanceError):
                    record.lam = 1.0


class TestNaming:
    def test_filename_scheme(self):
        assert runlog_filename("bqp2500.1", "lsils-plusminusi", 7) == \
            "bqp2500.1_lsils-plusminusi_7.csv"

    def test_split_is_the_inverse(self):
        name = runlog_filename("gen_n500_d0.1", "ils", 12)
        assert split_runlog_filename(name) == ("gen_n500_d0.1", "ils", 12)

    def test_split_rejects_garbage(self):
        with pytest.raises(ValueError):
            split_runlog_filename("nounderscores.csv")


class TestSummarize:
    def test_values(self):
        stats = summarize([1, 2, 3, 4])
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["sd"] == pytest.approx(1.2909944487358056)
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
