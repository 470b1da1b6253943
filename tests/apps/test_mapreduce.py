"""MapReduce framework and the BoW job."""

import pytest

from repro.apps.mapreduce import (
    JobStats,
    MapReduceJob,
    bag_of_words,
    bow_mapper,
    strip_markup,
    tokenize_words,
)
from repro.errors import SpeedError
from repro.workloads import synthetic_webpage


def word_count_job(n_partitions=4, combiner=True):
    return MapReduceJob(
        mapper=lambda line: ((w, 1) for w in line.split()),
        reducer=lambda key, values: sum(values),
        combiner=(lambda key, values: sum(values)) if combiner else None,
        n_partitions=n_partitions,
    )


class TestFramework:
    def test_word_count(self):
        job = word_count_job()
        out = job.run(["a b a", "b c", "a"])
        assert out == {"a": 3, "b": 2, "c": 1}

    def test_combiner_equivalence(self):
        records = ["x y x", "y z y", "x"] * 10
        with_combiner = word_count_job(combiner=True).run(records)
        without = word_count_job(combiner=False).run(records)
        assert with_combiner == without

    def test_partition_count_invariance(self):
        records = ["alpha beta", "beta gamma alpha"] * 5
        assert word_count_job(n_partitions=1).run(records) == word_count_job(
            n_partitions=8
        ).run(records)

    def test_stats(self):
        job = word_count_job()
        job.run(["a b", "c"])
        assert job.stats == JobStats(
            map_inputs=2, map_outputs=3, combine_outputs=3, reduce_groups=3
        )

    def test_empty_input(self):
        assert word_count_job().run([]) == {}

    def test_invalid_partitions(self):
        job = word_count_job(n_partitions=0)
        with pytest.raises(SpeedError):
            job.run(["x"])

    def test_non_string_keys(self):
        job = MapReduceJob(
            mapper=lambda n: [(n % 3, n)],
            reducer=lambda key, values: max(values),
            n_partitions=2,
        )
        assert job.run(list(range(10))) == {0: 9, 1: 7, 2: 8}


class TestTokenizer:
    def test_strip_markup(self):
        assert strip_markup("<p>hello <b>world</b></p>").split() == ["hello", "world"]

    def test_tokenize_lowercases(self):
        assert tokenize_words("Hello WORLD") == ["hello", "world"]

    def test_tokenize_keeps_digits_and_apostrophes(self):
        assert tokenize_words("don't stop 99 times") == ["don't", "stop", "99", "times"]

    def test_bow_mapper_emits_pairs(self):
        assert list(bow_mapper("a b a")) == [("a", 1), ("b", 1), ("a", 1)]


class TestBagOfWords:
    def test_counts(self):
        bow = bag_of_words("the cat\nthe dog\n")
        assert bow == {"cat": 1, "dog": 1, "the": 2}

    def test_deterministic_and_sorted(self):
        page = synthetic_webpage(300, seed=8)
        a, b = bag_of_words(page), bag_of_words(page)
        assert a == b
        assert list(a.keys()) == sorted(a.keys())

    def test_markup_not_counted(self):
        bow = bag_of_words("<title>secret</title>\n<p>body text</p>")
        assert "title" not in bow
        assert "p" not in bow
        assert bow["secret"] == 1

    def test_empty_document(self):
        assert bag_of_words("") == {}
        assert bag_of_words("\n \n") == {}
