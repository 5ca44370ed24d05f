"""Tests for statistics-catalog persistence."""

import dataclasses

import pytest

from repro.core.costmodel import Strategy
from repro.core.runner import EFindRunner
from repro.core.statistics import IndexStats, OperatorStats, StatisticsCatalog


def sample_catalog():
    catalog = StatisticsCatalog()
    stats = OperatorStats(
        n1=1234.5, s1=50, spre=60, sidx=120, spost=30, smap=40,
        num_tasks_sampled=24,
    )
    stats.per_index[0] = IndexStats(
        nik=0.8, sik=8, siv=64, tj=2e-3, miss_ratio=0.25,
        theta=12.5, distinct=987.0, lookups_observed=5000, probes_observed=5000,
    )
    stats.per_index[1] = IndexStats()
    catalog.put("OpA|IndexAccessor:kv", stats)
    return catalog


class TestRoundTrip:
    def test_dict_roundtrip(self):
        catalog = sample_catalog()
        clone = StatisticsCatalog.from_dict(catalog.to_dict())
        assert len(clone) == 1
        stats = clone.get("OpA|IndexAccessor:kv")
        assert stats.n1 == pytest.approx(1234.5)
        assert stats.num_tasks_sampled == 24
        idx = stats.index(0)
        assert idx.theta == pytest.approx(12.5)
        assert idx.miss_ratio == pytest.approx(0.25)
        assert idx.distinct == pytest.approx(987.0)
        assert stats.index(1).nik == 1.0  # defaults survive

    def test_file_roundtrip(self, tmp_path):
        catalog = sample_catalog()
        path = str(tmp_path / "catalog.json")
        catalog.save(path)
        loaded = StatisticsCatalog.load(path)
        assert loaded.to_dict() == catalog.to_dict()

    def test_empty_catalog(self, tmp_path):
        path = str(tmp_path / "empty.json")
        StatisticsCatalog().save(path)
        assert len(StatisticsCatalog.load(path)) == 0


def _every_field_set(cls, start):
    """An instance of dataclass ``cls`` with every scalar field off its
    default: ints and floats counted up from ``start``."""
    values = {}
    for i, f in enumerate(dataclasses.fields(cls)):
        if f.type in ("int", "float"):
            value = start + i
            values[f.name] = value if f.type == "int" else value + 0.25
            assert values[f.name] != f.default, f.name
    return cls(**values)


class TestOperatorStatsCodec:
    """``OperatorStats.to_dict`` / ``from_dict``: the one serialised form
    (catalog file and audit record alike)."""

    def full_stats(self):
        stats = _every_field_set(OperatorStats, 100)
        stats.per_index = {
            0: _every_field_set(IndexStats, 200),
            3: _every_field_set(IndexStats, 300),
        }
        return stats

    def test_round_trip_keeps_every_field(self):
        stats = self.full_stats()
        assert stats.per_index and stats.num_tasks_sampled == 107
        raw = stats.to_dict()
        assert list(raw)[-1] == "per_index" and list(raw["per_index"]) == ["0", "3"]
        assert OperatorStats.from_dict(raw) == stats

    def test_missing_field_is_named(self):
        raw = self.full_stats().to_dict()
        del raw["num_tasks_sampled"]
        with pytest.raises(ValueError, match="missing field 'num_tasks_sampled'"):
            OperatorStats.from_dict(raw)
        raw = self.full_stats().to_dict()
        del raw["per_index"]["3"]["build_scan_tj"]
        match = r"per_index\[3\]: missing field 'build_scan_tj'"
        with pytest.raises(ValueError, match=match):
            OperatorStats.from_dict(raw)

    def test_unknown_field_is_named(self):
        raw = self.full_stats().to_dict()
        raw["effective_tj"] = 1.0
        with pytest.raises(ValueError, match="unknown field 'effective_tj'"):
            OperatorStats.from_dict(raw)
        raw = self.full_stats().to_dict()
        raw["per_index"]["0"]["reuse_survival"] = 1.0
        with pytest.raises(ValueError, match="unknown field 'reuse_survival'"):
            StatisticsCatalog.from_dict({"sig": raw})


class TestAcrossProcessesWorkflow:
    def test_saved_stats_drive_a_new_runner(self, efind_env, tmp_path):
        """Profile in one 'process', plan statically in another."""
        first = efind_env.runner()
        first.run(
            efind_env.make_job("cp-profile"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        path = str(tmp_path / "stats.json")
        first.catalog.save(path)

        second = EFindRunner(
            efind_env.cluster, efind_env.dfs, catalog=StatisticsCatalog.load(path)
        )
        res = second.run(efind_env.make_job("cp-opt"), mode="static")
        assert res.plan.operators["head0"].strategies[0] is not Strategy.BASELINE
