"""Golden digests of the generated inputs.

The generators' draw order is part of every ``BENCH_*.json`` file and
every hostbench digest: a generator that draws one value more, one
fewer or in another order moves every number downstream. The digests
below were taken from the generators as they were before their draws
went through :func:`repro.common.rng.randbelow`, and hold on every
supported Python version (3.10 through 3.13).
"""

import hashlib

import pytest

from repro.workloads import osm, tpch


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "seed, supplier_scale, digest",
    [
        (22, 1, "b928e0cf5e22b13a2a007e903dce383f870c55f8e9676533d42a092a2e6f9722"),
        (22, 100, "6c1f1b1d733d5c5faadd979e2f9b29709da65c4b25f0e58d0f9d067338f08d4a"),
        (7, 1, "536e35ca69fa93ff7495c821d859588094df33430362e4b2b6c9c098a6c0f4d6"),
        (7, 100, "1bce3c50f10486cf19a9b08bda37b48a127f5ad928ddce5c222c3592ac785f3d"),
    ],
)
def test_tpch_tables(seed, supplier_scale, digest):
    cfg = tpch.TpchConfig(sf=0.0006, seed=seed, supplier_scale=supplier_scale)
    assert _digest(tpch.generate(cfg)) == digest


@pytest.mark.parametrize(
    "seed, tag, digest",
    [
        (77, "", "f55056c14d12429f7aa54757a21124b94004e62d525a4bf9b2a4625618d2aa2b"),
        (77, "q", "93c3074fd936378c3ccc2bda90a713e20bd0edffb6c1bd7b993c7424409ac522"),
        (7, "", "f9797f32c168b429995b043d81c3553c6a3435460e3b62306494702df6615496"),
        (7, "q", "8dc1e4df899468fd24fa89aed5ea9f48463cb15b5751593e37bad279cb24a3af"),
    ],
)
def test_osm_points(seed, tag, digest):
    cfg = osm.OsmConfig(num_points=2000, seed=seed)
    assert _digest(osm.generate_points(cfg, tag)) == digest
