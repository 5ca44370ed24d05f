"""TPC-H data generation (dbgen stand-in).

Reproduces the *key-correlation* properties the strategy comparison
depends on:

* LineItem rows are stored in orderkey order (one order's lines are
  adjacent), so Q3's Orders lookups have strong local redundancy --
  "LineItem records that is associated with the same order record are
  stored consecutively in the TPC-H data set";
* supplier keys are drawn uniformly per line item, so Q9's Supplier
  lookups have *no* locality;
* every part is supplied by a fixed small set of suppliers (dbgen's
  partsupp construction), so (partkey, suppkey) lookups always hit.

Draws are ``below(n)`` (:func:`repro.common.rng.randbelow`) and
``a + (b - a) * random()``: what ``randrange`` / ``randint`` / ``choice``
and ``uniform`` draw, without their per-call wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.rng import make_rng, randbelow
from repro.dfs.filesystem import DistributedFileSystem
from repro.workloads.tpch import schema as sc


@dataclass(frozen=True)
class TpchConfig:
    """Scale knobs. ``sf=1.0`` would match real TPC-H cardinalities; the
    benchmarks default to a laptop-friendly ``sf=0.002``."""

    sf: float = 0.002
    seed: int = 22
    suppliers_per_part: int = 4
    lines_per_order_max: int = 7
    supplier_scale: float = 1.0
    """Extra multiplier on the supplier count. TPC-H's supplier:lineitem
    ratio (1:600) cannot coexist with the paper's cache:supplier ratio
    (1024:100k) after a ~5000x downscale; the Q9 benchmarks raise this
    so supplier keys still overflow the lookup cache as they do at SF10.
    """

    @property
    def num_nations(self) -> int:
        return len(sc.NATION_NAMES)

    @property
    def num_suppliers(self) -> int:
        return max(10, int(10_000 * self.sf * self.supplier_scale))

    @property
    def num_customers(self) -> int:
        return max(30, int(150_000 * self.sf))

    @property
    def num_orders(self) -> int:
        return max(100, int(1_500_000 * self.sf))

    @property
    def num_parts(self) -> int:
        return max(40, int(200_000 * self.sf))


@dataclass
class TpchData:
    """All generated tables (lineitem as ``(line_id, record)`` pairs)."""

    config: TpchConfig
    nation: List[tuple] = field(default_factory=list)
    supplier: List[tuple] = field(default_factory=list)
    customer: List[tuple] = field(default_factory=list)
    part: List[tuple] = field(default_factory=list)
    partsupp: List[tuple] = field(default_factory=list)
    orders: List[tuple] = field(default_factory=list)
    lineitem: List[Tuple[int, tuple]] = field(default_factory=list)

    #: partkey -> the suppkeys that stock it (used by the generator and
    #: handy for tests)
    part_suppliers: Dict[int, List[int]] = field(default_factory=dict)


def generate(cfg: TpchConfig) -> TpchData:
    """Generate every table deterministically from ``cfg.seed``."""
    data = TpchData(config=cfg)
    _gen_nation(data)
    _gen_supplier(data, cfg)
    _gen_customer(data, cfg)
    _gen_part(data, cfg)
    _gen_partsupp(data, cfg)
    _gen_orders_and_lineitem(data, cfg)
    return data


def _gen_nation(data: TpchData) -> None:
    for key, name in enumerate(sc.NATION_NAMES):
        data.nation.append((key, name, key % 5))


def _gen_supplier(data: TpchData, cfg: TpchConfig) -> None:
    rng = make_rng(cfg.seed, "supplier")
    below, random = randbelow(rng), rng.random
    data.supplier = [
        (
            key,
            f"Supplier#{key:06d}",
            below(cfg.num_nations),
            round(-999.99 + (9999.99 - -999.99) * random(), 2),
        )
        for key in range(cfg.num_suppliers)
    ]


def _gen_customer(data: TpchData, cfg: TpchConfig) -> None:
    below = randbelow(make_rng(cfg.seed, "customer"))
    nations, segments = cfg.num_nations, sc.MKT_SEGMENTS
    data.customer = [
        (key, f"Customer#{key:06d}", below(nations), segments[below(len(segments))])
        for key in range(cfg.num_customers)
    ]


def _gen_part(data: TpchData, cfg: TpchConfig) -> None:
    below = randbelow(make_rng(cfg.seed, "part"))
    colors = sc.PART_COLORS
    data.part = [
        (
            key,
            f"{colors[below(len(colors))]} polished part#{key:06d}",
            f"Brand#{below(5) + 1}{below(5) + 1}",
            ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY")[below(5)],
            round(900 + (key % 1000) * 0.1, 2),
        )
        for key in range(cfg.num_parts)
    ]


def _gen_partsupp(data: TpchData, cfg: TpchConfig) -> None:
    rng = make_rng(cfg.seed, "partsupp")
    below, random = randbelow(rng), rng.random
    suppliers = cfg.num_suppliers
    wanted = min(cfg.suppliers_per_part, suppliers)
    for partkey in range(cfg.num_parts):
        supps: List[int] = []
        while len(supps) < wanted:
            s = below(suppliers)
            if s not in supps:
                supps.append(s)
        data.part_suppliers[partkey] = supps
        for suppkey in supps:
            availqty = 1 + below(9_999)
            supplycost = round(1.0 + (1000.0 - 1.0) * random(), 2)
            data.partsupp.append(((partkey, suppkey), availqty, supplycost))


def _gen_orders_and_lineitem(data: TpchData, cfg: TpchConfig) -> None:
    rng = make_rng(cfg.seed, "orders")
    below, random = randbelow(rng), rng.random
    orders, lineitem, part_suppliers = data.orders, data.lineitem, data.part_suppliers
    parts, lines_max = cfg.num_parts, cfg.lines_per_order_max
    add_days = sc.add_days
    line_id = 0
    for orderkey in range(cfg.num_orders):
        orderdate = sc.make_date(1992 + below(7), 1 + below(12), 1 + below(28))
        custkey = below(cfg.num_customers)
        status = ("O", "F", "P")[below(3)]
        shippriority = below(2)
        total = 0.0
        # Line items of one order are generated (and stored) adjacently.
        for _ in range(1 + below(lines_max)):
            partkey = below(parts)
            supps = part_suppliers[partkey]
            suppkey = supps[below(len(supps))]
            quantity = 1 + below(50)
            extprice = round(quantity * (900.0 + (1100.0 - 900.0) * random()), 2)
            discount = round(0.1 * random(), 2)
            shipdate = add_days(orderdate, 1 + below(121))
            item = (orderkey, partkey, suppkey, quantity, extprice, discount, shipdate)
            lineitem.append((line_id, item))
            total += extprice
            line_id += 1
        orders.append(
            (orderkey, custkey, status, round(total, 2), orderdate, shippriority)
        )


def write_lineitem(
    dfs: DistributedFileSystem,
    path: str,
    data: TpchData,
    dup_factor: int = 1,
) -> str:
    """Write LineItem as the job's main input. ``dup_factor=10`` builds
    the paper's DUP10 variant: the table concatenated ten times (each
    copy keeps its clustered order; line ids stay unique)."""
    n, lineitem = len(data.lineitem), data.lineitem
    records = [(c * n + lid, item) for c in range(dup_factor) for lid, item in lineitem]
    dfs.write(path, records)
    return path
