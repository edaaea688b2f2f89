"""Equivariant cell-inventory bookkeeping: trades, sparsified filtrations, staircase runs.

A trade swaps one equivariant n-cell for an (n+2)-cell of the same isotropy
and leaves everything else alone, so per-label Euler characteristics are
invariant.  Running the staircase over a sparsified filtration trades every
low cell added after its stage upward until each dimension stabilizes,
leaving a finite inventory in every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass


class ScheduleError(ValueError):
    def __init__(self, missing_k: int):
        super().__init__(f"k={missing_k} unreachable")
        self.missing_k = missing_k


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


@dataclass(frozen=True)
class CellInventory:
    """Counts of equivariant cells keyed by (dimension, isotropy label)."""

    counts: tuple[tuple[tuple[int, str], int], ...]  # sorted ((d, label), count)

    @staticmethod
    def make(counts: dict[tuple[int, str], int]) -> "CellInventory":
        for (d, label), c in counts.items():
            if d < 0 or c < 0:
                raise ValueError(f"bad cell entry {(d, label, c)}")
        return CellInventory(tuple(sorted((k, c) for k, c in counts.items() if c)))

    def as_dict(self) -> dict[tuple[int, str], int]:
        return dict(self.counts)

    def labels(self) -> set[str]:
        return {label for (_, label), _ in self.counts}

    def dimension_count(self, d: int) -> int:
        return sum(c for (dd, _), c in self.counts if dd == d)

    def add(self, other: "CellInventory") -> "CellInventory":
        return sum_inventories((self, other))

    def to_json(self) -> list:
        return [[d, label, c] for (d, label), c in self.counts]

    @staticmethod
    def from_json(data) -> "CellInventory":
        counts: dict[tuple[int, str], int] = {}
        for d, label, c in data:
            key = (_json_int(d, "dimension"), str(label))
            counts[key] = counts.get(key, 0) + _json_int(c, "cell count")
        return CellInventory.make(counts)


def sum_inventories(inventories) -> CellInventory:
    """The cells of all the given inventories together."""
    out: dict[tuple[int, str], int] = {}
    for inv in inventories:
        for k, c in inv.counts:
            out[k] = out.get(k, 0) + c
    return CellInventory.make(out)


def trade_cell(inv: CellInventory, d: int, label: str) -> CellInventory:
    """Replace one (d, label) cell by a (d+2, label) cell."""
    counts = inv.as_dict()
    if counts.get((d, label), 0) < 1:
        raise ValueError(f"no cell of dimension {d} with isotropy {label!r} to trade")
    counts[(d, label)] -= 1
    counts[(d + 2, label)] = counts.get((d + 2, label), 0) + 1
    return CellInventory.make(counts)


def euler_characteristic(inv: CellInventory) -> dict[str, int]:
    """Alternating cell-count sums per isotropy label, plus the grand total."""
    per: dict[str, int] = {}
    for (d, label), c in inv.counts:
        per[label] = per.get(label, 0) + (-1) ** d * c
    per["__total__"] = sum(v for k, v in per.items() if k != "__total__")
    return per


@dataclass(frozen=True)
class FiltrationSchedule:
    """Incremental inventories per stage plus declared pair connectivities.

    stages[i] holds the cells added by the i-th inclusion; connectivity[i] is
    the declared connectivity of the pair between stages i and i+1 (the last
    entry is unused and may be absent).
    """

    stages: tuple[CellInventory, ...]
    connectivity: tuple[int | None, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a schedule needs at least one stage")
        if len(self.connectivity) != len(self.stages):
            raise ValueError("need one connectivity slot per stage")

    @staticmethod
    def make(stages, connectivity) -> "FiltrationSchedule":
        stages = tuple(stages)
        conn = list(connectivity)
        while len(conn) < len(stages):
            conn.append(None)
        return FiltrationSchedule(stages, tuple(conn))

    def to_json(self) -> dict:
        out = []
        for inv, c in zip(self.stages, self.connectivity):
            entry = {"cells": inv.to_json()}
            if c is not None:
                entry["connectivity"] = c
            out.append(entry)
        labels = sorted({label for inv in self.stages for label in inv.labels()})
        return {"labels": labels, "stages": out}

    @staticmethod
    def from_json(data: dict) -> "FiltrationSchedule":
        stages, conn = [], []
        try:
            for entry in data["stages"]:
                stages.append(CellInventory.from_json(entry["cells"]))
                c = entry.get("connectivity")
                conn.append(None if c is None else _json_int(c, "connectivity"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed schedule JSON: {exc}") from exc
        return FiltrationSchedule.make(stages, conn)

    def is_sparsified(self, prefix: int | None = None) -> bool:
        upto = (len(self.stages) if prefix is None else prefix) - 1
        return all(
            self.connectivity[i] is not None and self.connectivity[i] >= i
            for i in range(max(upto, 0))
        )


def sparsify(s: FiltrationSchedule, require: int | None = None) -> tuple[FiltrationSchedule, list[int]]:
    """Pass to the subfiltration whose k-th pair is at least k-connected.

    Greedily selects the first index from which every later declared pair
    connectivity is at least k, merges the skipped inventories forward, and
    renumbers.  Returns the new schedule and the selected old indices.  When
    `require` stages are demanded but the declarations never reach some k,
    raises ScheduleError naming the first unreachable k.
    """
    last = len(s.stages) - 1
    pairs = list(s.connectivity[:last])
    if any(c is None for c in pairs):
        raise ValueError("every pair needs a declared connectivity")
    selected: list[int] = []
    k = 0
    prev = -1
    while True:
        n_k = next(
            (i for i in range(prev + 1, last + 1)
             if all(pairs[j] >= k for j in range(i, last))),
            last,
        )
        if n_k >= last:
            break  # only the vacuous tail achieves k; the schedule closes here
        selected.append(n_k)
        prev = n_k
        k += 1
    if require is not None and len(selected) + 1 < require:
        raise ScheduleError(len(selected))
    bounds = selected + [last]
    new_stages = []
    new_conn: list[int | None] = []
    prev = -1
    for idx, b in enumerate(bounds):
        new_stages.append(sum_inventories(s.stages[prev + 1:b + 1]))
        if idx < len(bounds) - 1:
            new_conn.append(min(pairs[j] for j in range(b, bounds[idx + 1])))
        else:
            new_conn.append(None)
        prev = b
    out = FiltrationSchedule(tuple(new_stages), tuple(new_conn))
    assert out.is_sparsified()
    return out, bounds


@dataclass(frozen=True)
class TradeLog:
    events: tuple[tuple[int, int, str], ...]  # (stage, dimension, label)

    def to_json(self) -> list:
        return [list(e) for e in self.events]


def run_staircase(s: FiltrationSchedule, prefix_len: int) -> tuple[CellInventory, TradeLog]:
    """Trade low-dimensional cells up the filtration and take the diagonal.

    At row l, every (l-1)-cell sitting in a stage after l-1 becomes an
    (l+1)-cell in its stage.  The returned inventory is the union of the
    prefix stages after all rows have run; dimension d is final once row d+1
    has passed.
    """
    if prefix_len < 1 or prefix_len > len(s.stages):
        raise ValueError("prefix length out of range")
    if not s.is_sparsified(prefix_len):
        raise ValueError("schedule is not sparsified; run sparsify first")
    stages = [inv.as_dict() for inv in s.stages[:prefix_len]]
    events: list[tuple[int, int, str]] = []
    for row in range(1, prefix_len):
        d = row - 1
        for j in range(row, prefix_len):
            for (dd, label), c in sorted(stages[j].items()):
                if dd != d or c == 0:
                    continue
                stages[j][(dd, label)] = 0
                stages[j][(d + 2, label)] = stages[j].get((d + 2, label), 0) + c
                events.extend([(j, d, label)] * c)
    return sum_inventories(map(CellInventory.make, stages)), TradeLog(tuple(events))


def replay_log(s: FiltrationSchedule, prefix_len: int, log: TradeLog) -> CellInventory:
    """Re-apply a trade log to the input schedule; must reproduce the output."""
    stages = [inv.as_dict() for inv in s.stages[:prefix_len]]
    for stage, d, label in log.events:
        if stages[stage].get((d, label), 0) < 1:
            raise ValueError(f"log replays a missing cell at stage {stage}")
        stages[stage][(d, label)] -= 1
        stages[stage][(d + 2, label)] = stages[stage].get((d + 2, label), 0) + 1
    return sum_inventories(map(CellInventory.make, stages))
