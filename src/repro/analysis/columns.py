"""A small numpy-backed columnar table (our pandas substitute).

Reports hand their per-bin and per-AP results around as
:class:`ColumnTable`: named homogeneous columns, with no dependency
beyond numpy.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

__all__ = ["ColumnTable"]


class ColumnTable:
    """Dict-of-arrays table of equal-length columns.

    >>> t = ColumnTable({"k": [1, 1, 2], "v": [10.0, 20.0, 30.0]})
    >>> len(t), t.column_names
    (3, ['k', 'v'])
    >>> t.head(1).to_rows()
    [{'k': 1, 'v': 10.0}]
    """

    def __init__(self, columns: Mapping[str, Iterable]) -> None:
        self._cols: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, values in columns.items():
            arr = np.asarray(values)
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise ValueError(
                    f"column {name!r} has length {len(arr)}, expected {length}"
                )
            self._cols[name] = arr
        self._length = length or 0

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def column_names(self) -> list[str]:
        return list(self._cols)

    def column(self, name: str) -> np.ndarray:
        """The array behind column ``name``."""
        return self._cols[name]

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __repr__(self) -> str:
        return f"ColumnTable({self._length} rows x {list(self._cols)})"

    # -- views ------------------------------------------------------------

    def head(self, n: int) -> "ColumnTable":
        """First ``n`` rows."""
        return ColumnTable({name: a[:n] for name, a in self._cols.items()})

    def to_rows(self) -> list[dict]:
        """Materialise as a list of row dicts (small tables, reports)."""
        names = self.column_names
        return [
            {n: self._cols[n][i].item() for n in names}
            for i in range(self._length)
        ]
