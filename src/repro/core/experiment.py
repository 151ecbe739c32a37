"""Experiment result containers."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


class Series:
    """One curve of a figure: a label and matching x/y vectors."""

    def __init__(self, label: str, x: List[Any], y: List[float]) -> None:
        if len(x) != len(y):
            raise ValueError(f"series {label!r}: {len(x)} x values vs {len(y)} y")
        self.label = label
        self.x = x
        self.y = y

    def value_at(self, x: Any) -> float:
        """The y value at an exact x (raises if absent)."""
        try:
            return self.y[self.x.index(x)]
        except ValueError as exc:
            raise KeyError(f"x={x!r} not sampled in series {self.label!r}") from exc

    @property
    def last(self) -> float:
        if not self.y:
            raise ValueError(f"series {self.label!r} is empty")
        return self.y[-1]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe plain-dict form (x values are int/float/str)."""
        return {"label": self.label, "x": list(self.x), "y": list(self.y)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Series":
        return cls(data["label"], list(data["x"]), list(data["y"]))


class ExperimentResult:
    """The regenerated content of one paper table or figure."""

    def __init__(
        self,
        exp_id: str,
        title: str,
        xlabel: str = "",
        ylabel: str = "",
        series: Optional[List[Series]] = None,
        rows: Optional[List[Dict[str, Any]]] = None,
        notes: str = "",
    ) -> None:
        self.exp_id = exp_id
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = [] if series is None else series
        self.rows = rows
        self.notes = notes

    def get_series(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(
            f"{self.exp_id}: no series {label!r}; have "
            f"{[s.label for s in self.series]}"
        )

    @property
    def labels(self) -> List[str]:
        return [s.label for s in self.series]

    def add(self, label: str, x: Sequence[Any], y: Sequence[float]) -> Series:
        s = Series(label, list(x), [float(v) for v in y])
        self.series.append(s)
        return s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe plain-dict form; inverse of :meth:`from_dict`.

        Round-trips everything the renderers consume, so a result
        rehydrated from the runner's cache renders byte-identical CSV
        and text reports.
        """
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "series": [s.to_dict() for s in self.series],
            "rows": self.rows,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        return cls(
            exp_id=data["exp_id"],
            title=data["title"],
            xlabel=data.get("xlabel", ""),
            ylabel=data.get("ylabel", ""),
            series=[Series.from_dict(s) for s in data.get("series", [])],
            rows=data.get("rows"),
            notes=data.get("notes", ""),
        )
