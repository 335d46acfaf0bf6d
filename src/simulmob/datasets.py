"""Reference datasets bundled for golden replay.

Rows are ``MoveRecord``s, built and so checked once when the module loads:
each equals its (step, mn0_init, mn0_new, mn1_init, mn1_new) tuple of ints
as published, except where a dataset note says otherwise, and every
reader, writer and replay takes it as a row. Known inconsistencies in the
published tables are preserved as notes rather than silently corrected so
that replay reports can show them side by side.

``published_counts`` holds the result table printed alongside a dataset, in
METRIC_LABELS column order; it is what `simulmob replay` diffs against.
"""

from __future__ import annotations

from collections import namedtuple

from .model import MoveRecord, ZoneLayout

# Sample moves illustrating the update equations; no zones were published
# with them, so replaying needs a caller-supplied layout.
_TABLE_1_ROWS = (
    (5, 14, 19, 55, 50),
    (7, 20, 27, 48, 41),
    (9, 28, 37, 41, 32),
)

# Wide-zone batch (zones 0..374 / 376..750, brink 375), 31 rows as printed.
_TABLE_3_ROWS = (
    (6, 84, 90, 534, 528),
    (16, 276, 292, 396, 380),
    (14, 308, 322, 508, 494),
    (14, 352, 366, 504, 490),
    (45, 308, 353, 501, 456),
    (9, 310, 319, 402, 393),
    (18, 352, 370, 381, 363),
    (37, 161, 198, 381, 344),
    (31, 311, 342, 470, 439),
    (34, 331, 365, 438, 404),
    (35, 300, 335, 446, 411),
    (5, 330, 335, 387, 382),
    (12, 284, 296, 449, 437),
    (30, 58, 88, 494, 464),
    (3, 150, 153, 476, 473),
    (31, 220, 251, 498, 467),
    (44, 84, 128, 513, 469),
    (20, 308, 328, 423, 403),
    (10, 150, 160, 473, 463),
    (3, 102, 105, 432, 429),
    (14, 316, 330, 411, 397),
    (4, 149, 153, 454, 450),
    (43, 56, 99, 422, 379),
    (45, 54, 99, 440, 395),
    (8, 108, 116, 513, 505),
    (2, 262, 264, 379, 377),
    (28, 356, 384, 407, 379),
    (6, 255, 261, 388, 382),
    (33, 315, 348, 524, 491),
    (35, 158, 193, 515, 480),
    (32, 332, 364, 548, 516),
)

# Narrow-zone batch (zones 50..99 / 101..150, brink 100), 30 rows.
_TABLE_5_ROWS = (
    (36, 99, 135, 142, 106),
    (0, 96, 96, 146, 146),
    (20, 74, 94, 148, 128),
    (9, 55, 64, 101, 92),
    (10, 90, 100, 137, 127),
    (4, 60, 64, 110, 106),
    (17, 68, 85, 150, 133),
    (29, 59, 88, 135, 106),
    (5, 78, 83, 127, 122),
    (8, 75, 83, 142, 134),
    (46, 96, 142, 147, 101),
    (6, 71, 77, 132, 126),
    (8, 76, 84, 109, 101),
    (33, 75, 108, 102, 69),
    (49, 92, 141, 134, 85),
    (33, 90, 123, 142, 109),
    (31, 73, 104, 125, 94),
    (14, 53, 67, 107, 93),
    (20, 81, 101, 147, 127),
    (28, 98, 126, 148, 120),
    (38, 72, 110, 148, 110),
    (19, 62, 81, 127, 108),
    (15, 68, 83, 133, 118),
    (7, 85, 92, 124, 117),
    (14, 82, 96, 126, 112),
    (45, 86, 131, 145, 100),
    (31, 71, 102, 150, 119),
    (43, 95, 138, 137, 94),
    (24, 51, 75, 130, 106),
    (3, 52, 55, 121, 118),
)

# One published sequential run (zones 0..249 / 251..500, brink 250),
# chained from starts (10, 500). Row 9 is stored with mn1_new 285: the
# published 282 contradicts both 333 - 48 = 285 and the next row's init.
_TABLE_6_ROWS = (
    (28, 10, 38, 500, 472),
    (43, 38, 81, 472, 429),
    (37, 81, 118, 429, 392),
    (9, 118, 127, 392, 383),
    (20, 127, 147, 383, 363),
    (2, 147, 149, 363, 361),
    (28, 149, 177, 361, 333),
    (0, 177, 177, 333, 333),
    (48, 177, 225, 333, 285),
    (22, 225, 247, 285, 263),
    (42, 247, 289, 263, 221),
)


class ReplayDataset(namedtuple(
        "ReplayDataset", "id kind layout rows max_step published_counts notes",
        defaults=(None, None, ()))):
    """An embedded batch of moves plus the context needed to replay it.

    ``kind`` is "independent" (rows) or "sequential" (one chained run), and
    ``layout`` None when replay needs a caller-supplied layout.
    """

    __slots__ = ()

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(row.step for row in self.rows)


_DATASETS = {
    "table-1": ReplayDataset(
        id="table-1",
        kind="independent",
        layout=None,
        rows=tuple(map(MoveRecord._make, _TABLE_1_ROWS)),
        notes=(
            "illustrative sample moves; no zones were published with them, "
            "so replay requires --zone0/--zone1/--brink",
            "the third row ends at (37, 32) with the nodes past each other, "
            "so every brink classifies at least one crossing in it",
        ),
    ),
    "table-3": ReplayDataset(
        id="table-3",
        kind="independent",
        layout=ZoneLayout(0, 374, 376, 750, 375),
        rows=tuple(map(MoveRecord._make, _TABLE_3_ROWS)),
        max_step=50,
        published_counts=(1, 1, 1, 1, 0, 28, 0),
        notes=(
            "the published batch reports 30 runs but prints 31 rows; "
            "all 31 are replayed",
            "the inclusive crossing rule classifies 2 MN_1 overlaps; the "
            "published count column prints 1",
            "the published batch mean step 21.27 (638.1/30) does not match "
            "the printed rows, which sum to 667 over 31 rows (~21.52)",
        ),
    ),
    "table-5": ReplayDataset(
        id="table-5",
        kind="independent",
        layout=ZoneLayout(50, 99, 101, 150, 100),
        rows=tuple(map(MoveRecord._make, _TABLE_5_ROWS)),
        max_step=50,
        published_counts=(8, 13, 2, 7, 5, 5, 5),
        notes=(
            "the rule-derived no-overlap count is 15 (30 - 8 - 2 - 5); the "
            "published count column prints 5",
        ),
    ),
    "table-6": ReplayDataset(
        id="table-6",
        kind="sequential",
        layout=ZoneLayout(0, 249, 251, 500, 250),
        rows=tuple(map(MoveRecord._make, _TABLE_6_ROWS)),
        max_step=50,
        notes=(
            "row 9 is stored with mn1_new 285: the published 282 contradicts "
            "333 - 48 and the next row's init 285",
            "one published run out of a 30-run batch; it ends in a "
            "simultaneous handover on step 11",
        ),
    ),
}

DATASET_IDS = tuple(_DATASETS)


def load_dataset(dataset_id: str) -> ReplayDataset:
    """Return the embedded dataset for ``dataset_id`` (table-1|3|5|6)."""
    try:
        return _DATASETS[dataset_id]
    except KeyError:
        known = ", ".join(DATASET_IDS)
        raise ValueError(f"unknown dataset {dataset_id!r}; known: {known}") from None
