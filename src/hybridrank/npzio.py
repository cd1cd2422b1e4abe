"""The one artifact codec: byte-deterministic .npz files and sorted JSON files.

An .npz artifact holds a JSON header (a uint8 array named ``header`` with a
``format`` tag) next to named arrays.  np.savez stamps zip entries with the
current time, so identical arrays saved twice give different file bytes.
Reproducible-manifest runs need equal bytes, so entries are written with a
fixed timestamp instead.  np.load reads the result like any other .npz.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

_EPOCH = (1980, 1, 1, 0, 0, 0)  # earliest timestamp zip can represent


def deterministic_savez(path, header: dict, **arrays) -> None:
    """Write ``header`` (JSON, sorted keys) and ``arrays`` with fixed timestamps."""
    arrays["header"] = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"),
                                     dtype=np.uint8)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arrays[name]),
                                      allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(name + ".npy", date_time=_EPOCH),
                        buf.getvalue())


def load_npz(path, format_tag: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays) of a file written by deterministic_savez.

    Raises ValueError unless the header's format is ``format_tag``.
    """
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
        if header.get("format") != format_tag:
            raise ValueError(f"{path}: unexpected format {header.get('format')!r}, "
                             f"expected {format_tag!r}")
        arrays = {name: data[name] for name in data.files if name != "header"}
    return header, arrays


def write_json(obj, path) -> None:
    """Indent-2, sorted-key JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
