"""The one artifact codec: byte-deterministic .npz files and sorted JSON files.

An .npz artifact holds a JSON header (a uint8 array named ``header`` with a
``format`` tag) next to named arrays.  np.savez stamps zip entries with the
current time, so identical arrays saved twice give different file bytes.
Reproducible-manifest runs need equal bytes, so entries are written with a
fixed timestamp instead.  np.load reads the result like any other .npz.

Each entry is streamed into the archive: numpy's .npy header (format 1.0, the
version np.save picks for every plain dtype), then the array's own buffer.  No
in-memory copy of the .npy is made, and the bytes equal those of
``ZipFile.writestr`` on a ``np.lib.format.write_array`` buffer, because
zipfile rewrites the local header with the final size and CRC.  Like
``writestr``, an entry is a zip64 entry when its size times 1.05 exceeds
``zipfile.ZIP64_LIMIT``.
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
            arr = np.asarray(arrays[name], order="C")  # keeps a 0-d array 0-d
            header_buf = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header_buf, np.lib.format.header_data_from_array_1_0(arr))
            npy_header = header_buf.getvalue()
            zip64 = (len(npy_header) + arr.nbytes) * 1.05 > zipfile.ZIP64_LIMIT
            with zf.open(zipfile.ZipInfo(name + ".npy", date_time=_EPOCH), "w",
                         force_zip64=zip64) as entry:
                entry.write(npy_header)
                entry.write(arr.reshape(-1).view(np.uint8))


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
