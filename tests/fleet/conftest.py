"""Helpers for damaging and rewriting state files (cache entries, fleet
checkpoints, HEALTH dumps — one layout, :mod:`repro.output.restart`)."""

import hashlib
import json

from repro.output.restart import read_state, write_state
from repro.telemetry.report import decode_steps

#: ways a state file is damaged by the fault rows
DAMAGES = ("truncated", "header", "flipped")

_PREFIX = 8
_DIGEST = 32


def _split(data: bytes):
    """``(header, planes)`` of a state file: the bytes between the
    length prefix and the planes, and those between it and the digest
    trailer."""
    end = _PREFIX + int.from_bytes(data[:_PREFIX], "little")
    return data[_PREFIX:end], data[end:-_DIGEST]


def damage_entry(path, how: str) -> None:
    """Truncate the state file to half its size, overwrite the start of
    its header with garbage, or flip one byte in the middle of its
    array region."""
    data = bytearray(path.read_bytes())
    if how == "truncated":
        del data[len(data) // 2:]
    elif how == "header":
        data[_PREFIX:_PREFIX + 32] = b"#" * 32
    elif how == "flipped":
        header, region = _split(bytes(data))
        data[_PREFIX + len(header) + len(region) // 2] ^= 0xFF
    else:
        raise ValueError(how)
    path.write_bytes(bytes(data))


def rewrite_header(path, edit) -> None:
    """Re-encode the state file's meta document through ``edit(meta)``,
    keeping its array bytes and sealing it with a fresh digest — so
    the reader sees a well-formed file with the edited header."""
    header, region = _split(path.read_bytes())
    meta = json.loads(header)
    edit(meta)
    header = json.dumps(meta).encode("utf-8")
    header += b" " * (-(_PREFIX + len(header)) % 8)
    data = len(header).to_bytes(_PREFIX, "little") + header + region
    path.write_bytes(data + hashlib.sha256(data).digest())


def as_v1(meta: dict) -> None:
    """The meta document the way the v1 cache layout stored it: the
    step rows and comm counters beside a report, the kernel table
    inside it."""
    meta["format_version"] = 1
    meta["report"] = {"kernels": meta.pop("kernels")}
    meta["comm_total"] = None


def as_report_layout(meta: dict) -> None:
    """The meta document the way a format-3 entry stored a rendered
    report: the kernel table, the comm counters and the step rows
    (here none) inside ``report``, none of them beside it."""
    del meta["step_reasons"]
    meta["report"] = {"kernels": meta.pop("kernels"),
                      "comm": {"per_rank": meta.pop("comm_per_rank")},
                      "steps": []}


def as_step_rows_in_meta(path) -> None:
    """Rewrite an entry the way the layout before step columns stored
    it: the step rows in the meta document, no ``step_*`` planes and no
    ``step_reasons`` vocabulary, sealed with a fresh digest."""
    meta, arrays = read_state(path)
    meta["step_rows"] = decode_steps(arrays, meta.pop("step_reasons"))
    del meta["format_version"], meta["arrays"]
    write_state(path, meta, {name: array for name, array in arrays.items()
                             if not name.startswith("step_")})
