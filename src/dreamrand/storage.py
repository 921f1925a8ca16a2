"""Versioned on-disk containers for checkpoints and datasets.

Layout: one JSON header line (human-inspectable) followed by raw
little-endian binary blocks. Round-trips are bit-exact; readers refuse
unknown container kinds, mismatched versions, and truncated or oversized
files.
"""
from __future__ import annotations

import json
import os
from typing import BinaryIO

import numpy as np

__all__ = [
    "ContainerError",
    "CorruptFileError",
    "VersionError",
    "write_container",
    "read_container",
]

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8"), "|u1": np.dtype("|u1")}


class ContainerError(Exception):
    """Base class for container file problems."""


class CorruptFileError(ContainerError):
    """File is truncated, oversized, or structurally invalid."""


class VersionError(ContainerError):
    """Container kind or version does not match what the reader expects."""


def _dtype_token(a: np.ndarray) -> str:
    kind = a.dtype.kind
    if kind == "f" and a.dtype.itemsize == 8:
        return "<f8"
    if kind == "i" and a.dtype.itemsize == 8:
        return "<i8"
    if kind in ("u", "b") and a.dtype.itemsize == 1:
        return "|u1"
    raise ContainerError(f"unsupported dtype {a.dtype}")


def _canonical(a: np.ndarray) -> np.ndarray:
    token = _dtype_token(a)
    return np.ascontiguousarray(a, dtype=_DTYPES[token])


def write_container(path, kind: str, version: int, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write header + named arrays; array order in the manifest is fixed."""
    manifest = []
    blocks = []
    for name, arr in arrays.items():
        arr = _canonical(np.asarray(arr))
        manifest.append([name, _dtype_token(arr), list(arr.shape), arr.nbytes])
        blocks.append(arr.tobytes())
    head = {"container": kind, "version": int(version), "header": header, "arrays": manifest}
    line = json.dumps(head, sort_keys=True, separators=(",", ":")) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(line.encode("utf-8"))
        for block in blocks:
            fh.write(block)
    os.replace(tmp, path)


def _read_header_line(fh: BinaryIO) -> dict:
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise CorruptFileError("missing or truncated header line")
    try:
        head = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFileError(f"unparseable header: {exc}") from exc
    if not isinstance(head, dict):
        raise CorruptFileError("header is not a JSON object")
    return head


def _read_exact(fh: BinaryIO, nbytes: int, what: str) -> bytes:
    buf = fh.read(nbytes)
    if len(buf) != nbytes:
        raise CorruptFileError(f"truncated file while reading {what}")
    return buf


def _check_kind_version(head: dict, kind: str, version: int) -> None:
    if head.get("container") != kind:
        raise VersionError(f"expected container {kind!r}, found {head.get('container')!r}")
    if head.get("version") != version:
        raise VersionError(f"unsupported {kind} version {head.get('version')!r} (reader supports {version})")


def read_container(path, kind: str, version: int) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by :func:`write_container`."""
    with open(path, "rb") as fh:
        head = _read_header_line(fh)
        _check_kind_version(head, kind, version)
        manifest = head.get("arrays")
        if not isinstance(manifest, list):
            raise CorruptFileError("header lacks array manifest")
        arrays: dict[str, np.ndarray] = {}
        for entry in manifest:
            try:
                name, dtype_token, shape, nbytes = entry
            except (TypeError, ValueError) as exc:
                raise CorruptFileError(f"bad manifest entry {entry!r}") from exc
            if dtype_token not in _DTYPES:
                raise CorruptFileError(f"unknown dtype token {dtype_token!r}")
            dtype = _DTYPES[dtype_token]
            expected = int(np.prod(shape, dtype=int)) * dtype.itemsize
            if expected != nbytes:
                raise CorruptFileError(f"manifest size mismatch for array {name!r}")
            buf = _read_exact(fh, nbytes, f"array {name!r}")
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise CorruptFileError("trailing bytes after final array block")
    return head.get("header", {}), arrays
