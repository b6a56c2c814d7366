"""Trace serialization: a text format for humans, a binary format for speed.

Lets generated traces be saved, inspected, diffed and reloaded — useful for
sharing exact reproduction inputs and for regression-pinning a workload
(``repro.workloads`` is deterministic, but a serialized trace survives
generator changes).

Text format: one micro-op per line, pipe-separated fields::

    A|<pc>|<dst>|<srcs>          ALU (M=mul, D=div, F=fp, N=nop)
    L|<pc>|<dst>|<srcs>|<addr>|<size>
    S|<pc>|<addr_srcs>|<data_srcs>|<addr>|<size>
    B|<pc>|<kind>|<taken>|<target>

Registers are comma-separated; numbers are lowercase hex without prefixes.
Lines beginning with ``#`` are comments; the header records the trace name.

Binary format (``dump_trace_binary``/``load_trace_binary``): the artifact
codec behind :mod:`repro.isa.artifacts`. Generated traces repeat static
micro-ops heavily (typically 20-30% unique), so the file stores a pool of
unique struct-packed op records plus an index array mapping each dynamic
position to its pool entry; loading reconstructs only the pool and shares
op objects across positions, as ``build_trace`` does too (safe: micro-ops
are immutable by convention and the simulator addresses them by trace
index, never identity). The encoder packs each distinct op object once.
A CRC-32 over the payload rejects truncated or corrupted artifacts. See
``docs/traces.md`` for the byte-level layout.
"""

from __future__ import annotations

import io
import struct
import zlib
from pathlib import Path
from typing import IO, Dict, Iterable, List, Tuple, Union

from repro.isa.microop import BranchInfo, BranchKind, MemInfo, MicroOp, OpKind
from repro.isa.trace import Trace

_KIND_CODES = {
    OpKind.ALU: "A",
    OpKind.MUL: "M",
    OpKind.DIV: "D",
    OpKind.FP: "F",
    OpKind.NOP: "N",
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

_BRANCH_CODES = {
    BranchKind.CONDITIONAL: "c",
    BranchKind.INDIRECT: "i",
    BranchKind.UNCONDITIONAL: "u",
    BranchKind.CALL: "k",
    BranchKind.RETURN: "r",
}
_CODE_BRANCHES = {code: kind for kind, code in _BRANCH_CODES.items()}


def _regs_to_str(regs: Iterable[int]) -> str:
    return ",".join(str(reg) for reg in regs)


def _regs_from_str(text: str) -> tuple:
    if not text:
        return ()
    return tuple(int(reg) for reg in text.split(","))


def _encode_op(op: MicroOp) -> str:
    if op.kind in _KIND_CODES:
        dst = "" if op.dst_reg is None else str(op.dst_reg)
        return f"{_KIND_CODES[op.kind]}|{op.pc:x}|{dst}|{_regs_to_str(op.src_regs)}"
    if op.kind is OpKind.LOAD:
        dst = "" if op.dst_reg is None else str(op.dst_reg)
        return (
            f"L|{op.pc:x}|{dst}|{_regs_to_str(op.src_regs)}"
            f"|{op.mem.address:x}|{op.mem.size}"
        )
    if op.kind is OpKind.STORE:
        return (
            f"S|{op.pc:x}|{_regs_to_str(op.src_regs)}"
            f"|{_regs_to_str(op.store_data_regs)}|{op.mem.address:x}|{op.mem.size}"
        )
    branch = op.branch
    return (
        f"B|{op.pc:x}|{_BRANCH_CODES[branch.kind]}"
        f"|{int(branch.taken)}|{branch.target:x}"
    )


def _decode_op(line: str, line_number: int) -> MicroOp:
    fields = line.split("|")
    code = fields[0]
    try:
        if code in _CODE_KINDS:
            _, pc, dst, srcs = fields
            return MicroOp(
                pc=int(pc, 16),
                kind=_CODE_KINDS[code],
                dst_reg=int(dst) if dst else None,
                src_regs=_regs_from_str(srcs),
            )
        if code == "L":
            _, pc, dst, srcs, addr, size = fields
            return MicroOp(
                pc=int(pc, 16),
                kind=OpKind.LOAD,
                dst_reg=int(dst) if dst else None,
                src_regs=_regs_from_str(srcs),
                mem=MemInfo(address=int(addr, 16), size=int(size)),
            )
        if code == "S":
            _, pc, addr_srcs, data_srcs, addr, size = fields
            return MicroOp(
                pc=int(pc, 16),
                kind=OpKind.STORE,
                src_regs=_regs_from_str(addr_srcs),
                store_data_regs=_regs_from_str(data_srcs),
                mem=MemInfo(address=int(addr, 16), size=int(size)),
            )
        if code == "B":
            _, pc, kind, taken, target = fields
            return MicroOp(
                pc=int(pc, 16),
                kind=OpKind.BRANCH,
                branch=BranchInfo(
                    kind=_CODE_BRANCHES[kind],
                    taken=taken == "1",
                    target=int(target, 16),
                ),
            )
    except (ValueError, KeyError) as error:
        raise ValueError(f"line {line_number}: malformed record {line!r}") from error
    raise ValueError(f"line {line_number}: unknown op code {code!r}")


def dump_trace(trace: Trace, destination: Union[str, Path, IO[str]]) -> None:
    """Write ``trace`` to a path or text stream."""
    own = isinstance(destination, (str, Path))
    stream: IO[str] = open(destination, "w") if own else destination
    try:
        stream.write(f"# repro-trace v1 name={trace.name} ops={len(trace)}\n")
        for op in trace:
            stream.write(_encode_op(op))
            stream.write("\n")
    finally:
        if own:
            stream.close()


def load_trace(source: Union[str, Path, IO[str]]) -> Trace:
    """Read a trace written by :func:`dump_trace`."""
    own = isinstance(source, (str, Path))
    stream: IO[str] = open(source) if own else source
    try:
        name = "loaded"
        ops: List[MicroOp] = []
        for line_number, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line.split():
                    if token.startswith("name="):
                        name = token[len("name="):]
                continue
            ops.append(_decode_op(line, line_number))
        return Trace(ops, name=name)
    finally:
        if own:
            stream.close()


def dumps_trace(trace: Trace) -> str:
    """Serialize to a string."""
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def loads_trace(text: str) -> Trace:
    """Deserialize from a string."""
    return load_trace(io.StringIO(text))


# --------------------------------------------------------------------------
# Binary artifact codec
# --------------------------------------------------------------------------

BINARY_MAGIC = b"RTRC"
BINARY_VERSION = 1

# Header: magic, version, name length, total ops, unique ops, index width
# (2 or 4 bytes per position), CRC-32 of everything after the header.
_HEADER = struct.Struct("<4sHHIIBI")

# Enum wire codes: stable identifiers independent of Python enum ordering.
_KIND_IDS = {
    OpKind.ALU: 0,
    OpKind.MUL: 1,
    OpKind.DIV: 2,
    OpKind.FP: 3,
    OpKind.LOAD: 4,
    OpKind.STORE: 5,
    OpKind.BRANCH: 6,
    OpKind.NOP: 7,
}
_ID_KINDS = {code: kind for kind, code in _KIND_IDS.items()}

_BRANCH_IDS = {
    BranchKind.CONDITIONAL: 0,
    BranchKind.INDIRECT: 1,
    BranchKind.UNCONDITIONAL: 2,
    BranchKind.CALL: 3,
    BranchKind.RETURN: 4,
}
_ID_BRANCHES = {code: kind for kind, code in _BRANCH_IDS.items()}

_FLAG_DST = 0x01
_FLAG_MEM = 0x02
_FLAG_BRANCH = 0x04

_U64_MAX = (1 << 64) - 1
_U16_MAX = 0xFFFF

_PACK_U64 = struct.Struct("<Q").pack
_PACK_MEM = struct.Struct("<QB").pack
_PACK_BRANCH = struct.Struct("<BBQ").pack
_UNPACK_U64 = struct.Struct("<Q").unpack_from
_UNPACK_MEM = struct.Struct("<QB").unpack_from
_UNPACK_BRANCH = struct.Struct("<BBQ").unpack_from


class TraceFormatError(ValueError):
    """A binary trace artifact is truncated, corrupted, or incompatible."""


def _check_u64(value: int, what: str) -> int:
    if not 0 <= value <= _U64_MAX:
        raise TraceFormatError(f"{what} {value:#x} does not fit in 64 bits")
    return value


def _pack_regs(regs: Tuple[int, ...], what: str) -> bytes:
    if len(regs) > 0xFF:
        raise TraceFormatError(f"too many {what} ({len(regs)})")
    for reg in regs:
        if not 0 <= reg <= _U16_MAX:
            raise TraceFormatError(f"{what} register {reg} does not fit in 16 bits")
    return struct.pack(f"<B{len(regs)}H", len(regs), *regs)


def _encode_op_binary(op: MicroOp) -> bytes:
    flags = 0
    if op.dst_reg is not None:
        flags |= _FLAG_DST
    if op.mem is not None:
        flags |= _FLAG_MEM
    if op.branch is not None:
        flags |= _FLAG_BRANCH
    parts = [
        bytes((_KIND_IDS[op.kind], flags)),
        _PACK_U64(_check_u64(op.pc, "pc")),
    ]
    if op.dst_reg is not None:
        if not 0 <= op.dst_reg <= _U16_MAX:
            raise TraceFormatError(
                f"dst register {op.dst_reg} does not fit in 16 bits"
            )
        parts.append(struct.pack("<H", op.dst_reg))
    parts.append(_pack_regs(tuple(op.src_regs), "source"))
    parts.append(_pack_regs(tuple(op.store_data_regs), "store-data"))
    if op.mem is not None:
        parts.append(_PACK_MEM(_check_u64(op.mem.address, "address"), op.mem.size))
    if op.branch is not None:
        parts.append(
            _PACK_BRANCH(
                _BRANCH_IDS[op.branch.kind],
                int(op.branch.taken),
                _check_u64(op.branch.target, "target"),
            )
        )
    return b"".join(parts)


def _decode_pool(payload: memoryview, offset: int, unique: int) -> Tuple[List[MicroOp], int]:
    """Decode ``unique`` op records starting at ``offset``.

    Field values are trusted after the CRC check, so ops are materialised via
    ``__new__`` + direct attribute writes, skipping ``__post_init__`` — the
    encoder only ever writes records that satisfy those invariants.
    """
    pool: List[MicroOp] = []
    new_op = MicroOp.__new__
    try:
        for _ in range(unique):
            kind_id = payload[offset]
            flags = payload[offset + 1]
            offset += 2
            pc = _UNPACK_U64(payload, offset)[0]
            offset += 8
            if flags & _FLAG_DST:
                dst_reg: object = struct.unpack_from("<H", payload, offset)[0]
                offset += 2
            else:
                dst_reg = None
            n_src = payload[offset]
            offset += 1
            src_regs = struct.unpack_from(f"<{n_src}H", payload, offset)
            offset += 2 * n_src
            n_data = payload[offset]
            offset += 1
            store_data_regs = struct.unpack_from(f"<{n_data}H", payload, offset)
            offset += 2 * n_data
            if flags & _FLAG_MEM:
                address, size = _UNPACK_MEM(payload, offset)
                offset += 9
                mem: object = MemInfo(address=address, size=size)
            else:
                mem = None
            if flags & _FLAG_BRANCH:
                branch_id, taken, target = _UNPACK_BRANCH(payload, offset)
                offset += 10
                branch: object = BranchInfo(
                    kind=_ID_BRANCHES[branch_id],
                    taken=bool(taken),
                    target=target,
                )
            else:
                branch = None
            op = new_op(MicroOp)
            op.pc = pc
            op.kind = _ID_KINDS[kind_id]
            op.dst_reg = dst_reg
            op.src_regs = src_regs
            op.mem = mem
            op.branch = branch
            op.store_data_regs = store_data_regs
            pool.append(op)
    except (struct.error, IndexError, KeyError, ValueError) as error:
        raise TraceFormatError(
            f"malformed op record at payload offset {offset}"
        ) from error
    return pool, offset


def dumps_trace_binary(trace: Trace) -> bytes:
    """Serialize ``trace`` to the compact binary artifact format."""
    pool_index: Dict[bytes, int] = {}
    # Built and decoded traces share equal ops, so each distinct op object
    # is encoded once; the trace keeps every op alive, so ids stay unique.
    slot_of_op: Dict[int, int] = {}
    indices: List[int] = []
    records: List[bytes] = []
    for op in trace:
        slot = slot_of_op.get(id(op))
        if slot is None:
            record = _encode_op_binary(op)
            slot = pool_index.get(record)
            if slot is None:
                slot = len(records)
                pool_index[record] = slot
                records.append(record)
            slot_of_op[id(op)] = slot
        indices.append(slot)
    unique = len(records)
    index_width = 2 if unique <= _U16_MAX + 1 else 4
    index_fmt = "H" if index_width == 2 else "I"
    name_bytes = trace.name.encode("utf-8")
    if len(name_bytes) > _U16_MAX:
        raise TraceFormatError(f"trace name too long ({len(name_bytes)} bytes)")
    payload = b"".join(
        [
            name_bytes,
            b"".join(records),
            struct.pack(f"<{len(indices)}{index_fmt}", *indices),
        ]
    )
    header = _HEADER.pack(
        BINARY_MAGIC,
        BINARY_VERSION,
        len(name_bytes),
        len(trace),
        unique,
        index_width,
        zlib.crc32(payload),
    )
    return header + payload


def loads_trace_binary(data: bytes) -> Trace:
    """Deserialize a trace written by :func:`dumps_trace_binary`.

    Raises :class:`TraceFormatError` on truncation, corruption (CRC
    mismatch), or an unsupported format version.
    """
    if len(data) < _HEADER.size:
        raise TraceFormatError(
            f"artifact too short ({len(data)} bytes) for a trace header"
        )
    magic, version, name_len, total_ops, unique, index_width, crc = _HEADER.unpack_from(
        data
    )
    if magic != BINARY_MAGIC:
        raise TraceFormatError(f"bad magic {magic!r} (expected {BINARY_MAGIC!r})")
    if version != BINARY_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {version} (expected {BINARY_VERSION})"
        )
    if index_width not in (2, 4):
        raise TraceFormatError(f"invalid index width {index_width}")
    if total_ops == 0 or unique == 0 or unique > total_ops:
        raise TraceFormatError(
            f"inconsistent op counts (total={total_ops}, unique={unique})"
        )
    payload = memoryview(data)[_HEADER.size :]
    if zlib.crc32(payload) != crc:
        raise TraceFormatError("payload CRC mismatch (truncated or corrupted)")
    if name_len > len(payload):
        raise TraceFormatError("name extends past end of artifact")
    name = bytes(payload[:name_len]).decode("utf-8")
    pool, offset = _decode_pool(payload, name_len, unique)
    index_fmt = "H" if index_width == 2 else "I"
    expected_end = offset + total_ops * index_width
    if expected_end != len(payload):
        raise TraceFormatError(
            f"artifact length mismatch (expected {expected_end} payload bytes, "
            f"have {len(payload)})"
        )
    try:
        indices = struct.unpack_from(f"<{total_ops}{index_fmt}", payload, offset)
        ops = [pool[i] for i in indices]
    except (struct.error, IndexError) as error:
        raise TraceFormatError("index array is malformed") from error
    return Trace(ops, name=name)


def dump_trace_binary(trace: Trace, destination: Union[str, Path, IO[bytes]]) -> None:
    """Write ``trace`` in binary form to a path or byte stream."""
    data = dumps_trace_binary(trace)
    if isinstance(destination, (str, Path)):
        Path(destination).write_bytes(data)
    else:
        destination.write(data)


def load_trace_binary(source: Union[str, Path, IO[bytes]]) -> Trace:
    """Read a trace written by :func:`dump_trace_binary`."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read()
    return loads_trace_binary(data)
