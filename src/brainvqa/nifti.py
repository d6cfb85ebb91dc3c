"""NIfTI-1 volume parsing, writing, and RAS conformation.

Only single-file NIfTI-1 (``.nii`` / ``.nii.gz``) is supported.  NIfTI-2 and
header/image pairs are rejected with a clear error.  ``data[i, j, k]``
indexes the axes in on-disk order.  A parsed volume keeps the on-disk memory
order (first index fastest-varying, Fortran order), and conforming keeps its
input's order, so no stage copies a grid only to transpose it; geometry works
on voxel coordinates and never depends on the memory order.

Affine priority follows the de-facto standard readers: srow fields when
``sform_code > 0``, else the quaternion fields when ``qform_code > 0``, else a
diagonal built from pixdim.  Descriptor stages get a label volume as voxel
coordinates, from one split per study (:meth:`LabelMask.label_coords`).
"""
from __future__ import annotations

import gzip
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    FormatError,
    GeometryError,
    TruncatedFileError,
    UnsupportedDatatypeError,
)

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"
GZIP_MAGIC = b"\x1f\x8b"
# Bytes inflated past the declared payload, so that a member ending right after
# it is read to its end and its CRC is checked; anything later is not inflated.
_GZIP_MARGIN = 1 << 16
# Most bytes one inflate call returns, held besides the payload while it is
# copied in; each call also copies the compressed input it leaves.
_INFLATE_CHUNK = 1 << 19
# Deflate inflates at most about 1032 bytes per input byte.
_DEFLATE_RATIO = 1032

# (name, format, shape) triples for the 348-byte NIfTI-1 header.
_HEADER_FIELDS = [
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
]

# NIfTI datatype code -> numpy dtype (scalar types only).
_DTYPE_BY_CODE = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
    256: np.int8,
    512: np.uint16,
    768: np.uint32,
    1024: np.int64,
    1280: np.uint64,
}
_CODE_BY_DTYPE = {np.dtype(t): code for code, t in _DTYPE_BY_CODE.items()}


def _header_dtype(byteorder: str) -> np.dtype:
    return np.dtype(_HEADER_FIELDS).newbyteorder(byteorder)


@dataclass(frozen=True)
class VolumeHeader:
    """Decoded geometry of a 3D volume: extents, spacing, voxel-to-world map."""

    dims: tuple[int, int, int]
    pixdim: tuple[float, float, float]
    affine: np.ndarray

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) < 1 for d in self.dims):
            raise FormatError(f"dims must be three positive integers, got {self.dims}")
        if len(self.pixdim) != 3 or any(not (s > 0) for s in self.pixdim):
            raise FormatError(f"pixdim must be three positive reals, got {self.pixdim}")
        aff = np.asarray(self.affine, dtype=np.float64)
        if aff.shape != (4, 4):
            raise FormatError(f"affine must be 4x4, got shape {aff.shape}")
        if abs(np.linalg.det(aff[:3, :3])) < 1e-12:
            raise GeometryError("affine upper-left 3x3 block is singular")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "pixdim", tuple(float(s) for s in self.pixdim))
        object.__setattr__(self, "affine", aff)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VolumeHeader):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.pixdim == other.pixdim
            and np.array_equal(self.affine, other.affine)
        )


@dataclass
class Volume3D:
    """Dense 3D scalar grid with its header.

    ``data[i, j, k]`` indexes the axes in on-disk order.  The data keeps the
    memory order it was given (Fortran order when parsed, C order or any view
    when built from an array), so no caller may assume C order.  Instances are
    treated as immutable after construction and are safe to share read-only
    across workers.
    """

    header: VolumeHeader
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.shape != self.header.dims:
            raise FormatError(
                f"data shape {arr.shape} does not match header dims {self.header.dims}"
            )
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise FormatError("volume contains NaN or Inf elements")
        self.data = arr

    @classmethod
    def from_array(cls, data, pixdim=(1.0, 1.0, 1.0), affine=None) -> "Volume3D":
        data = np.asarray(data)
        if affine is None:
            affine = np.diag(list(pixdim) + [1.0])
        return cls(header=VolumeHeader(tuple(data.shape), tuple(pixdim), affine), data=data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Volume3D):
            return NotImplemented
        return (
            self.header == other.header
            and self.data.dtype == other.data.dtype
            and np.array_equal(self.data, other.data)
        )


@dataclass
class LabelMask:
    """Integer label volume plus the clinical name of each label.

    ``label_set`` (the nonzero labels present) is found once, at construction,
    from the values at the starts of the runs of equal voxels in memory order,
    with no sort of the grid.  The split of :meth:`label_coords` is made at
    most once, in memory order and then sorted to C order, so the volume must
    not change after construction.
    """

    volume: Volume3D
    label_names: dict[int, str]
    label_set: set[int] = field(init=False, repr=False, compare=False)
    _coords: dict[int, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        data = self.volume.data
        if data.dtype.kind not in "iu":
            raise FormatError(f"label mask must be integer-typed, got {data.dtype}")
        # every value present starts a run in memory order, so the run starts
        # hold all of them: a short array, found without sorting the grid
        flat = data.ravel(order="K")
        values = np.unique(np.concatenate([flat[:1], flat[1:][flat[1:] != flat[:-1]]]))
        if values[0] < 0:
            raise FormatError("label mask contains negative values")
        self.label_set = set(values.tolist()) - {0}
        missing = self.label_set - set(self.label_names)
        if missing:
            raise ConfigError(f"labels {sorted(missing)} present in mask but unnamed")

    def label_coords(self) -> dict[int, np.ndarray]:
        """Every named label's ``np.argwhere(data == label)``, from one split.

        One ``np.flatnonzero`` in the volume's memory order, then a
        ``np.lexsort`` by (label, C-order flat index), keeps each label's
        (n, 3) int64 indices in C order; an absent label gets (0, 3).
        The split is made on the first call; the arrays are read-only.
        """
        if self._coords is None:
            data = self.volume.data
            order = _memory_order(data)
            flat = data.ravel(order=order)
            nonzero = np.flatnonzero(flat != 0)  # a boolean scan is the fast one
            index = np.unravel_index(nonzero, data.shape, order=order)
            c_flat = nonzero if order == "C" else np.ravel_multi_index(index, data.shape)
            values = flat[nonzero]
            sort = np.lexsort((c_flat, values))
            coords = np.column_stack(index)[sort]
            coords.flags.writeable = False
            present, starts = np.unique(values[sort], return_index=True)
            split = dict(zip(present.tolist(), np.split(coords, starts[1:])))
            if 0 in self.label_names:  # the background, which the split leaves out
                split[0] = np.argwhere(data == 0)
                split[0].flags.writeable = False
            self._coords = {label: split.get(label, coords[:0]) for label in self.label_names}
        return dict(self._coords)


def _quaternion_affine(hdr: np.void) -> np.ndarray:
    b = float(hdr["quatern_b"])
    c = float(hdr["quatern_c"])
    d = float(hdr["quatern_d"])
    a = np.sqrt(max(0.0, 1.0 - (b * b + c * c + d * d)))
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    pixdim = np.asarray(hdr["pixdim"], dtype=np.float64)
    qfac = -1.0 if pixdim[0] < 0 else 1.0
    scales = np.array([pixdim[1], pixdim[2], qfac * pixdim[3]])
    affine = np.eye(4)
    affine[:3, :3] = rot * scales[None, :]
    affine[:3, 3] = [hdr["qoffset_x"], hdr["qoffset_y"], hdr["qoffset_z"]]
    return affine


def _decode_header(raw: bytes) -> tuple[np.void, str]:
    if len(raw) < HEADER_SIZE:
        raise TruncatedFileError(f"file shorter than the {HEADER_SIZE}-byte header")
    sizeof_le = int(np.frombuffer(raw, dtype="<i4", count=1)[0])
    sizeof_be = int(np.frombuffer(raw, dtype=">i4", count=1)[0])
    if 540 in (sizeof_le, sizeof_be):
        raise FormatError("NIfTI-2 files are not supported (NIfTI-1 only)")
    # Endianness heuristic: dim[0] (number of dimensions) must land in [1, 7].
    for order in ("<", ">"):
        ndim = int(np.frombuffer(raw[40:42], dtype=f"{order}i2")[0])
        if 1 <= ndim <= 7:
            hdr = np.frombuffer(raw[:HEADER_SIZE], dtype=_header_dtype(order))[0]
            return hdr, order
    raise FormatError("cannot determine byte order: dim[0] not in [1, 7] either way")


class _GzipStream:
    """A gzip stream of one or more members, inflated only as far as it is read.

    One inflater runs over each member, so the header can be read first and
    the payload after it without inflating anything twice.  Input that ends
    inside a member raises :class:`TruncatedFileError`; a corrupt stream,
    including a bad CRC or trailing bytes that are not a gzip member, raises
    :class:`FormatError`.
    """

    def __init__(self, raw: bytes):
        self._member = zlib.decompressobj(16 + zlib.MAX_WBITS)
        self._pending = raw  # compressed input the current member has not taken

    def read(self, n: int) -> bytearray:
        """The next ``n`` inflated bytes, or fewer where the stream ends.

        They are inflated ``_INFLATE_CHUNK`` bytes at a time into one writable
        buffer, so that a payload is held once and can be viewed in place.
        The buffer is sized up front, but not beyond what the rest of the
        input can inflate to, so a forged header cannot make it large.
        """
        out = bytearray(min(n, _DEFLATE_RATIO * len(self._pending)))
        size = 0
        try:
            while size < n:
                chunk = self._member.decompress(self._pending, min(n - size, _INFLATE_CHUNK))
                out[size : size + len(chunk)] = chunk
                size += len(chunk)
                if self._member.eof:
                    self._pending = self._member.unused_data
                    if not self._pending:
                        break
                    self._member = zlib.decompressobj(16 + zlib.MAX_WBITS)
                else:
                    self._pending = self._member.unconsumed_tail
                    if not chunk and not self._pending:
                        raise TruncatedFileError("gzip stream ends early")
        except zlib.error as exc:
            raise FormatError(f"corrupt gzip stream: {exc}") from None
        del out[size:]
        return out


def parse_nifti(raw: bytes) -> Volume3D:
    """Decode a (possibly gzip-wrapped) NIfTI-1 byte sequence.

    Raises :class:`FormatError` for bad magic / NIfTI-2 / header-image pairs,
    :class:`UnsupportedDatatypeError` for datatype codes outside the scalar
    table, and :class:`TruncatedFileError` when the payload or the gzip
    stream is short.  A corrupt gzip stream is a :class:`FormatError`.  A
    gzip stream is inflated only as far as the header declares: the header
    first, then ``vox_offset`` plus the payload and a small margin.
    """
    stream = _GzipStream(raw) if raw[:2] == GZIP_MAGIC else None
    hdr, order = _decode_header(raw if stream is None else stream.read(HEADER_SIZE))
    magic = bytes(hdr["magic"]).ljust(4, b"\x00")  # numpy strips trailing NULs
    if magic == MAGIC_PAIR:
        raise FormatError("header/image pairs (.hdr/.img) are not supported")
    if magic != MAGIC_SINGLE:
        raise FormatError(f"bad magic {magic!r}: not a NIfTI-1 single file")

    dim = np.asarray(hdr["dim"], dtype=np.int64)
    ndim = int(dim[0])
    extents = dim[1 : 1 + ndim]
    if (extents < 1).any():
        raise FormatError(f"non-positive dimension in {tuple(extents)}")
    if ndim > 3 and (extents[3:] != 1).any():
        raise FormatError(f"only 3D volumes supported, got shape {tuple(extents)}")
    dims = tuple(int(x) for x in extents[:3]) + (1,) * max(0, 3 - ndim)

    pixdim_raw = np.asarray(hdr["pixdim"], dtype=np.float64)[1:4]
    pixdim = []
    for axis, (extent, spacing) in enumerate(zip(dims, pixdim_raw)):
        if spacing > 0:
            pixdim.append(float(spacing))
        elif extent == 1:
            pixdim.append(1.0)  # padded axis, spacing unused
        else:
            raise FormatError(f"non-positive pixdim {spacing} on axis {axis}")

    code = int(hdr["datatype"])
    if code not in _DTYPE_BY_CODE:
        raise UnsupportedDatatypeError(f"unsupported NIfTI datatype code {code}")
    dtype = np.dtype(_DTYPE_BY_CODE[code]).newbyteorder(order)

    vox_offset = float(hdr["vox_offset"])
    if not np.isfinite(vox_offset):
        raise FormatError(f"vox_offset {vox_offset} is not a number of bytes")
    offset = int(round(vox_offset))
    if offset < HEADER_SIZE:
        raise FormatError(f"vox_offset {offset} overlaps the header")
    nbytes = int(np.prod(dims)) * dtype.itemsize
    if stream is not None:  # the payload follows the header already read
        raw = stream.read(offset - HEADER_SIZE + nbytes + _GZIP_MARGIN)
        offset -= HEADER_SIZE
    held = max(0, min(len(raw) - offset, nbytes))
    if held < nbytes:
        raise TruncatedFileError(f"payload holds {held} bytes, header declares {nbytes}")
    # Read in place: a slice of ``raw`` would be one more copy of the payload.
    data = np.frombuffer(raw, dtype=dtype, count=nbytes // dtype.itemsize, offset=offset)
    data = data.reshape(dims, order="F")
    if stream is None:  # the caller's bytes: a native, writable copy
        data = data.astype(dtype.newbyteorder("="))
    elif not dtype.isnative:  # the inflated buffer is ours: swap it in place
        data = data.byteswap(inplace=True).view(dtype.newbyteorder("="))

    slope = float(hdr["scl_slope"])
    inter = float(hdr["scl_inter"])
    if slope != 0.0 and (slope != 1.0 or inter != 0.0):
        data = data.astype(np.float64) * slope + inter

    if int(hdr["sform_code"]) > 0:
        affine = np.eye(4)
        affine[0] = np.asarray(hdr["srow_x"], dtype=np.float64)
        affine[1] = np.asarray(hdr["srow_y"], dtype=np.float64)
        affine[2] = np.asarray(hdr["srow_z"], dtype=np.float64)
    elif int(hdr["qform_code"]) > 0:
        affine = _quaternion_affine(hdr)
    else:
        affine = np.diag(pixdim + [1.0])

    header = VolumeHeader(dims=dims, pixdim=tuple(pixdim), affine=affine)
    return Volume3D(header=header, data=data)


def write_nifti(vol: Volume3D) -> bytes:
    """Serialize to NIfTI-1 single-file bytes (little-endian, sform only).

    ``parse_nifti(write_nifti(v))`` reproduces ``v`` exactly when the affine
    and pixdim are float32-representable (always true for parsed volumes);
    integer data round-trips bit-exactly.
    """
    dims = vol.header.dims
    if any(d > np.iinfo(np.int16).max for d in dims):
        raise CapacityError(f"dims {dims} exceed the signed 16-bit dim field")
    dtype = vol.data.dtype.newbyteorder("=")
    if dtype not in _CODE_BY_DTYPE:
        raise UnsupportedDatatypeError(f"cannot encode dtype {dtype} as NIfTI")
    code = _CODE_BY_DTYPE[dtype]

    hdr = np.zeros((), dtype=_header_dtype("<"))
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"][0] = 3
    hdr["dim"][1:4] = dims
    hdr["dim"][4:] = 1
    hdr["datatype"] = code
    hdr["bitpix"] = 8 * dtype.itemsize
    hdr["pixdim"][0] = 1.0
    hdr["pixdim"][1:4] = vol.header.pixdim
    hdr["vox_offset"] = float(VOX_OFFSET)
    hdr["scl_slope"] = 0.0
    hdr["scl_inter"] = 0.0
    hdr["sform_code"] = 1
    hdr["qform_code"] = 0
    hdr["srow_x"] = vol.header.affine[0]
    hdr["srow_y"] = vol.header.affine[1]
    hdr["srow_z"] = vol.header.affine[2]
    hdr["magic"] = MAGIC_SINGLE

    pad = b"\x00" * (VOX_OFFSET - HEADER_SIZE)  # empty extension flag
    body = np.ascontiguousarray(vol.data.astype(dtype, copy=False).reshape(-1, order="F"))
    return hdr.tobytes() + pad + body.tobytes()


def read_nifti_file(path) -> Volume3D:
    with open(path, "rb") as fh:
        return parse_nifti(fh.read())


def write_nifti_file(vol: Volume3D, path) -> None:
    raw = write_nifti(vol)
    if str(path).endswith(".gz"):
        raw = gzip.compress(raw, mtime=0)
    with open(path, "wb") as fh:
        fh.write(raw)


def conform_to_ras(
    vol: Volume3D,
    target_spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> Volume3D:
    """Reorient to RAS and resample onto an axis-aligned grid at ``target_spacing``.

    The output grid covers the physical extent of the input (voxel edges, not
    centers), so conforming an already-RAS volume at its own spacing is the
    identity and conforming is idempotent.  Sampling is nearest-neighbour, so
    label values survive exactly and the output keeps the input's datatype;
    world coordinates of corresponding voxels agree within half a voxel.

    Two sampling paths give the same bytes; the affine alone picks one:

    - An axis-aligned affine (exactly one non-zero per row and column of the
      3x3 block: a signed permutation times a positive diagonal) is
      separable.  One rounded index vector per output axis picks
      rows, columns and planes of the transposed input (a strided copy when
      every vector steps evenly, as for the identity, flips and integer
      downsampling), so memory beyond the input and the output is
      O(sum of the output dims), plus one gathered copy for uneven steps.
      The output has the input's memory order (Fortran when the input is
      Fortran-contiguous, else C), so the identity is one contiguous copy.
    - Oblique affines map every output voxel through the inverse affine, one
      slab of whole output rows (first axis) at a time, into a C-ordered
      output.  The slab's temporaries (float64 coordinates, flat indices,
      gathered values) peak near 80 bytes per voxel, over at most
      ``max(_SLAB_VOXELS, one output plane)`` voxels, so memory is the
      output plus a bound that does not grow with the grid (plus one copy
      of an input that is neither C- nor Fortran-contiguous).
    """
    return _conform([vol], target_spacing)[0]


def conform_all_to_ras(
    vols: list[Volume3D],
    target_spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> list[Volume3D]:
    """``[conform_to_ras(vol, target_spacing) for vol in vols]``, byte for byte.

    Volumes with the same dims, affine and memory order (a study's scans, as
    a rule) are conformed together: an oblique group shares one slab pass,
    whose index arithmetic is most of the cost, and gathers each volume from
    its indices.  Volumes that differ in any of the three take separate
    passes.
    """
    groups: dict[tuple, list[int]] = {}
    for n, vol in enumerate(vols):
        key = (vol.header.dims, vol.header.affine.tobytes(), _memory_order(vol.data))
        groups.setdefault(key, []).append(n)
    out: list[Volume3D] = [None] * len(vols)
    for members in groups.values():
        for n, conformed in zip(members, _conform([vols[n] for n in members], target_spacing)):
            out[n] = conformed
    return out


def _conform(vols: list[Volume3D], target_spacing) -> list[Volume3D]:
    """Every volume of ``vols``, which share dims, affine and memory order, conformed."""
    spacing = np.asarray(target_spacing, dtype=np.float64)
    if spacing.shape != (3,) or (spacing <= 0).any():
        raise GeometryError(f"target spacing must be 3 positive reals, got {target_spacing}")

    try:
        inv = np.linalg.inv(vols[0].header.affine)
    except np.linalg.LinAlgError:
        raise GeometryError("affine is not invertible") from None

    headers = [_ras_header(vol.header, spacing) for vol in vols]
    perm = _axis_permutation(inv[:3, :3])
    if perm is not None:
        outs = [_nearest_separable(vol.data, inv, perm, header)
                for vol, header in zip(vols, headers)]
    else:
        outs = _resample_slabs([vol.data for vol in vols], inv, headers[0])
    return [Volume3D(header=header, data=out) for header, out in zip(headers, outs)]


# Output voxels per slab of the general resampling path.  A slab's
# temporaries (float64 world and source coordinates, 24 bytes each, the flat
# index with its in-range part, and the gathered values) peak at 78 bytes per
# voxel under tracemalloc, so a slab stays near 2.5 MB and in cache; of 2^15
# to 2^18, 2^15 was as fast as any on an oblique 96^3 conform.
_SLAB_VOXELS = 1 << 15


def _ras_header(header: VolumeHeader, spacing: np.ndarray) -> VolumeHeader:
    """RAS grid at ``spacing`` covering the voxel-extent box of ``header``, same datatype."""
    affine = header.affine
    dims = np.asarray(header.dims, dtype=np.float64)
    lows, highs = -0.5 * np.ones(3), dims - 0.5  # voxel-extent box, not centers
    corners = np.array(
        [[highs[a] if bits[a] else lows[a] for a in range(3)] for bits in np.ndindex(2, 2, 2)]
    )
    world = (affine[:3, :3] @ corners.T).T + affine[:3, 3]
    wmin = world.min(axis=0)
    wmax = world.max(axis=0)
    span = wmax - wmin
    out_dims = np.maximum(1, np.rint(span / spacing).astype(int))

    out_affine = np.eye(4)
    out_affine[:3, :3] = np.diag(spacing)
    out_affine[:3, 3] = wmin + spacing / 2.0  # center of the first output voxel
    return VolumeHeader(
        dims=tuple(int(d) for d in out_dims),
        pixdim=tuple(float(s) for s in spacing),
        affine=out_affine,
    )


def _axis_permutation(inv3: np.ndarray) -> np.ndarray | None:
    """``perm[a]``: the input axis that output axis ``a`` reads, if the map is axis-aligned.

    ``None`` unless ``inv3`` has exactly one non-zero per row and column.
    """
    nonzero = inv3 != 0
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        return nonzero.argmax(axis=0)
    return None


def _nearest_separable(
    data: np.ndarray, inv: np.ndarray, perm: np.ndarray, header: VolumeHeader
) -> np.ndarray:
    """Nearest sampling through an axis-aligned ``inv``, one index vector per axis.

    Each input coordinate depends on one output coordinate, and the zero
    entries of ``inv`` add exact zeros in the general path's product, so
    ``rint(inv[r, a] * world_a + inv[r, 3])`` is bit for bit its index.
    """
    spacing = np.diag(header.affine)[:3]
    origin = header.affine[:3, 3]
    # the input's memory order, so that the identity is one contiguous copy
    out = np.zeros(header.dims, dtype=data.dtype, order="F" if data.flags.f_contiguous else "C")
    inside, runs = [], []
    for a, axis in enumerate(perm):
        world = np.arange(header.dims[a], dtype=np.float64) * spacing[a] + origin[a]
        idx = np.rint(inv[axis, a] * world + inv[axis, 3]).astype(np.int64)
        # idx is monotonic along the axis, so its in-range entries form one run
        hits = np.flatnonzero((idx >= 0) & (idx < data.shape[axis]))
        if hits.size == 0:
            return out
        inside.append(slice(hits[0], hits[-1] + 1))
        runs.append(idx[hits])
    source = data.transpose(perm)
    strides = [_as_slice(run) for run in runs]
    # identity, flips and integer downsampling copy through strided views;
    # np.ix_ on parsed (Fortran-ordered) volumes measured three times slower
    if all(s is not None for s in strides):
        out[tuple(inside)] = source[tuple(strides)]
    else:
        out[tuple(inside)] = source[np.ix_(*runs)]
    return out


def _as_slice(run: np.ndarray) -> slice | None:
    """``run`` as a basic slice when it steps by one non-zero constant, else ``None``."""
    step = int(run[1] - run[0]) if run.size > 1 else 1
    if step == 0 or (np.diff(run) != step).any():
        return None
    stop = int(run[-1]) + step
    return slice(int(run[0]), stop if stop >= 0 else None, step)


def _resample_slabs(
    datas: list[np.ndarray], inv: np.ndarray, header: VolumeHeader
) -> list[np.ndarray]:
    """Nearest sampling through any ``inv`` of arrays of one shape and memory order.

    One slab of output rows at a time: the slab's world coordinates are
    broadcast from the three output axis vectors into a ``(3, N)`` array,
    mapped by one matmul with ``inv`` and rounded; an index inside the input
    on every axis becomes one flat index in the arrays' memory order, which
    gathers every array with one ``take``.  Each voxel's coordinate is the
    full-grid ``rint(inv[:3, :3] @ world + inv[:3, 3])``, so the bytes do
    not depend on the slab size or on how many arrays share the pass.
    """
    nx, ny, nz = header.dims
    spacing = np.diag(header.affine)[:3]
    origin = header.affine[:3, 3]
    axes = [np.arange(n, dtype=np.float64) * spacing[a] + origin[a]
            for a, n in enumerate(header.dims)]
    shape = datas[0].shape
    order = _memory_order(datas[0])
    flats = [data.ravel(order=order) for data in datas]
    # element steps of each input axis in the flat order; every term of the
    # flat index is an integer below 2^53, so its float sum is exact
    steps = np.array([1, shape[0], shape[0] * shape[1]] if order == "F"
                     else [shape[1] * shape[2], shape[2], 1], dtype=np.float64)
    highest = np.array(shape, dtype=np.float64)[:, None] - 1
    outs = [np.zeros(header.dims, dtype=data.dtype) for data in datas]
    rows = max(1, _SLAB_VOXELS // (ny * nz))
    for i0 in range(0, nx, rows):
        i1 = min(nx, i0 + rows)
        world = np.empty((3, i1 - i0, ny, nz))
        world[0] = axes[0][i0:i1, None, None]
        world[1] = axes[1][:, None]
        world[2] = axes[2]
        src = inv[:3, :3] @ world.reshape(3, -1)
        src += inv[:3, 3:]
        np.rint(src, out=src)
        inside = ((src >= 0) & (src <= highest)).all(axis=0)
        index = (steps @ src)[inside].astype(np.intp)
        for flat, out in zip(flats, outs):
            out[i0:i1].reshape(-1)[inside] = flat.take(index)
    return outs


def _memory_order(data: np.ndarray) -> str:
    """``"F"`` for an array contiguous in Fortran order only, else ``"C"``.

    An explicit order for both ravel and unravel: ``"K"`` on a flipped or
    strided view matches neither.
    """
    return "F" if data.flags.f_contiguous and not data.flags.c_contiguous else "C"
