import struct

import pytest

from tdfenc import (
    load_codebook,
    load_gmm_model,
    load_pca_model,
    load_svm_model,
    load_video_vector,
    read_feature_sequence,
)
from tdfenc.errors import FormatError

MAX_U32 = 0xFFFFFFFF

# (loader, file bytes): each header declares the largest sizes its fields hold,
# and the file ends a few bytes after it
HOSTILE_HEADERS = {
    "TDFE": (read_feature_sequence, b"TDFE" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
    "TDFP": (load_pca_model, b"TDFP" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
    "TDFC": (load_codebook, b"TDFC" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
    "TDFG": (load_gmm_model, b"TDFG" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
    "TDFV": (load_video_vector, b"TDFV" + struct.pack("<IBBI", 1, 4, 2, MAX_U32)),
    "TDFM": (load_svm_model, b"TDFM" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
}


@pytest.mark.parametrize("magic", sorted(HOSTILE_HEADERS))
def test_header_sizes_beyond_the_file_are_corrupt(tmp_path, magic):
    loader, header = HOSTILE_HEADERS[magic]
    path = tmp_path / f"hostile.{magic.lower()}"
    path.write_bytes(header + b"\x00" * 8)
    with pytest.raises(FormatError, match="corrupt file.*expected .* more bytes"):
        loader(path)
