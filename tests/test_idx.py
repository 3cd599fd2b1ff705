import struct

import numpy as np
import pytest

from conftest import write_idx_pair
from unrectify import IdxFormatError, load_idx


def test_roundtrip_synthetic_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8)
    labels = [3, 7]
    img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
    data = load_idx(img_path, lbl_path)
    assert len(data) == 2
    assert data.labels.tolist() == labels
    assert np.array_equal(data.images, images.reshape(2, 784) / 255.0)
    assert data.images.min() >= 0.0 and data.images.max() <= 1.0


def test_wrong_magic_reports_offset(tmp_path):
    img = tmp_path / "img"
    img.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 28, 28) + bytes(784))
    lbl = tmp_path / "lbl"
    lbl.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
    with pytest.raises(IdxFormatError, match="offset 0"):
        load_idx(img, lbl)


def test_truncated_pixels_reports_offset(tmp_path):
    img = tmp_path / "img"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + bytes(784))
    lbl = tmp_path / "lbl"
    lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(2))
    with pytest.raises(IdxFormatError, match="offset 800"):
        load_idx(img, lbl)


def test_count_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, [1, 2, 3])
    bad_lbl = tmp_path / "bad"
    bad_lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(2))
    with pytest.raises(IdxFormatError, match="2 labels for 3 images"):
        load_idx(img_path, bad_lbl)


def test_wrong_image_shape_rejected(tmp_path):
    img = tmp_path / "img"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 1, 14, 14) + bytes(196))
    lbl = tmp_path / "lbl"
    lbl.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
    with pytest.raises(IdxFormatError, match="28x28"):
        load_idx(img, lbl)


def test_truncated_labels_report_offset(tmp_path):
    img = tmp_path / "img"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + bytes(2 * 784))
    lbl = tmp_path / "lbl"
    lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(1))
    with pytest.raises(IdxFormatError, match=r"truncated label data, file ends at offset 9 \(need 10\)$"):
        load_idx(img, lbl)
