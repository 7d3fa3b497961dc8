"""Arbitrary bytes into each reader of outside input: a PGM/PPM image, an
image directory (its magic pre-pass, then the read), a tvec record as
bytes and as a file, a checkpoint, a feature manifest and a run config. Each
either parses or refuses with a FeatmimError, which the CLI turns into
exit 2, 3 or 4; any other exception would be a traceback. Inputs start
from each format's magic or a valid prefix so that they get past it."""

import json
import struct

from conftest import DEEP_JSON
from hypothesis import example, given, settings
from hypothesis import strategies as st

from featmim.config import load_run_config
from featmim.errors import FeatmimError
from featmim.imageio import load_images, read_pnm
from featmim.model import CHECKPOINT_MAGIC, ModelConfig, load_checkpoint
from featmim.teacher import FileTeacher
from featmim.tensor import TVEC_MAGIC, TVEC_VERSION, read_tvec, tvec_from_bytes

_HEADER = json.dumps({"version": 2, "config": ModelConfig()._asdict(), "n_patches": 16,
                      "in_channels": 3}, sort_keys=True).encode()
_CHECKPOINT = CHECKPOINT_MAGIC + struct.pack("<I", len(_HEADER)) + _HEADER


def _weights_record(*extents):
    """A checkpoint through its weights record's extents, before the payload."""
    return (_CHECKPOINT + TVEC_MAGIC + bytes([TVEC_VERSION, 0, len(extents)])
            + struct.pack(f"<{len(extents)}Q", *extents))


# kind -> (reader of a path, file name, prefixes the fuzzed bytes follow)
READERS = {
    "pnm": (read_pnm, "fuzz.pnm",
            [b"", b"P5", b"P6", b"P5 2 2 255\n", b"P6 1 1 7\n", b"P5\n# c\n3 1 255 "]),
    "tvec": (lambda path: tvec_from_bytes(path.read_bytes()), "fuzz.tvec",
             [b"", TVEC_MAGIC, TVEC_MAGIC + bytes([TVEC_VERSION, 0]),
              TVEC_MAGIC + bytes([TVEC_VERSION, 0, 2]) + struct.pack("<2Q", 2, 1)]),
    "checkpoint": (load_checkpoint, "fuzz.bin",
                   [b"", CHECKPOINT_MAGIC, _CHECKPOINT, _CHECKPOINT + TVEC_MAGIC,
                    # the default model's 47,520 weights, or a record short enough to fill
                    _weights_record(47_520), _weights_record(2), _weights_record(2, 3)]),
    "manifest": (lambda path: FileTeacher(str(path.parent)), "manifest.json",
                 [b"", b"{", b'{"target_dim": 4, "entries": [{"id": ',
                  b'{"target_dim": 4, "entries": [{"id": "a", "grid_side": ']),
    "config": (load_run_config, "fuzz.json",
               [b"", b"{", b'{"train": {"seed": ', b'{"model": {"embed_dim": 4, ',
                b'{"teacher": {"kind": "file", "features_dir": ']),
    # the only .pgm/.ppm file of its directory
    "image_dir": (lambda path: load_images(path.parent), "fuzz.ppm",
                  [b"", b"P5", b"P6", b"P6 1 1 255\n", b"P5 2 1 9\n"]),
}
# the file reader, bounded by the file's size before it allocates
READERS["tvec_file"] = (read_tvec, "fuzz.tvec", READERS["tvec"][2])


def cases(kind):
    prefixed = st.tuples(st.sampled_from(READERS[kind][2]), st.binary(max_size=48))
    return st.tuples(st.just(kind), prefixed.map(b"".join))


@settings(max_examples=420, deadline=None)  # 60 per reader
@given(st.sampled_from(sorted(READERS)).flatmap(cases))
# a deeply nested checkpoint header is pinned, message and all, in test_model
@example(("manifest", DEEP_JSON))
@example(("config", DEEP_JSON))
def test_readers_parse_or_refuse_arbitrary_bytes(tmp_path_factory, case):
    kind, blob = case
    read, name, _ = READERS[kind]
    path = tmp_path_factory.getbasetemp() / "fuzz" / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(blob)
    try:
        read(path)
    except FeatmimError:
        pass
