"""The input contract, fuzzed: a mutated input either runs or fails naming its file and line.

Each test starts from a valid file, applies one to three mutations (truncate,
flip or insert bytes, duplicate, drop or swap lines, put a special value in
place of a field) and runs the CLI stage that reads it. The stage exits 0,
or exits 1 with exactly one ERROR record that starts ``path: line N: ``
(a WAV or an error about a whole file: ``path: ``) and
leaves no output file behind.

The command line is fuzzed the same way: one numeric flag of a valid argv
gets a special or drawn value. The stage exits 0 with its outputs, 1 with
one ERROR record naming the flag (or showing its value) and no output, or
2 (a usage error), within a wall-clock bound and without a traceback.
"""

import contextlib
import json
import os
import re
import signal
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stforge.cli import main
from stforge.sampler import MANIFEST_COLUMNS
from stforge.segmenter import Segment, write_segments_yaml

FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

SPECIAL_VALUES = (b"nan", b"inf", b"true", b"-1", b"1e400", b"9" * 400)
INSERTED_BYTES = (b"\xff", b"\xc3", b"\x00", b"\t", b"\n", b" ", b'"', b"\\", b"{", b"0")
FIELD = re.compile(rb'[^\t\n{}\[\],:" ]+')  # a TSV field, or a JSON scalar or key without its quotes


@st.composite
def mutations(draw, valid: bytes) -> bytes:
    data = valid
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "insert", "duplicate", "drop", "swap", "special"]))
        lines = data.split(b"\n")
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        if kind == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        elif kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
        elif kind == "insert":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from(INSERTED_BYTES)) + data[at:]
        elif kind == "duplicate":
            data = b"\n".join(lines[:j] + [lines[i]] + lines[j:])
        elif kind == "drop":
            data = b"\n".join(lines[:i] + lines[i + 1 :])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
        elif kind == "special" and (fields := list(FIELD.finditer(data))):
            field = fields[draw(st.integers(0, len(fields) - 1))]
            data = data[: field.start()] + draw(st.sampled_from(SPECIAL_VALUES)) + data[field.end() :]
    return data


def run_stage(caplog, argv, path, outputs, prefix=r"line \d+: ", other=None):
    """main(argv) exits 0, or 1 with one ERROR record starting path: prefix (or matching other) and no output file."""
    caplog.clear()
    rc = main(argv)
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    if rc == 0:
        assert not errors
        return
    assert rc == 1 and len(errors) == 1, (rc, errors)
    assert re.match(re.escape(f"{path}: ") + prefix, errors[0]) or (other and re.match(other, errors[0])), errors[0]
    assert_no_outputs(outputs)


def assert_no_outputs(outputs):
    for out in outputs:
        assert not os.path.isfile(out) and not (os.path.isdir(out) and os.listdir(out)), out


MANIFEST = "\n".join(
    ["\t".join(MANIFEST_COLUMNS)]
    + [f"u{i}\tu{i}.wav\t{16000 + 1000 * i}\t{3 + i}\t{split}\tHallo Welt {i}\tHello world {i}"
       for i, split in enumerate(["MuST-C-train", "CoVoST-train", "CoVoST-dev", "EuroparlST-train"])]
).encode() + b"\n"
HYPS = b"".join(f"u{i}\thallo welt {i}\n".encode() for i in range(4))
TRANSCRIPTS = b"".join(
    json.dumps({"audio": f"t{i}.wav", "frame_ms": 20, "tokens": ["ja"] * 20 + [""] * 12 + ["|", "so"] * 8}).encode()
    + b"\n"
    for i in range(3)
)


SEGMENTS = write_segments_yaml(
    [Segment("t0.wav", 0.0, 2.5, "t0"), Segment("t0.wav", 2.5, 1.75, "t0"), Segment("t1.wav", 0.0, 3.0, "t1")]
).encode()
TRANSLATIONS = "das ist gut\nja , so\nnoch ein Satz .\n".encode()
REFS = "das ist gut ja\n, so noch\nein Satz .\n".encode()
COUNT_MISMATCH = r"\d+ translations for \d+ segments$"  # a segment list and its translations disagree


def small_wav() -> bytes:
    ints = np.round(8000 * np.sin(np.arange(480) / 3.0)).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(ints)) + ints
    return b"RIFF" + struct.pack("<I", len(body)) + body


@FUZZ
@given(data=mutations(MANIFEST))
def test_manifest_via_sample(caplog, data):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "m.tsv"), os.path.join(tmp, "epoch.tsv")
        with open(path, "wb") as fh:
            fh.write(data)
        run_stage(caplog, ["sample", "--manifest", path, "--out", out], path, [out])


@FUZZ
@given(data=mutations(HYPS))
def test_hypotheses_via_filter(caplog, data):
    with tempfile.TemporaryDirectory() as tmp:
        manifest, path = os.path.join(tmp, "m.tsv"), os.path.join(tmp, "hyps.tsv")
        outs = [os.path.join(tmp, "kept.tsv"), os.path.join(tmp, "report.tsv")]
        for name, content in ((manifest, MANIFEST), (path, data)):
            with open(name, "wb") as fh:
                fh.write(content)
        # a manifest id with no hypothesis is named at its manifest line
        missing = re.escape(f"{manifest}: ") + r"line \d+: no ASR hypothesis for id 'u\d' in " + re.escape(path) + "$"
        run_stage(caplog, ["filter", "--manifest", manifest, "--asr-hyps", path, "--out", outs[0],
                           "--report", outs[1]], path, outs, other=missing)


@FUZZ
@given(data=mutations(TRANSCRIPTS))
def test_frame_transcripts_via_segment(caplog, data):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "frames.jsonl"), os.path.join(tmp, "segments.yaml")
        with open(path, "wb") as fh:
            fh.write(data)
        run_stage(caplog, ["segment", "--transcripts", path, "--max-seg-len", "0.5", "--min-gap", "0.2",
                           "--out", out], path, [out])


@FUZZ
@given(data=mutations(small_wav()))
def test_wav_via_augment(caplog, data):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "clip.wav"), os.path.join(tmp, "aug")
        with open(path, "wb") as fh:
            fh.write(data)
        run_stage(caplog, ["--seed", "3", "augment", "--in", path, "--p-aug", "1", "--out", out], path, [out],
                  prefix="")


def sweep_score_files(tmp, segments=SEGMENTS, translations=TRANSLATIONS, refs=REFS):
    """Write sweep-score's three inputs under tmp; return their paths, its argv and its output path."""
    segdir, trans = os.path.join(tmp, "segs"), os.path.join(tmp, "trans")
    paths = {"segments": os.path.join(segdir, "max_seg_len_5.yaml"),
             "translations": os.path.join(trans, "max_seg_len_5.txt"), "refs": os.path.join(tmp, "ref.txt")}
    for path, content in zip(paths.values(), (segments, translations, refs)):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(content)
    out = os.path.join(tmp, "curve.tsv")
    return paths, ["sweep-score", "--segdir", segdir, "--trans", trans, "--ref", paths["refs"], "--out", out], out


@FUZZ
@given(data=mutations(SEGMENTS))
def test_segment_yaml_via_sweep_score(caplog, data):
    # a dropped line shows in the translation count, an error about the translations file
    with tempfile.TemporaryDirectory() as tmp:
        paths, argv, out = sweep_score_files(tmp, segments=data)
        run_stage(caplog, argv, paths["segments"], [out],
                  other=re.escape(f"{paths['translations']}: ") + COUNT_MISMATCH)


@FUZZ
@given(data=mutations(TRANSLATIONS))
def test_translations_via_sweep_score(caplog, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths, argv, out = sweep_score_files(tmp, translations=data)
        run_stage(caplog, argv, paths["translations"], [out], prefix=rf"(line \d+: |{COUNT_MISMATCH})")


@FUZZ
@given(data=mutations(REFS))
def test_references_via_sweep_score(caplog, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths, argv, out = sweep_score_files(tmp, refs=data)
        run_stage(caplog, argv, paths["refs"], [out])


@FUZZ
@pytest.mark.parametrize("resegment", [False, True])
@given(data=mutations(TRANSLATIONS))
def test_hypotheses_via_score(caplog, resegment, data):
    # without --resegment, a line count other than the references' is an error about the whole file
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = os.path.join(tmp, "hyp.txt"), os.path.join(tmp, "ref.txt")
        for name, content in ((path, data), (ref, REFS)):
            with open(name, "wb") as fh:
                fh.write(content)
        run_stage(caplog, ["score", "--hyp", path, "--ref", ref] + ["--resegment"] * resegment, path, [],
                  prefix=r"(line \d+: |\d+ hypothesis lines vs \d+ references; )")


# Numeric flags: a valid argv per subcommand on small inputs, with one flag's value replaced.
FLAG_VALUES = ("nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e-300", "1e300", "1e306", "1e308",
               "1e400", "9" * 400, "-" + "9" * 400, "ten", "")
FLAG_FUZZ = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
FLAG_SECONDS = 10  # an example running longer than this is a hang


def flag_argvs(tmp):
    """{command: (argv, output paths)} of valid runs on small inputs written under tmp."""
    files = {"frames.jsonl": TRANSCRIPTS, "m.tsv": MANIFEST, "hyps.tsv": HYPS, "clip.wav": small_wav()}
    for name, content in files.items():
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(content)
    frames, manifest, hyps, wav, out, report = (os.path.join(tmp, name) for name in
                                                 (*files, "out", "report.tsv"))
    return {
        "segment": (["segment", "--transcripts", frames, "--max-seg-len", "0.5", "--min-gap", "0.2",
                     "--out", out], [out]),
        "sweep": (["sweep", "--transcripts", frames, "--lo", "0.5", "--hi", "1.5", "--step", "0.25",
                   "--min-gap", "0.2", "--out", out], [out]),
        "filter": (["filter", "--manifest", manifest, "--asr-hyps", hyps, "--wer-threshold", "0.5",
                    "--max-samples", "480000", "--out", out, "--report", report], [out, report]),
        "augment": (["augment", "--in", wav, "--p-aug", "1", "--tempo", "0.9", "1.1", "--pitch", "-100", "100",
                     "--echo-delay", "10", "50", "--echo-decay", "0.1", "0.5", "--out", out], [out]),
        "sample": (["sample", "--manifest", manifest, "--epoch", "1", "--out", out], [out]),
        "batch": (["batch", "--in", manifest, "--max-batch", "480000", "--out", out], [out]),
    }


# (command, flag, which of the flag's values); --seed is global and goes before the command
NUMERIC_FLAGS = [
    ("segment", "--max-seg-len", 0), ("segment", "--min-gap", 0),
    ("sweep", "--lo", 0), ("sweep", "--hi", 0), ("sweep", "--step", 0), ("sweep", "--min-gap", 0),
    ("filter", "--wer-threshold", 0), ("filter", "--max-samples", 0),
    ("augment", "--p-aug", 0), ("augment", "--tempo", 0), ("augment", "--tempo", 1),
    ("augment", "--pitch", 0), ("augment", "--pitch", 1), ("augment", "--echo-delay", 0),
    ("augment", "--echo-delay", 1), ("augment", "--echo-decay", 0), ("augment", "--echo-decay", 1),
    ("sample", "--epoch", 0), ("batch", "--max-batch", 0),
] + [(command, "--seed", 0) for command in ("segment", "sweep", "filter", "augment", "sample", "batch")]


class Overran(BaseException):
    """Raised on SIGALRM; not an Exception, so main cannot report a hang as exit 1."""


def run_bounded(argv) -> int:
    def overran(signum, frame):
        raise Overran(f"{argv} ran over {FLAG_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(FLAG_SECONDS)
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def names_flag(message: str, flag: str, value: str) -> bool:
    """True when an error names the flag's key (sweep's --lo and --hi are max_seg_len values) or shows its value."""
    names = [flag[2:].replace("-", "_")] + ["max_seg_len"] * (flag in ("--lo", "--hi"))
    with contextlib.suppress(ValueError):
        names.append(re.escape(repr(float(value))))
    return any(re.search(rf"(?<![a-z]){name}", message) for name in names)


def with_flag_values(test):
    """Run test on every FLAG_VALUES entry, then on drawn floats and integers."""
    test = given(value=st.sampled_from(FLAG_VALUES) | st.floats().map(repr) | st.integers().map(str))(test)
    for value in FLAG_VALUES:
        test = example(value=value)(test)
    return FLAG_FUZZ(test)


@pytest.mark.parametrize("command, flag, index", NUMERIC_FLAGS)
@with_flag_values
def test_numeric_flag(caplog, capsys, command, flag, index, value):
    with tempfile.TemporaryDirectory() as tmp:
        argv, outputs = flag_argvs(tmp)[command]
        if flag == "--seed":
            argv = ["--seed", value] + argv
        else:
            argv[argv.index(flag) + 1 + index] = value
        caplog.clear()
        rc = run_bounded(argv)
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err + caplog.text
        assert rc in (0, 1, 2), rc
        if rc == 0:
            assert not errors and all(os.path.exists(out) for out in outputs)
            return
        if rc == 1:
            assert len(errors) == 1 and names_flag(errors[0], flag, value), errors
        assert_no_outputs(outputs)
