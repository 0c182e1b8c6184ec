"""Core data types: recordings, marker streams, trial epochs, and their CSV I/O.

Recording CSV: UTF-8, header ``time_s,<ch1>,<ch2>,...``, one row per sample,
dot-decimal floats. Marker CSV: header ``time_s,label``. Floats are written
with Python's shortest round-trip representation, so save/load round-trips
are bit-exact. A channel name may hold no comma, line break or unpaired
surrogate. The recording writer puts each cell's separator into its text
and writes a 4,096-row block with one join. A regular clock (times bit-equal
to k / fs from k = 0, at a whole rate of 2s and 5s up to 10 kHz, each time a
decimal of at most 15 digits) is written from the integers k // fs and k %
fs. A column whose every value is k / 2**e for a whole k of bounded range (a
synthetic recording's samples on the ADC grid) is written from one text per
k that occurs in the recording; any other column formats each distinct value
of a block once. The bytes are those of formatting every cell. Sample times
must be evenly spaced to within 1 %. A recording body is parsed by numpy's
reader, given the file's path; the per-row parser runs only to name a bad
row, and both read every file to the same bits or the same error.

`read_json` and `json_text` are the one JSON decoder and encoder; `json_value`
is the readers' typed-key check, `json_task` a task's definition in a manifest
or report, and `check_label` the character rule of a channel name or subject.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, ParseError, check_finite, check_finite_fields
from .stimgen import PARADIGMS

MARKER_BASELINE = "baseline_start"
MARKER_ONSET = "trial_onset"
MARKER_OFFSET = "trial_offset"
TRIAL_S = 5.0  # a task's trial window where a protocol, manifest or report states none

# trial_onset:<paradigm>:<freq_hz> / trial_offset:<paradigm>:<freq_hz> / baseline_start,
# where freq_hz is an unsigned decimal float literal
_LABEL_RE = re.compile(
    r"^(baseline_start|(trial_onset|trial_offset):[A-Za-z0-9_]+:"
    r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?)$"
)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


_JSON_NAMES = {
    int: "integer", float: "finite number", str: "string", list: "array", dict: "object"
}


def _is_json(value, kind) -> bool:
    # JSON keeps booleans apart from numbers, Python counts them as integers
    if isinstance(value, bool):
        return False
    if kind is float:
        # false for NaN, infinities and integers too large for a float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def read_json(path):
    """The JSON document in the file at path; errors name the file once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # str(exc) would name the file a second time
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, an over-long int, too deep
        raise InputError(f"{path}: cannot read JSON: {exc}") from None


def json_text(doc) -> str:
    """doc as JSON text: sorted keys, indent 2, no NaN, a final line break."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def check_label(label: str, what: str, separator: str, holder: str) -> str:
    """label once it holds no separator, line break or lone surrogate (no UTF-8)."""
    found = re.search(f"[{re.escape(separator)}\n\r\ud800-\udfff]", label)
    if found:
        raise InputError(f"{what} {label!r} holds {found[0]!r}, which {holder} cannot hold")
    return label


def json_value(obj: dict, key: str, kind, where: str, item=None, required=True):
    """obj[key] once it has the JSON type kind, and every element (or object
    value) the type item; None when an optional key is absent.

    float stands for a finite number, integers included. Errors name where
    and the key.
    """
    if key not in obj:
        if required:
            raise InputError(f"{where}: missing key {key!r}")
        return None
    value = obj[key]
    if not _is_json(value, kind):
        raise InputError(
            f"{where}: {key} must be a JSON {_JSON_NAMES[kind]}, got {value!r}"
        )
    elements = value.values() if isinstance(value, dict) else value
    if item is not None and not all(_is_json(v, item) for v in elements):
        raise InputError(
            f"{where}: every element of {key} must be a JSON {_JSON_NAMES[item]}"
        )
    return value


def json_task(obj: dict, where: str) -> tuple[int, str, tuple[float, ...], float]:
    """The definition (task, paradigm, targets, trial_s) of a manifest or
    report task entry, which every row of one task number must share;
    trial_s is TRIAL_S when absent. Errors name where, the task and the key."""
    task = json_value(obj, "task", int, where)
    at = f"{where}, task {task}"
    paradigm = json_value(obj, "paradigm", str, at)
    if paradigm not in PARADIGMS:
        raise InputError(f"{at}: unknown paradigm {paradigm!r}")
    targets = tuple(float(f) for f in json_value(obj, "targets", list, at, item=float))
    trial_s = json_value(obj, "trial_s", float, at, required=False)
    return task, paradigm, targets, TRIAL_S if trial_s is None else float(trial_s)


@dataclass(frozen=True)
class ChannelLayout:
    """Ordered channel labels."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise InputError("channel layout must have at least one channel")
        if len(set(self.names)) != len(self.names):
            raise InputError(f"duplicate channel names in layout: {self.names}")
        for name in self.names:
            check_label(name, "channel name", ",", "a recording CSV header")
        object.__setattr__(self, "names", tuple(self.names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown channel {name!r}; have {self.names}") from None

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Recording:
    """Multichannel time series in microvolts, channels x samples."""

    sample_rate_hz: float
    layout: ChannelLayout
    samples: np.ndarray
    # Timestamps as loaded from file, kept verbatim so save(load(f)) == f.
    times_s: np.ndarray | None = None

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if samples.shape[0] != len(self.layout):
            raise InputError(
                f"samples have {samples.shape[0]} rows but layout has "
                f"{len(self.layout)} channels"
            )
        check_finite_fields(self, positive=("sample_rate_hz",))
        if not np.all(np.isfinite(samples)):
            raise InputError("recording samples must be finite")
        object.__setattr__(self, "samples", _readonly(samples))
        if self.times_s is not None:
            times = np.asarray(self.times_s, dtype=np.float64)
            if times.shape != (samples.shape[1],):
                raise InputError("times_s length must match sample count")
            if not np.all(np.isfinite(times)):
                raise InputError("times_s must be finite")
            late = np.diff(times) <= 0
            if np.any(late):
                i = int(np.argmax(late)) + 1
                raise InputError(f"times_s must increase, but sample {i} is not "
                                 f"after sample {i - 1}")
            object.__setattr__(self, "times_s", _readonly(times))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def t0(self) -> float:
        """Time of the first sample: the first timestamp, 0.0 without them."""
        return float(self.times_s[0]) if self.times_s is not None and self.n_samples else 0.0

    def sample_index(self, t: float) -> int:
        """The sample nearest time t, capped at n_samples + 1 either side so
        an overflowing product never reaches round()."""
        cap = self.n_samples + 1.0
        return round(min(max((t - self.t0) * self.sample_rate_hz, -cap), cap))

    def times(self) -> np.ndarray:
        if self.times_s is not None:
            return self.times_s
        return np.arange(self.n_samples) / self.sample_rate_hz

    def channel(self, name: str) -> np.ndarray:
        return self.samples[self.layout.index(name)]


@dataclass(frozen=True)
class MarkerStream:
    """Ordered (time_s, label) events; labels follow the declared vocabulary."""

    events: tuple[tuple[float, str], ...]

    def __post_init__(self):
        events = tuple((float(t), str(label)) for t, label in self.events)
        times = [t for t, _ in events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise InputError("marker times must be non-decreasing")
        for t, label in events:
            if not _LABEL_RE.match(label):
                raise InputError(f"marker label {label!r} not in vocabulary")
        object.__setattr__(self, "events", events)

    def with_prefix(self, prefix: str) -> list[tuple[float, str, float]]:
        """Events whose label starts with prefix, as (time, paradigm, freq_hz)."""
        out = []
        for t, label in self.events:
            parts = label.split(":")
            if parts[0] != prefix:
                continue
            if len(parts) != 3:
                raise InputError(f"label {label!r} does not encode a target")
            out.append((t, parts[1], float(parts[2])))
        return out


@dataclass(frozen=True)
class TrialEpoch:
    """One stimulation trial: condition, target frequency, channels x samples."""

    condition: str
    target_freq_hz: float
    samples: np.ndarray
    sample_rate_hz: float
    onset_s: float

    def __post_init__(self):
        check_finite_fields(self, positive=("target_freq_hz", "sample_rate_hz"))
        samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        object.__setattr__(self, "samples", _readonly(samples))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def replace_samples(self, samples: np.ndarray) -> "TrialEpoch":
        return replace(self, samples=samples)


def _fmt(x: float) -> str:
    # Shortest round-trip decimal form; the canonical formatter for all CSVs.
    return repr(float(x))


# rows formatted at once; bounds the text built at once (~340 kB at 4 channels)
_BLOCK_ROWS = 4096

_NEG_ZERO = 1 << 63  # the bit pattern of -0.0

# numpy's reader strips these characters around a number as whitespace,
# float() does not
_READER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _clock_fractions(n: int, fs: float) -> np.ndarray | None:
    """The text after the whole seconds of repr(k / fs), indexed by k % fs,
    for every k < n; None where the rule below does not hold.

    fs must be a whole number with 10**d / fs a whole number m, so k / fs is
    the double nearest the decimal k * m / 10**d. With k * m < 10**15 that
    decimal has at most 15 significant digits, so it is the shortest text
    that reads back to the double: repr's. Above 10 kHz repr writes 1 / fs
    in exponent form.
    """
    if not (float(fs).is_integer() and 1 <= fs <= 10_000):
        return None
    fs = int(fs)
    # a rate up to 10 kHz made of 2s and 5s divides 10**13 (8192 = 2**13)
    d = next((d for d in range(14) if 10**d % fs == 0), None)
    if d is None or (n - 1) * (m := 10**d // fs) >= 10**15:
        return None
    return np.array(
        ["." + (str(r * m).rjust(d, "0").rstrip("0") or "0") for r in range(fs)], dtype=object
    )


def _distinct_text(block: np.ndarray, sep: str) -> np.ndarray:
    """sep + repr of each cell of block, formatting each distinct value once."""
    # keyed on bit patterns, which keep 0.0 and -0.0 apart
    bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
    text = np.array([sep + _fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(block.shape)]


def _grid_exponent(values: np.ndarray) -> int | None:
    """The least e for which every value is k / 2**e with k whole, read from
    the values' bits a block at a time; None when a value is -0.0, which k = 0
    would write as 0.0."""
    low = 1075  # above the lowest set bit 2**low of any nonzero double
    for start in range(0, len(values), _BLOCK_ROWS):
        block = values[start : start + _BLOCK_ROWS]
        if np.any(block.view(np.uint64) == _NEG_ZERO):
            return None
        # block = j * 2**(p - 53) with j whole, and j & -j = 2**(t - 1) is
        # j's lowest set bit
        m, p = np.frexp(block)
        j = np.ldexp(m, 53).astype(np.int64)
        t = np.frexp((j & -j).astype(np.float64))[1]
        low = min(low, int(np.min(p + t - 54, where=j != 0, initial=low)))
    return -low


def _column_text(values: np.ndarray, sep: str) -> Callable[[int, int], np.ndarray]:
    """A function of (start, stop) giving sep + repr of each cell of
    values[start:stop], a block of at most _BLOCK_ROWS rows.

    When every value is k / 2**e for a whole k (no -0.0, |k| < 2**53, and the
    k range no wider than the cell count), each k that occurs is formatted
    once, here, and a block is looked up by k - lo: scaling by a power of two
    is exact, so that text is repr of the same double. Otherwise each block
    formats its distinct values.
    """
    e = _grid_exponent(values) if values.size else None
    if e is not None:
        with np.errstate(over="ignore"):  # an overflow reads inf, past the bound
            lo, hi = np.ldexp([values.min(), values.max()], e)
        if max(-lo, hi) < 2**53 and hi - lo < values.size:
            lo = int(lo)
            seen = np.zeros(int(hi) - lo + 1, dtype=bool)
            for start in range(0, len(values), _BLOCK_ROWS):
                seen[np.ldexp(values[start : start + _BLOCK_ROWS], e).astype(np.int64) - lo] = True
            k = np.flatnonzero(seen)
            text = np.empty(len(seen), dtype=object)
            text[k] = np.array(
                [sep + _fmt(x) for x in np.ldexp((k + lo).astype(np.float64), -e).tolist()],
                dtype=object,
            )
            return lambda start, stop: text[np.ldexp(values[start:stop], e).astype(np.int64) - lo]
    return lambda start, stop: _distinct_text(values[start:stop], sep)


def save_recording(rec: Recording, path) -> None:
    """Write rec as a recording CSV whose bytes are those of repr on every cell.

    Each cell's text is built with its separator in front (a line break before
    a row's time, a comma before each sample), and a block of rows is written
    with one join. The text comes from one of three sources:
    - a regular clock's times from the integers k // fs and k % fs
      (_clock_fractions);
    - values on a power-of-two grid from one text per grid value that occurs
      in the recording (_column_text);
    - any other values from one text per distinct value of a block
      (_distinct_text).
    """
    n = rec.n_samples
    fractions = _clock_fractions(n, rec.sample_rate_hz)
    # bits, not values: a -0.0 first time is off the clock
    if fractions is not None and rec.times_s is not None and not np.array_equal(
        rec.times_s.view(np.uint64), (np.arange(n) / rec.sample_rate_hz).view(np.uint64)
    ):
        fractions = None
    times = _column_text(rec.times(), "\n") if fractions is None else None
    samples = _column_text(rec.samples.T, ",")
    # a row's time takes two cells, whole seconds and fraction, so that a
    # clock time is written from integers; off the clock the second is ""
    cells = np.full((_BLOCK_ROWS, len(rec.layout) + 2), "", dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s," + ",".join(rec.layout.names))
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(n, start + _BLOCK_ROWS)
            rows = cells[: stop - start]
            if fractions is None:
                rows[:, 0] = times(start, stop)
            else:
                q, r = np.divmod(np.arange(start, stop), len(fractions))
                wholes = np.array(["\n" + str(i) for i in range(q[0], q[-1] + 1)], dtype=object)
                rows[:, 0] = wholes[q - q[0]]
                rows[:, 1] = fractions[r]
            rows[:, 2:] = samples(start, stop)
            fh.write("".join(rows.ravel().tolist()))
        fh.write("\n")


def _parse_rows(fh, path, ncol: int) -> np.ndarray:
    """Rows x ncol table of the lines left in fh, parsed one row at a time with
    float(), so that the first bad row is named. Blank lines are skipped."""
    rows: list[list[float]] = []
    for i, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != ncol:
            raise ParseError(f"{path}: row {i} has {len(parts)} fields, expected {ncol}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"{path}: row {i} has a non-numeric cell") from None
        if not all(map(math.isfinite, vals)):
            raise ParseError(f"{path}: row {i} has a non-finite value")
        rows.append(vals)
    return np.array(rows, dtype=np.float64).reshape(-1, ncol)


def _parse_table(fh, path, ncol: int) -> np.ndarray:
    """Rows x ncol table of the lines after the header line of fh, the open
    file at path.

    numpy's reader parses the body when it can, to the same bits as float();
    the per-row parser runs only where the two may disagree or the reader
    fails, and names the bad row.
    """
    body = fh.tell()
    # The reader warns instead of raising on an all-blank body. The body is
    # scanned 1 MB at a time, so a long recording is never held as text.
    plain, blank = True, True
    while plain and (chunk := fh.read(1 << 20)):
        plain = not any(c in chunk for c in _READER_ONLY_SPACE)
        blank = blank and not chunk.strip("\n")
    fh.seek(body)
    # Given a path the reader parses blocks of text, given fh one line at a
    # time. It opens a name ending in a compression suffix as compressed, and
    # a URL as a download; an absolute path is never a URL.
    name = os.path.abspath(os.fsdecode(path))
    if plain and not blank and not name.endswith((".gz", ".bz2", ".xz", ".lzma")):
        try:
            # strict UTF-8: an undecodable byte raises UnicodeDecodeError, a
            # ValueError, and the per-row parser names its row
            table = np.loadtxt(name, delimiter=",", comments=None, ndmin=2, skiprows=1,
                               encoding="utf-8")
        except ValueError:
            pass
        else:
            if table.shape[1] == ncol and np.all(np.isfinite(table)):
                return table
    return _parse_rows(fh, path, ncol)


def load_recording(path) -> Recording:
    # undecodable bytes become U+FFFD, which the row checks then reject
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        fields = header.split(",")
        if len(fields) < 2 or fields[0] != "time_s":
            raise ParseError(f"{path}: bad header {header!r}; expected time_s,<ch>,...")
        names = tuple(fields[1:])
        table = _parse_table(fh, path, len(fields))
    if len(table) < 2:
        raise ParseError(f"{path}: need at least 2 sample rows to infer sample rate")
    tarr = table[:, 0].copy()
    dt = np.diff(tarr)
    if np.any(dt <= 0):
        row = int(np.argmax(dt <= 0)) + 3  # +2 header/1-based, +1 second row of pair
        raise ParseError(f"{path}: timestamps not increasing at row {row}")
    # Python float division: a tiny span gives inf without a numpy warning,
    # and Recording rejects it
    fs = (len(tarr) - 1) / float(tarr[-1] - tarr[0])
    # snap to 9 significant digits so nominal rates (500, 250, ...) are exact
    fs = float(f"{fs:.9g}")
    # A dropped row or a gap barely moves fs, which comes from the end
    # timestamps, but doubles one step. Steps are compared with their median,
    # which a few bad steps cannot shift, so the first bad row is named even
    # in a short file.
    step = float(np.median(dt))
    off = np.abs(dt - step) > 0.01 * step
    if np.any(off):
        i = int(np.argmax(off))
        raise ParseError(
            f"{path}: row {i + 3} is {dt[i]:.9g} s after the previous row, "
            f"more than 1 % away from the sampling interval {step:.9g} s"
        )
    try:
        return Recording(
            sample_rate_hz=fs,
            layout=ChannelLayout(names),
            # the channels x samples view of a samples x channels array
            samples=np.ascontiguousarray(table[:, 1:]).T,
            times_s=tarr,
        )
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_markers(markers: MarkerStream, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s,label\n")
        for t, label in markers.events:
            fh.write(f"{_fmt(t)},{label}\n")


def load_markers(path) -> MarkerStream:
    events = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        if header != "time_s,label":
            raise ParseError(f"{path}: bad header {header!r}; expected time_s,label")
        for i, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                t_str, label = line.split(",", 1)
                t = float(t_str)
            except ValueError:
                raise ParseError(f"{path}: row {i} is not time_s,label") from None
            if not math.isfinite(t):
                raise ParseError(f"{path}: row {i} has a non-finite time")
            events.append((t, label))
    try:
        return MarkerStream(tuple(events))
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None


def derive_virtual_channel(
    rec: Recording, new_name: str, sources: list[str] | tuple[str, ...]
) -> Recording:
    """Append a channel that is the sample-wise mean of the source channels."""
    if not sources:
        raise InputError("need at least one source channel")
    if new_name in rec.layout.names:
        raise InputError(f"channel name {new_name!r} already in use")
    idx = [rec.layout.index(s) for s in sources]
    virt = rec.samples[idx].mean(axis=0)
    return replace(
        rec,
        layout=ChannelLayout(rec.layout.names + (new_name,)),
        samples=np.vstack([rec.samples, virt[None, :]]),
    )


def extract_epochs(
    rec: Recording,
    markers: MarkerStream,
    length_s: float,
    marker_prefix: str = MARKER_ONSET,
) -> list[TrialEpoch]:
    """Cut one epoch of length_s seconds from each matching marker, snapped to
    the nearest sample.

    Raises if any window falls outside the recording, listing the marker time.
    """
    check_finite("epoch length", length_s)
    fs = rec.sample_rate_hz
    # capped as sample_index caps: a capped window ends outside the recording
    # and fails the bounds check
    n_win = round(min(length_s * fs, rec.n_samples + 1.0))
    epochs = []
    for t, paradigm, freq in markers.with_prefix(marker_prefix):
        i0 = rec.sample_index(t)
        i1 = i0 + n_win
        if i0 < 0 or i1 > rec.n_samples:
            raise InputError(
                f"epoch window for marker at {t} s ([{i0}, {i1}) samples) exceeds "
                f"recording bounds [0, {rec.n_samples})"
            )
        epochs.append(
            TrialEpoch(
                condition=paradigm,
                target_freq_hz=freq,
                samples=rec.samples[:, i0:i1],
                sample_rate_hz=fs,
                onset_s=t,
            )
        )
    return epochs
