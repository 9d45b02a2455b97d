"""The text of every artifact: ``# config_digest: <sha256>``, ``# ``
comments, then headers and comma-separated rows with every float in
``'%.17g'``, or ``key = value`` lines."""

import io

import numpy as np

DIGEST = b"# config_digest: "
_CHUNK_ROWS = 4096      # one format_columns call a chunk: see invosc.g17
TRAJECTORY_SAMPLES = 512    # trajectory.csv rows


def _texts(values, seps):
    """The text of each column of a chunk; the float arrays of the chunk's
    length go through one kernel call."""
    values = [np.atleast_1d(v) for v in values]
    texts = [None] * len(values)
    block = [i for i, v in enumerate(values)
             if v.dtype.kind == "f" and v.size >= 128]
    if block:                               # g17 setup: about 0.15 ms a call
        from .g17 import format_columns     # here: importing cli loads no kernel
        for i, text in zip(block, format_columns(
                np.stack([values[i] for i in block]), [seps[i] for i in block])):
            texts[i] = text
    for i, (v, sep) in enumerate(zip(values, seps)):
        if texts[i] is None:
            form = "%.17g" if v.dtype.kind == "f" else "%s"
            texts[i] = np.array([(form % u).encode() + sep for u in v.tolist()])
    return texts


def _chunks(columns, last, lead=None, join=False):
    """The text of each chunk of rows: a bytes array of one row an element,
    or, with ``join``, the rows as one bytes object.  Nothing of a chunk is
    held while the next one is formatted."""
    count = max(np.size(c) for c in columns if not callable(c))
    seps = [b","] * (len(columns) - 1) + [last]
    for i, lo in enumerate(range(0, count, _CHUNK_ROWS)):
        part = slice(lo, lo + _CHUNK_ROWS)
        texts = _texts([column(part) if callable(column)
                        else column[part] if np.ndim(column) else column
                        for column in columns], seps)
        text = lead[i] if lead else texts.pop(0)
        while texts:
            text = np.strings.add(text, texts.pop(0))
        if join:
            text = b"".join(text.tolist())
        yield text
        del text


def table_rows(*columns, lead=None):
    """The bytes of one row per element of the columns, _CHUNK_ROWS at a time;
    a column may also be a scalar or a function of a slice of rows."""
    return _chunks(columns, b"\n", lead, join=True)


class Table(io.BufferedWriter):
    """An artifact file: digest, comments, rows led by the ``lead`` columns."""

    def __init__(self, path, digest, comments=(), lead=()):
        super().__init__(io.FileIO(path, "w"))
        self.lead = lead and list(_chunks([np.ravel(c) for c in lead], b","))
        self.lines(DIGEST.decode() + digest,
                   *(f"# {comment}" for comment in comments))

    def lines(self, *lines):
        self.writelines(f"{line}\n".encode() for line in lines)

    def rows(self, *columns):
        self.writelines(table_rows(*columns, lead=self.lead))


def write_summary(path, pairs, digest):
    """The digest line, then ``key = value`` for each pair."""
    with Table(path, digest) as out:
        out.lines(*(f"{key} = {value}" for key, value in pairs))


def read_digest(path):
    """The digest on one of the first 4 lines, read as bytes, or None."""
    with open(path, "rb") as fh:
        head = [fh.readline() for _ in range(4)]
    return next((line[len(DIGEST):].strip().decode(errors="replace")
                 for line in head if line.startswith(DIGEST)), None)


def write_trajectory_csv(traj, path, digest):
    """The transformation chain at TRAJECTORY_SAMPLES evenly spaced times."""
    ts = np.linspace(traj.span[0], traj.span[1], TRAJECTORY_SAMPLES)
    a, m, f = (np.asarray(fn(ts)) for fn in (traj.alpha, traj.mu, traj.phase))
    with Table(path, digest) as table:
        table.lines("t,beta,re_alpha,im_alpha,re_mu,im_mu,re_f,im_f")
        table.rows(ts, np.asarray(traj.beta(ts), dtype=float), a.real, a.imag,
                   m.real, m.imag, f.real, f.imag)
